// Benchmark harness: one testing.B entry per table/figure in the paper's
// evaluation (§6), plus ablation micro-benchmarks for the substrate design
// choices. Figure benchmarks use a tiny search profile so
// `go test -bench=.` stays tractable; `cmd/stoke-bench -profile full`
// regenerates the figures with real budgets.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/mcmc"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
	"repro/stoke"
)

// benchProfile keeps figure regeneration fast under `go test -bench`: tiny
// search budgets and a capped validator budget (hard proofs answer Unknown
// rather than running for minutes).
var benchProfile = experiments.Profile{
	Seed: 1, SynthChains: 1, OptChains: 1,
	SynthProposals: 5000, OptProposals: 10000, Ell: 14,
	VerifyBudget: 5000,
}

// --- Figure benchmarks ---------------------------------------------------

func BenchmarkFig01Montgomery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig01Montgomery(context.Background(), io.Discard, benchProfile); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02Validations(b *testing.B) {
	// Validator throughput on a representative query, the p01 -O0 target
	// against its gcc -O3 version (Figure 2, left). The paper reports well
	// below 100 validations per second. Here every stack spill and reload
	// resolves while the formula is built, so the query encodes to about
	// 1.2k clauses and runs at about 300 per second (3.2 ms each on a
	// 2-vCPU Intel Xeon VM, go1.24).
	bench, err := kernels.ByName("p01")
	if err != nil {
		b.Fatal(err)
	}
	live := verify.LiveOut{GPRs: bench.Spec.LiveOut.GPRs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verify.Equivalent(context.Background(), bench.Target, bench.GccO3, live, verify.DefaultConfig)
	}
}

func BenchmarkFig02TestcaseEvals(b *testing.B) {
	// Emulator testcase throughput (Figure 2, right; paper: ~500k/s).
	bench, err := kernels.ByName("p01")
	if err != nil {
		b.Fatal(err)
	}
	tests, err := testgen.Generate(bench.Target, bench.Spec, 32, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	m := emu.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := &tests[i%len(tests)]
		m.LoadSnapshot(tc.In)
		m.Run(bench.Target)
	}
}

func BenchmarkFig03PredictedVsActual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig03PredictedVsActual(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig05EarlyTermination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig05EarlyTermination(context.Background(), io.Discard, benchProfile); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07CostFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig07CostFunctions(context.Background(), io.Discard, benchProfile, "p01"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08PercentOfFinal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig08PercentOfFinal(context.Background(), io.Discard, benchProfile, "p01"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10And12Suite(b *testing.B) {
	// Figures 10 and 12 derive from one suite run (as in the paper).
	for i := 0; i < b.N; i++ {
		runs, err := experiments.RunSuite(context.Background(), benchProfile, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		experiments.Fig10Speedups(io.Discard, runs)
		experiments.Fig12Runtimes(io.Discard, runs)
	}
}

func BenchmarkFig11Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11Params(io.Discard)
	}
}

func BenchmarkFig13CycleThroughValues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig13CycleThroughValues(context.Background(), io.Discard, benchProfile); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14Saxpy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig14Saxpy(context.Background(), io.Discard, benchProfile); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15LinkedList(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig15LinkedList(context.Background(), io.Discard, benchProfile); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation and substrate micro-benchmarks -----------------------------

// BenchmarkAblationEarlyTermination measures cost evaluation with and
// without the Equation 14 bound.
func BenchmarkAblationEarlyTermination(b *testing.B) {
	bench, _ := kernels.ByName("p23")
	tests, err := testgen.Generate(bench.Target, bench.Spec, 32, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	f := cost.New(tests, bench.Spec.LiveOut, cost.Improved, 0)
	wrong := x64.MustParse("movl 0, eax").PadTo(14)

	b.Run("bounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.Eval(wrong, 25) // tight bound: most testcases skipped
		}
	})
	b.Run("unbounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.Eval(wrong, cost.MaxBudget)
		}
	})
}

// BenchmarkAblationEqualityMetric compares the strict and improved metrics'
// evaluation cost (the improved metric scans all 16 registers).
func BenchmarkAblationEqualityMetric(b *testing.B) {
	bench, _ := kernels.ByName("p14")
	tests, err := testgen.Generate(bench.Target, bench.Spec, 32, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	prog := bench.GccO3.PadTo(14)
	for _, mode := range []struct {
		name string
		m    cost.Mode
	}{{"strict", cost.Strict}, {"improved", cost.Improved}} {
		f := cost.New(tests, bench.Spec.LiveOut, mode.m, 0)
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.Eval(prog, cost.MaxBudget)
			}
		})
	}
}

// evalModes are the three evaluation pipelines the throughput benchmarks
// A/B: the seed interpreter, the decode-once compiled path, and the
// compiled path with batched lockstep testcase sweeps.
var evalModes = []struct {
	name        string
	interpreted bool
	batched     bool
}{
	{"interpreted", true, false},
	{"compiled", false, false},
	{"batched", false, true},
}

// BenchmarkEvalThroughput measures end-to-end proposals per second through
// the evaluation pipelines — the seed interpreter (copy the candidate,
// re-decode every instruction on every testcase), the decode-once
// compiled path (patch the mutated slots, adaptive testcase order, pinned
// per-testcase machines), and the batched compiled path (each slot runs
// across all live testcases in lockstep) — on an optimization-phase chain
// (β=1, perf term on, started from the target: the regime the paper's §6
// wall-clock is spent in) at the harness ℓ=14 and the paper's ℓ=50
// profile. cmd/stoke-bench -eval-baseline records the same measurement,
// plus secondary kernels, as a machine-readable BENCH_eval.json.
func BenchmarkEvalThroughput(b *testing.B) {
	bench, err := kernels.ByName("p01")
	if err != nil {
		b.Fatal(err)
	}
	tests, err := testgen.Generate(bench.Target, bench.Spec, 32, rand.New(rand.NewSource(8)))
	if err != nil {
		b.Fatal(err)
	}
	for _, ell := range []int{14, 50} {
		for _, mode := range evalModes {
			b.Run(fmt.Sprintf("ell=%d/%s", ell, mode.name), func(b *testing.B) {
				params := mcmc.PaperParams
				params.Ell = ell
				params.Beta = 1.0 // optimization phase (stoke.DefaultOptBeta)
				s := &mcmc.Sampler{
					Params:      params,
					Pools:       mcmc.PoolsFor(bench.Target, false),
					Cost:        cost.New(tests, bench.Spec.LiveOut, cost.Improved, 1),
					Rng:         rand.New(rand.NewSource(9)),
					Interpreted: mode.interpreted,
					Batched:     mode.batched,
				}
				b.ResetTimer()
				res := s.Run(context.Background(), bench.Target, int64(b.N))
				b.StopTimer()
				if res.Best == nil {
					b.Fatal("chain returned no program")
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "proposals/s")
			})
		}
	}
}

// BenchmarkEvalThroughputBatched sweeps the testcase count |τ| ∈ {1, 4,
// 16, 64} on the p01 kernel at ℓ=50, batched against scalar compiled: the
// batch-width scaling of the lockstep evaluator. At |τ|=1 the two paths
// are identical (a one-testcase batch never leaves the scalar chunk);
// the amortisation of per-slot dispatch grows with the width.
func BenchmarkEvalThroughputBatched(b *testing.B) {
	bench, err := kernels.ByName("p01")
	if err != nil {
		b.Fatal(err)
	}
	for _, ntests := range []int{1, 4, 16, 64} {
		tests, err := testgen.Generate(bench.Target, bench.Spec, ntests, rand.New(rand.NewSource(8)))
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range evalModes[1:] { // compiled and batched
			b.Run(fmt.Sprintf("tau=%d/%s", ntests, mode.name), func(b *testing.B) {
				params := mcmc.PaperParams
				params.Ell = 50
				params.Beta = 1.0
				s := &mcmc.Sampler{
					Params:  params,
					Pools:   mcmc.PoolsFor(bench.Target, false),
					Cost:    cost.New(tests, bench.Spec.LiveOut, cost.Improved, 1),
					Rng:     rand.New(rand.NewSource(9)),
					Batched: mode.batched,
				}
				b.ResetTimer()
				res := s.Run(context.Background(), bench.Target, int64(b.N))
				b.StopTimer()
				if res.Best == nil {
					b.Fatal("chain returned no program")
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "proposals/s")
			})
		}
	}
}

// BenchmarkEvalThroughputSSE is the vector-kernel companion of
// BenchmarkEvalThroughput: the saxpy kernel with SSE opcodes in the
// proposal distribution, so the chain's candidates run the packed
// micro-ops (movd/shufps/movups/pmulld/paddd) the DIV/IDIV + SSE lowering
// added to the compiled pipeline. Tracked as the saxpy row of
// BENCH_eval.json.
func BenchmarkEvalThroughputSSE(b *testing.B) {
	bench, err := kernels.ByName("saxpy")
	if err != nil {
		b.Fatal(err)
	}
	tests, err := testgen.Generate(bench.Target, bench.Spec, 32, rand.New(rand.NewSource(8)))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range evalModes {
		b.Run("ell=50/"+mode.name, func(b *testing.B) {
			params := mcmc.PaperParams
			params.Ell = 50
			params.Beta = 1.0
			s := &mcmc.Sampler{
				Params:      params,
				Pools:       mcmc.PoolsFor(bench.Target, true),
				Cost:        cost.New(tests, bench.Spec.LiveOut, cost.Improved, 1),
				Rng:         rand.New(rand.NewSource(9)),
				Interpreted: mode.interpreted,
				Batched:     mode.batched,
			}
			b.ResetTimer()
			res := s.Run(context.Background(), bench.Target, int64(b.N))
			b.StopTimer()
			if res.Best == nil {
				b.Fatal("chain returned no program")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "proposals/s")
		})
	}
}

// BenchmarkPatchLiveness measures the worst case of the patch-incremental
// flag-liveness recomputation: a mutation at the last slot of an ℓ=50
// candidate whose liveness flip survives a kill-free prefix (48 MOVs), so
// every Patch re-walks the entire backward slice down to the flag writer
// at slot 0 and re-selects its dispatch variant. This is the O(ℓ) bound
// the Patch contract pays at most; typical ALU-dense candidates stop the
// walk at the first unconditional flag writer.
func BenchmarkPatchLiveness(b *testing.B) {
	src := "addq rsi, rax\n"
	for i := 0; i < 48; i++ {
		src += "movq rdi, rcx\n"
	}
	src += "adcq 0, rax" // reads CF: keeps slot 0's flags live
	p := x64.MustParse(src)
	c := emu.Compile(p)
	if c.FlagFreeSlots() != 0 {
		b.Fatalf("adc tail must keep the head add live, got %d free slots", c.FlagFreeSlots())
	}
	last := len(p.Insts) - 1
	withCarry := p.Insts[last]
	noCarry := x64.MustParse("movq rdi, rdx").Insts[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate a carry consumer in and out of the tail: each Patch
		// flips the liveness of the whole 50-slot backward slice.
		if i%2 == 0 {
			p.Insts[last] = noCarry
		} else {
			p.Insts[last] = withCarry
		}
		c.Patch(last)
	}
}

// BenchmarkProposalThroughput measures raw MCMC proposals per second on the
// Montgomery kernel (the paper's Figure 5 peak is ~50k/s on 2012 hardware).
func BenchmarkProposalThroughput(b *testing.B) {
	bench, _ := kernels.ByName("mont")
	tests, err := testgen.Generate(bench.Target, bench.Spec, 32, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	params := mcmc.PaperParams
	params.Ell = 24
	s := &mcmc.Sampler{
		Params: params,
		Pools:  mcmc.PoolsFor(bench.Target, false),
		Cost:   cost.New(tests, bench.Spec.LiveOut, cost.Improved, 0),
		Rng:    rand.New(rand.NewSource(5)),
	}
	start := s.RandomProgram()
	b.ResetTimer()
	s.Run(context.Background(), start, int64(b.N))
}

// BenchmarkEmulator measures raw instruction throughput on the gcc -O3
// Montgomery kernel.
func BenchmarkEmulator(b *testing.B) {
	bench, _ := kernels.ByName("mont")
	prog := bench.GccO3
	in := bench.Spec.BuildInput(rand.New(rand.NewSource(6)))
	m := emu.New()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		m.LoadSnapshot(in)
		out := m.Run(prog)
		steps += out.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkPipelineModel measures the cycle estimator (used during
// re-ranking).
func BenchmarkPipelineModel(b *testing.B) {
	bench, _ := kernels.ByName("mont")
	for i := 0; i < b.N; i++ {
		pipeline.Cycles(bench.Target)
	}
}

// BenchmarkStaticLatency measures the Equation 13 sum.
func BenchmarkStaticLatency(b *testing.B) {
	bench, _ := kernels.ByName("mont")
	for i := 0; i < b.N; i++ {
		perf.H(bench.Target)
	}
}

// BenchmarkEndToEndP01 runs the whole pipeline on the smallest kernel.
func BenchmarkEndToEndP01(b *testing.B) {
	bench, _ := kernels.ByName("p01")
	engine := stoke.NewEngine(stoke.EngineConfig{})
	defer engine.Close()
	opts := []stoke.Option{
		stoke.WithSeed(1),
		stoke.WithChains(1, 1),
		stoke.WithBudgets(2000, 5000),
		stoke.WithEll(12),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Optimize(context.Background(), bench.Kernel, opts...); err != nil {
			b.Fatal(err)
		}
	}
}
