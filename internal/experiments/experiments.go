// Package experiments regenerates every table and figure in the paper's
// evaluation (§6). Each generator writes a plain-text rendering of the
// figure to an io.Writer; cmd/stoke-bench and the root bench_test.go are
// thin wrappers around these functions. Budgets are laptop-scale by
// default (the paper used 40 dual-core machines for 30 minutes per phase);
// BENCH_search.json records the synthesis hit rates and proof costs
// measured at such budgets.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/mcmc"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/verify"
	"repro/internal/x64"
	"repro/stoke"
)

// Profile scales search budgets.
type Profile struct {
	Seed           int64
	SynthChains    int
	OptChains      int
	SynthProposals int64
	OptProposals   int64
	Ell            int

	// VerifyBudget caps SAT conflicts per validation query (0 = the
	// validator default). Large kernels can spend minutes per proof at
	// the default; bench harnesses cap it and accept Unknown verdicts.
	VerifyBudget int64
}

// Quick is the profile used by the benchmark harness: seconds per kernel.
// It is deliberately lighter than stoke.Quick (the CLI default) — the
// harness runs 28 kernels per suite and caps verification.
var Quick = Profile{
	Seed: 1, SynthChains: 2, OptChains: 2,
	SynthProposals: 80000, OptProposals: 120000, Ell: 20,
	VerifyBudget: 100000,
}

// Full spends roughly a minute per kernel; its budgets come from
// stoke.Full so `stoke -profile full` and `stoke-bench -profile full`
// cannot drift apart.
var Full = Profile{
	Seed:           1,
	SynthChains:    stoke.Full.SynthChains,
	OptChains:      stoke.Full.OptChains,
	SynthProposals: stoke.Full.SynthProposals,
	OptProposals:   stoke.Full.OptProposals,
	Ell:            stoke.Full.Ell,
}

func (p Profile) options() []stoke.Option {
	opts := []stoke.Option{
		stoke.WithSeed(p.Seed),
		stoke.WithChains(p.SynthChains, p.OptChains),
		stoke.WithBudgets(p.SynthProposals, p.OptProposals),
		stoke.WithEll(p.Ell),
	}
	if p.VerifyBudget > 0 {
		cfg := verify.DefaultConfig
		cfg.Budget = p.VerifyBudget
		// Cheap verification profile: also cap formula size.
		cfg.MaxTerms = 100000
		opts = append(opts, stoke.WithVerify(cfg))
	}
	return opts
}

// KernelRun is one kernel's outcome, shared by Figures 10 and 12.
type KernelRun struct {
	Bench  kernels.Bench
	Report *stoke.Report

	// Speedups over the llvm -O0 target under the pipeline model.
	GccSpeedup   float64
	IccSpeedup   float64
	StokeSpeedup float64
	PaperSpeedup float64 // paper-printed rewrite, when available
}

// RunSuite optimizes every benchmark once; the result feeds Figures 10 and
// 12 (mirroring the paper, which derives both from the same runs). A few
// kernels at a time (pool width + 1) run concurrently on one shared engine
// pool — enough chains in flight to saturate the workers, few enough that
// kernels finish progressively; each kernel's progress line streams to w
// as it completes (so completion order, not suite order), while the
// returned slice stays in suite order.
func RunSuite(ctx context.Context, p Profile, w io.Writer) ([]KernelRun, error) {
	all := kernels.All()
	e := stoke.NewEngine(stoke.EngineConfig{})
	defer e.Close()

	out := make([]KernelRun, len(all))
	errs := make([]error, len(all))
	var mu sync.Mutex // serializes progress lines on w
	var wg sync.WaitGroup
	// Bound in-flight kernels to slightly more than the pool width: enough
	// concurrent chains to saturate the workers, few enough that kernels
	// complete (and stream their lines) progressively instead of all
	// finishing together in one burst at the end.
	sem := make(chan struct{}, e.Workers()+1)
	for i := range all {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			b := all[i]
			// Per-kernel seed offsets, as Engine.OptimizeAll applies.
			opts := append(p.options(), stoke.WithSeed(p.Seed+int64(i)*stoke.KernelSeedStride))
			rep, err := e.Optimize(ctx, b.Kernel, opts...)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", b.Name, err)
				return
			}
			kr := KernelRun{Bench: b, Report: rep}
			base := pipeline.Cycles(b.Target)
			speedup := func(prog *x64.Program) float64 {
				if prog == nil {
					return 0
				}
				c := pipeline.Cycles(prog)
				if c == 0 {
					return 1
				}
				return base / c
			}
			kr.GccSpeedup = speedup(b.GccO3)
			kr.IccSpeedup = speedup(b.IccO3)
			kr.StokeSpeedup = speedup(rep.Rewrite)
			kr.PaperSpeedup = speedup(b.PaperRewrite)
			out[i] = kr
			if w != nil {
				mu.Lock()
				fmt.Fprintf(w, "# %-6s target=%2d insts rewrite=%2d insts stoke=%.2fx gcc=%.2fx verdict=%v synth=%v (%.1fs+%.1fs)\n",
					b.Name, b.Target.InstCount(), rep.Rewrite.InstCount(),
					kr.StokeSpeedup, kr.GccSpeedup, rep.Verdict, rep.SynthesisSucceeded,
					rep.SynthTime.Seconds(), rep.OptTime.Seconds())
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig01Montgomery reproduces Figure 1: the Montgomery multiplication kernel
// compiled by gcc -O3 versus the STOKE rewrite.
func Fig01Montgomery(ctx context.Context, w io.Writer, p Profile) error {
	b, err := kernels.ByName("mont")
	if err != nil {
		return err
	}
	rep, err := stoke.Optimize(ctx, b.Kernel, p.options()...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 1: Montgomery multiplication kernel\n")
	fmt.Fprintf(w, "==========================================\n\n")
	fmt.Fprintf(w, "llvm -O0 target: %d instructions, %.1f cycles (pipeline model)\n",
		b.Target.InstCount(), pipeline.Cycles(b.Target))
	fmt.Fprintf(w, "gcc -O3:         %d instructions, %.1f cycles\n",
		b.GccO3.InstCount(), pipeline.Cycles(b.GccO3))
	fmt.Fprintf(w, "paper's STOKE:   %d instructions, %.1f cycles\n",
		b.PaperRewrite.InstCount(), pipeline.Cycles(b.PaperRewrite))
	fmt.Fprintf(w, "our STOKE run:   %d instructions, %.1f cycles (verdict %v)\n\n",
		rep.Rewrite.InstCount(), pipeline.Cycles(rep.Rewrite), rep.Verdict)
	fmt.Fprintf(w, "paper claim: STOKE 16 lines shorter and 1.6x faster than gcc -O3\n")
	fmt.Fprintf(w, "model check: paper rewrite is %d lines shorter and %.2fx faster than gcc -O3\n\n",
		b.GccO3.InstCount()-b.PaperRewrite.InstCount(),
		pipeline.Cycles(b.GccO3)/pipeline.Cycles(b.PaperRewrite))
	fmt.Fprintf(w, "--- gcc -O3 ---\n%s\n--- paper STOKE rewrite ---\n%s\n--- our discovered rewrite ---\n%s\n",
		b.GccO3, b.PaperRewrite, rep.Rewrite)
	return nil
}

// Fig02Throughput reproduces Figure 2: validations per second (left) and
// testcase evaluations per second (right) across the benchmark suite.
func Fig02Throughput(w io.Writer) error {
	fmt.Fprintf(w, "Figure 2: validator vs testcase throughput\n")
	fmt.Fprintf(w, "==========================================\n\n")

	var valRates, tcRates []float64
	for _, b := range kernels.All() {
		// Validation throughput: time equivalence queries of the target
		// against itself-with-a-twist (its gcc comparator when convention
		// compatible, else a clone). Budgeted so hard queries terminate.
		other := b.GccO3
		if b.Name == "list" || other == nil {
			other = b.Target.Clone()
		}
		live := verify.LiveOut{GPRs: b.Spec.LiveOut.GPRs,
			Xmms: b.Spec.LiveOut.Xmms, Flags: b.Spec.LiveOut.Flags, Mem: b.LiveMem}
		cfg := verify.DefaultConfig
		cfg.Budget = 50000
		start := time.Now()
		n := 0
		for time.Since(start) < 300*time.Millisecond {
			verify.Equivalent(context.Background(), b.Target, other, live, cfg)
			n++
		}
		valRate := float64(n) / time.Since(start).Seconds()
		valRates = append(valRates, valRate)

		// Testcase throughput: emulator runs per second.
		tcRate, err := testcaseRate(b)
		if err != nil {
			return err
		}
		tcRates = append(tcRates, tcRate)
		fmt.Fprintf(w, "%-6s validations/s %8.1f   testcase evals/s %10.0f\n",
			b.Name, valRate, tcRate)
	}

	fmt.Fprintf(w, "\nValidations per second (paper: well below 100):\n")
	histogram(w, valRates, []float64{10, 30, 50, 70, 90})
	fmt.Fprintf(w, "\nTestcase evaluations per second (paper: just under 500,000):\n")
	histogram(w, tcRates, []float64{200000, 250000, 300000, 350000, 400000})
	return nil
}

// Fig03PredictedVsActual reproduces Figure 3: the static latency sum
// (Equation 13) against the ILP-aware pipeline model, across every program
// variant in the suite.
func Fig03PredictedVsActual(w io.Writer) error {
	fmt.Fprintf(w, "Figure 3: predicted (static latency sum) vs actual (pipeline cycles)\n")
	fmt.Fprintf(w, "=====================================================================\n\n")
	var xs, ys []float64
	for _, b := range kernels.All() {
		for _, v := range []struct {
			kind string
			p    *x64.Program
		}{
			{"O0", b.Target}, {"gcc", b.GccO3}, {"icc", b.IccO3}, {"stoke", b.PaperRewrite},
		} {
			if v.p == nil {
				continue
			}
			pred := perf.H(v.p)
			act := pipeline.Cycles(v.p)
			xs = append(xs, pred)
			ys = append(ys, act)
			fmt.Fprintf(w, "%-6s %-5s predicted %7.1f actual %7.1f\n", b.Name, v.kind, pred, act)
		}
	}
	r := pearson(xs, ys)
	fmt.Fprintf(w, "\nPearson correlation: %.3f (paper: \"well correlated but distinguished by outliers\")\n", r)
	// Outliers: the largest |residual| points are the high-ILP codes.
	fmt.Fprintf(w, "largest ILP ratios (predicted/actual, high = more ILP):\n")
	type pt struct {
		ratio float64
		i     int
	}
	var pts []pt
	for i := range xs {
		if ys[i] > 0 {
			pts = append(pts, pt{xs[i] / ys[i], i})
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].ratio > pts[b].ratio })
	for i := 0; i < 5 && i < len(pts); i++ {
		fmt.Fprintf(w, "  ratio %.2f at point %d\n", pts[i].ratio, pts[i].i)
	}
	return nil
}

// Fig05EarlyTermination reproduces Figure 5: proposals per second versus
// testcases evaluated per proposal during synthesis, under the
// early-termination optimisation of §4.5.
func Fig05EarlyTermination(ctx context.Context, w io.Writer, p Profile) error {
	b, err := kernels.ByName("mont")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 5: early termination during mont synthesis\n")
	fmt.Fprintf(w, "=================================================\n\n")
	fmt.Fprintf(w, "%10s %12s %16s %12s\n", "proposals", "cost", "tests/proposal", "proposals/s")

	s, tests, err := synthSampler(b, p, 0)
	if err != nil {
		return err
	}
	_ = tests
	start := time.Now()
	var lastProposals, lastTests int64
	lastTime := start
	s.StepInterval = int64(p.SynthProposals) / 12
	if s.StepInterval == 0 {
		s.StepInterval = 1000
	}
	s.OnStep = func(st mcmc.Stats, cur float64) {
		now := time.Now()
		dp := st.Proposals - lastProposals
		dt := st.TestsEvaluated - lastTests
		el := now.Sub(lastTime).Seconds()
		if dp > 0 && el > 0 {
			fmt.Fprintf(w, "%10d %12.1f %16.2f %12.0f\n",
				st.Proposals, cur, float64(dt)/float64(dp), float64(dp)/el)
		}
		lastProposals, lastTests, lastTime = st.Proposals, st.TestsEvaluated, now
	}
	res := s.Run(ctx, s.RandomProgram(), p.SynthProposals)
	perProp := float64(res.Stats.TestsEvaluated) / float64(res.Stats.Proposals)
	fmt.Fprintf(w, "\noverall: %.2f testcases/proposal (32 without early termination, a %.1fx saving)\n",
		perProp, 32/perProp)
	return nil
}

// Fig06ImprovedMetric prints the worked example of Figure 6.
func Fig06ImprovedMetric(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: strict vs improved register equality\n")
	fmt.Fprintf(w, "==============================================\n\n")
	fmt.Fprintf(w, "target: al = 1111 (0x0f); rewrite: al=0000 bl=1000 cl=1100 dl=1111\n\n")
	fmt.Fprintf(w, "strict   reg(T,R)  = POP(1111 xor 0000) = 4\n")
	fmt.Fprintf(w, "improved reg'(T,R) = min(4, 3+wm, 2+wm, 0+wm)\n")
	fmt.Fprintf(w, "  with wm=1 (figure's arithmetic): 1\n")
	fmt.Fprintf(w, "  with wm=3 (Figure 11 weights):   3\n")
	fmt.Fprintf(w, "(asserted by TestFigure6StrictVsImproved in internal/cost)\n")
}

// pearson computes the correlation coefficient.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var num, dx, dy float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		dx += (xs[i] - mx) * (xs[i] - mx)
		dy += (ys[i] - my) * (ys[i] - my)
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

// histogram prints bucket counts with the given upper bounds.
func histogram(w io.Writer, vals []float64, bounds []float64) {
	counts := make([]int, len(bounds)+1)
	for _, v := range vals {
		placed := false
		for i, b := range bounds {
			if v < b {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(bounds)]++
		}
	}
	for i, c := range counts {
		var label string
		switch {
		case i == 0:
			label = fmt.Sprintf("< %.0f", bounds[0])
		case i == len(bounds):
			label = fmt.Sprintf("> %.0f", bounds[len(bounds)-1])
		default:
			label = fmt.Sprintf("%.0f-%.0f", bounds[i-1], bounds[i])
		}
		fmt.Fprintf(w, "  %-16s %s (%d)\n", label, bar(c), c)
	}
}

func bar(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "#"
	}
	return s
}
