package mcmc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// identitySpec builds a spec for a kernel computing rax := f(rdi, rsi).
func identitySpec() testgen.Spec {
	return testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x10000)
			a.SetReg(x64.RDI, rng.Uint64())
			a.SetReg(x64.RSI, rng.Uint64())
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}},
	}
}

func newSampler(t *testing.T, target *x64.Program, spec testgen.Spec,
	mode cost.Mode, perfWeight float64, ell int, seed int64) *Sampler {
	t.Helper()
	tests, err := testgen.Generate(target, spec, 32, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	params := PaperParams
	params.Ell = ell
	return &Sampler{
		Params: params,
		Pools:  PoolsFor(target, false),
		Cost:   cost.New(tests, spec.LiveOut, mode, perfWeight),
		Rng:    rand.New(rand.NewSource(seed + 1)),
	}
}

func TestProposalsPreserveValidity(t *testing.T) {
	target := x64.MustParse(`
  movq rdi, rax
  andq rsi, rax
  movl (rdi), ecx
  movl ecx, (rdi)
`)
	// Give the program a memory pool via a fake target with memory ops.
	s := &Sampler{
		Params: PaperParams,
		Pools:  PoolsFor(target, true),
		Rng:    rand.New(rand.NewSource(11)),
	}
	p := target.PadTo(20)
	// The pools include rdi-based memory operands, so memory moves have
	// material to work with. Snapshot validity after every move.
	for i := 0; i < 20000; i++ {
		s.propose(p)
		if err := p.Validate(); err != nil {
			t.Fatalf("move %d produced invalid program: %v\n%s", i, err, p)
		}
	}
}

func TestRandomProgramsAreValid(t *testing.T) {
	s := &Sampler{
		Params: PaperParams,
		Pools:  PoolsFor(x64.MustParse("movq (rdi), rax"), true),
		Rng:    rand.New(rand.NewSource(13)),
	}
	for i := 0; i < 200; i++ {
		p := s.RandomProgram()
		if err := p.Validate(); err != nil {
			t.Fatalf("random program %d invalid: %v", i, err)
		}
		if p.Len() != PaperParams.Ell {
			t.Fatalf("random program has %d slots, want %d", p.Len(), PaperParams.Ell)
		}
	}
}

func TestPoolsForHarvestsTarget(t *testing.T) {
	target := x64.MustParse(`
  movl (rsi,rcx,4), eax
  imull 12345, eax, eax
  movl eax, (rsi,rcx,4)
`)
	p := PoolsFor(target, false)
	foundImm := false
	for _, v := range p.Imms {
		if v == 12345 {
			foundImm = true
		}
	}
	if !foundImm {
		t.Error("target immediate 12345 not harvested")
	}
	found32 := false
	for _, m := range p.Mems {
		if m.Width == 4 && m.Base == x64.RSI && m.Index == x64.RCX {
			found32 = true
		}
	}
	if !found32 {
		t.Error("target memory shape not harvested")
	}
	for _, r := range p.Regs {
		if r == x64.RSP {
			t.Error("RSP must not be in the register pool")
		}
	}
}

func TestOptimizationShrinksVerboseCode(t *testing.T) {
	// An -O0-flavoured computation of rax := rdi & (rdi - 1) with
	// pointless register shuffling; optimization should find a shorter
	// equivalent and never lose correctness.
	target := x64.MustParse(`
  movq rdi, rcx
  movq rcx, rdx
  subq 1, rdx
  movq rdx, r8
  movq rcx, r9
  andq r8, r9
  movq r9, rax
`)
	spec := identitySpec()
	s := newSampler(t, target, spec, cost.Improved, 1.0, 16, 17)
	s.Params.Beta = 1.0 // optimization runs colder than synthesis (see DESIGN.md)
	s.RestartAfter = 10000
	res := s.Run(context.Background(), target, 150000)
	if !res.ZeroCost || res.BestCorrect == nil {
		t.Fatalf("optimization lost correctness: best cost %v\n%s", res.BestCost, res.Best)
	}
	// The rewrite must be strictly shorter than the target and correct.
	full := cost.New(s.Cost.Tests, spec.LiveOut, cost.Improved, 0)
	if c := full.Eval(res.BestCorrect, cost.MaxBudget); c.Cost != 0 {
		t.Fatalf("best rewrite is incorrect: eq cost %v\n%s", c.Cost, res.BestCorrect)
	}
	if got, want := res.BestCorrect.InstCount(), target.InstCount(); got >= want {
		t.Fatalf("optimizer found nothing: %d >= %d instructions", got, want)
	}
	t.Logf("optimized %d -> %d instructions:\n%s",
		target.InstCount(), res.BestCorrect.InstCount(), res.BestCorrect.Packed())
}

func TestSynthesisFindsTrivialKernel(t *testing.T) {
	// Synthesis from a random start must discover rax := rdi (§4.4's
	// synthesis phase on the simplest possible kernel).
	target := x64.MustParse("movq rdi, rax")
	spec := identitySpec()
	s := newSampler(t, target, spec, cost.Improved, 0, 8, 23)
	start := s.RandomProgram()
	res := s.Run(context.Background(), start, 150000)
	if !res.ZeroCost {
		t.Fatalf("synthesis failed: best cost %v\n%s", res.BestCost, res.Best)
	}
	full := cost.New(s.Cost.Tests, spec.LiveOut, cost.Improved, 0)
	if c := full.Eval(res.Best, cost.MaxBudget); c.Cost != 0 {
		t.Fatalf("synthesised rewrite incorrect: %v", c.Cost)
	}
	t.Logf("synthesised in <=150k proposals:\n%s", res.Best.Packed())
}

func TestDeterministicWithSeed(t *testing.T) {
	target := x64.MustParse("movq rdi, rax\naddq rsi, rax")
	spec := identitySpec()
	run := func() string {
		s := newSampler(t, target, spec, cost.Improved, 1.0, 12, 31)
		return s.Run(context.Background(), target, 5000).Best.String()
	}
	if run() != run() {
		t.Fatal("same seed must give same search trajectory")
	}
}

func TestEarlyTerminationReducesWork(t *testing.T) {
	target := x64.MustParse("movq rdi, rax\naddq rsi, rax")
	spec := identitySpec()

	s := newSampler(t, target, spec, cost.Improved, 0, 12, 37)
	start := s.RandomProgram()
	res := s.Run(context.Background(), start.Clone(), 20000)
	perProposal := float64(res.Stats.TestsEvaluated) / float64(res.Stats.Proposals)

	// Without the bound every proposal would evaluate all 32 testcases;
	// with it, the average must be strictly (and substantially) lower.
	if perProposal >= 31 {
		t.Fatalf("early termination ineffective: %.1f testcases/proposal", perProposal)
	}
	t.Logf("%.2f testcases evaluated per proposal (32 without early termination)", perProposal)
}

func TestStatsCallbacks(t *testing.T) {
	target := x64.MustParse("movq rdi, rax")
	spec := identitySpec()
	s := newSampler(t, target, spec, cost.Improved, 0, 8, 41)
	steps := 0
	s.StepInterval = 100
	s.OnStep = func(st Stats, cur float64) { steps++ }
	improves := 0
	s.OnImprove = func(iter int64, c float64, p *x64.Program) {
		improves++
		if p.Validate() != nil {
			t.Error("OnImprove delivered invalid program")
		}
	}
	s.Run(context.Background(), s.RandomProgram(), 5000)
	if steps == 0 {
		t.Error("OnStep never fired")
	}
	if improves == 0 {
		t.Error("OnImprove never fired")
	}
}

// TestOnStepFiresEveryProposal: with StepInterval 1 the Figure 5/8 trace
// callback must fire once per proposal on both chain loops — degenerate
// moves (a swap of a slot with itself, an opcode move on an all-UNUSED
// program) and the compiled loop's no-op proposals included.
func TestOnStepFiresEveryProposal(t *testing.T) {
	target := x64.MustParse("movq rdi, rax\naddq rsi, rax")
	for _, interpreted := range []bool{false, true} {
		for _, start := range []*x64.Program{target, x64.NewProgram(1)} {
			s := newSampler(t, target, identitySpec(), cost.Improved, 1, 4, 29)
			s.Interpreted = interpreted
			s.StepInterval = 1
			var steps int64
			s.OnStep = func(Stats, float64) { steps++ }
			res := s.Run(context.Background(), start, 3000)
			if steps != res.Stats.Proposals {
				t.Errorf("interpreted=%v, start %d slots: OnStep fired %d times over %d proposals",
					interpreted, len(start.Insts), steps, res.Stats.Proposals)
			}
		}
	}
}

// TestRunSetBetaAndProposals pins the coordination hooks of a resumable
// Run: Proposals tracks the consumed budget across segments, and SetBeta
// migrates the chain to a new temperature rung that governs acceptance
// from the next proposal on (β=0 accepts everything; a very cold rung
// accepts only improvements).
func TestRunSetBetaAndProposals(t *testing.T) {
	target := x64.MustParse("movq rdi, rax\naddq rsi, rax")
	run := func(rebeta float64) (*Run, Result) {
		s := newSampler(t, target, identitySpec(), cost.Improved, 1, 10, 91)
		s.Params.Beta = 1000 // frozen: nothing but improvements accepted
		r := s.Begin(target, 4000)
		if !r.Step(context.Background(), 2000) {
			t.Fatal("run finished before its budget")
		}
		if got := r.Proposals(); got != 2000 {
			t.Fatalf("Proposals() = %d after a 2000-proposal segment", got)
		}
		if r.Beta() != 1000 {
			t.Fatalf("Beta() = %v before migration", r.Beta())
		}
		r.SetBeta(rebeta)
		if r.Beta() != rebeta {
			t.Fatalf("Beta() = %v after SetBeta(%v)", r.Beta(), rebeta)
		}
		r.Step(context.Background(), 2000)
		if got := r.Proposals(); got != 4000 {
			t.Fatalf("Proposals() = %d after the full budget", got)
		}
		if !r.Finished() {
			t.Fatal("run must report Finished at its budget")
		}
		return r, r.Result()
	}

	_, cold := run(1000) // stays frozen
	_, hot := run(0)     // β=0 from the midpoint: every proposal accepted
	if hot.Stats.Proposals != cold.Stats.Proposals {
		t.Fatalf("budgets diverged: %d vs %d", hot.Stats.Proposals, cold.Stats.Proposals)
	}
	if hot.Stats.Accepts <= cold.Stats.Accepts {
		t.Fatalf("SetBeta(0) did not take effect: %d accepts at β=0 vs %d frozen",
			hot.Stats.Accepts, cold.Stats.Accepts)
	}
}
