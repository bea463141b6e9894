package stoke

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// TestTemperingDeterministic is the coordinator's reproducibility
// contract: a fixed-seed run with tempering, pruning, shared profile and
// mid-search validation enabled must be bit-for-bit identical however the
// worker pool schedules the chain segments. Every coordination decision
// happens at a barrier from seeded state, so pool width must not leak
// into the outcome.
func TestTemperingDeterministic(t *testing.T) {
	opts := []Option{
		WithSeed(17),
		WithChains(3, 3),
		WithBudgets(30000, 30000),
		WithEll(10),
	}
	run := func(workers int) *Report {
		e := NewEngine(EngineConfig{Workers: workers})
		defer e.Close()
		rep, err := e.Optimize(context.Background(), addKernel(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(4)

	if a.Rewrite.String() != b.Rewrite.String() {
		t.Fatalf("same seed, different rewrites:\n%s\nvs\n%s", a.Rewrite, b.Rewrite)
	}
	if a.Swaps != b.Swaps || a.Prunes != b.Prunes {
		t.Fatalf("coordination diverged: swaps %d vs %d, prunes %d vs %d",
			a.Swaps, b.Swaps, a.Prunes, b.Prunes)
	}
	if a.Refinements != b.Refinements || a.Tests != b.Tests {
		t.Fatalf("refinement diverged: %d/%d vs %d/%d testcases",
			a.Refinements, a.Tests, b.Refinements, b.Tests)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Verdict != b.Verdict {
		t.Fatalf("verdicts diverged: %v vs %v", a.Verdict, b.Verdict)
	}
	t.Logf("deterministic across pool widths: %d swaps, %d prunes, %d refinements",
		a.Swaps, a.Prunes, a.Refinements)
}

// TestTemperingSwapsHappen checks the ensemble actually communicates at
// realistic budgets, and that every accepted swap surfaces as an
// EventSwap matching Report.Swaps.
func TestTemperingSwapsHappen(t *testing.T) {
	var swapEvents, pruneEvents int
	rep, err := Optimize(context.Background(), addKernel(),
		WithSeed(2),
		WithChains(4, 4),
		WithBudgets(60000, 60000),
		WithEll(10),
		WithObserver(func(ev Event) {
			switch ev.Kind {
			case EventSwap:
				swapEvents++
				if ev.Partner != ev.Chain+1 {
					t.Errorf("swap partner %d for chain %d: adjacent replicas only",
						ev.Partner, ev.Chain)
				}
			case EventPrune:
				pruneEvents++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swaps == 0 {
		t.Fatal("tempering enabled but no replica exchange was ever accepted")
	}
	if swapEvents != rep.Swaps {
		t.Fatalf("Report.Swaps = %d but %d EventSwap events", rep.Swaps, swapEvents)
	}
	if pruneEvents != rep.Prunes {
		t.Fatalf("Report.Prunes = %d but %d EventPrune events", rep.Prunes, pruneEvents)
	}
}

// TestTemperingDisabledNoSwaps: WithIndependentChains turns replica
// exchange off. (At these budgets no chain stagnates long enough to be
// pruned either.)
func TestTemperingDisabledNoSwaps(t *testing.T) {
	rep, err := Optimize(context.Background(), addKernel(),
		WithSeed(2),
		WithChains(4, 4),
		WithBudgets(20000, 20000),
		WithEll(10),
		WithIndependentChains())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swaps != 0 || rep.Prunes != 0 {
		t.Fatalf("independent chains recorded %d swaps, %d prunes", rep.Swaps, rep.Prunes)
	}
}

// TestCoordinatorCancelNoLeak cancels a temperature-laddered run mid
// flight — landing between, during and after swap barriers across the
// three cancel delays — and checks the coordinator neither deadlocks nor
// leaks goroutines: Optimize returns promptly with a best-so-far report
// and the engine drains to its pre-run goroutine baseline.
func TestCoordinatorCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, delay := range []time.Duration{
		20 * time.Millisecond, 75 * time.Millisecond, 150 * time.Millisecond,
	} {
		e := NewEngine(EngineConfig{Workers: 2})
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		start := time.Now()
		rep, err := e.Optimize(ctx, addKernel(),
			WithSeed(31),
			WithChains(4, 4),
			WithBudgets(200_000_000, 200_000_000),
			WithEll(12))
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("cancelled run took %v — coordinator did not drain", elapsed)
		}
		if !rep.Partial {
			t.Error("cancelled run must set Partial")
		}
		if rep.Rewrite == nil {
			t.Fatal("cancelled run must return a best-so-far rewrite")
		}
		e.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before, %d after\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}

// low32Kernel is a refinement honeypot: the target zeroes rdi's high 32
// bits, but every generated input is small, so the strictly cheaper —
// and wrong — `movq rdi, rax` is testcase-equivalent until the validator
// refutes it with a wide counterexample. Every seed exercises the full
// counterexample loop: refute, fold, broadcast, re-search.
func low32Kernel() Kernel {
	return Kernel{
		Name: "low32",
		Target: x64.MustParse(`
  movq rdi, rax
  shlq 32, rax
  shrq 32, rax
`),
		Spec: testgen.Spec{
			BuildInput: func(rng *rand.Rand) *emu.Snapshot {
				a := testgen.NewArena(0x10000)
				a.AllocStack(256)
				a.SetReg(x64.RDI, rng.Uint64()&0xffff)
				return a.Snapshot()
			},
			LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}},
		},
		Pointers: x64.RegSet(0).With(x64.RSP),
	}
}

// TestRefinementsCountAllFolds pins the Report.Refinements contract: it
// counts every counterexample testcase folded into τ — mid-search
// broadcasts that refined all live chains as well as end-of-round
// validation folds — so it must exactly equal the growth of the testcase
// set over the run, whichever chain's candidate produced each
// counterexample.
func TestRefinementsCountAllFolds(t *testing.T) {
	const initialTests = 4
	refined := 0
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := Optimize(context.Background(), low32Kernel(),
			WithSeed(seed),
			WithChains(2, 3),
			WithBudgets(20000, 30000),
			WithEll(10),
			WithTests(initialTests))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Refinements != rep.Tests-initialTests {
			t.Fatalf("seed %d: Refinements = %d but testcases grew %d -> %d",
				seed, rep.Refinements, initialTests, rep.Tests)
		}
		refined += rep.Refinements
		// The refuted cheap rewrite must not be the final answer.
		if rep.Verdict == verify.NotEqual {
			t.Fatalf("seed %d: unvalidated rewrite survived:\n%s", seed, rep.Rewrite)
		}
	}
	if refined == 0 {
		t.Fatal("the honeypot kernel produced no refinement on any seed")
	}
}
