package stoke

// Edge cases of the β-ladder and coordinator configuration surface that the
// coordinator suite leaves uncovered: ladders for any chain count,
// single-chain pools (no swap partner), and shared-profile reuse across
// sequential Optimize calls on one engine.

import (
	"context"
	"testing"

	"repro/internal/search"
)

// TestBetaLadderShorterThanChains pins the ladder resolution rules: the
// default geometric ladder covers any chain count, including one replica
// (no hot tail to build), and independent chains get a flat ladder at the
// phase temperature.
func TestBetaLadderShorterThanChains(t *testing.T) {
	st := defaultSettings()
	for _, n := range []int{1, 2, 3, 7} {
		l := st.betaLadder(1.0, n)
		if len(l) != n {
			t.Fatalf("default ladder for %d chains has %d rungs", n, len(l))
		}
		if len(search.Ladder(1.0, n, search.DefaultLadderSpan)) != n {
			t.Fatalf("search.Ladder under-covers %d chains", n)
		}
	}

	st.independent = true
	for i, b := range st.betaLadder(4.0, 3) {
		if b != 4.0 {
			t.Fatalf("independent ladder rung %d = %v, want flat 4.0", i, b)
		}
	}
}

// TestSingleChainPoolCompletes runs the full pipeline with one chain per
// phase and tempering left on: the coordinator has at most a target-plus-
// synthesized pair to ladder, often a single replica with no swap partner,
// and must neither stall nor lose determinism.
func TestSingleChainPoolCompletes(t *testing.T) {
	run := func() *Report {
		rep, err := Optimize(context.Background(), addKernel(),
			WithSeed(5),
			WithChains(1, 1),
			WithBudgets(8000, 10000),
			WithEll(10))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Rewrite.String() != b.Rewrite.String() || a.Swaps != b.Swaps || a.Stats != b.Stats {
		t.Fatalf("single-chain run not deterministic:\n%s (%d swaps)\nvs\n%s (%d swaps)",
			a.Rewrite, a.Swaps, b.Rewrite, b.Swaps)
	}
}

// TestSharedProfileSequentialOptimize reuses one engine for consecutive
// Optimize calls with the shared rejection profile enabled: each run must
// build its own profile (no cross-run leakage), so a repeat with the same
// seed is bit-identical to the first, and independent chains (no profile)
// on the same engine still return a rewrite.
func TestSharedProfileSequentialOptimize(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2})
	defer e.Close()
	opts := []Option{
		WithSeed(7),
		WithChains(2, 2),
		WithBudgets(10000, 12000),
		WithEll(10),
	}
	first, err := e.Optimize(context.Background(), addKernel(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Optimize(context.Background(), addKernel(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if first.Rewrite.String() != second.Rewrite.String() || first.Stats != second.Stats {
		t.Fatalf("sequential Optimize with a shared profile diverged:\n%s\nvs\n%s",
			first.Rewrite, second.Rewrite)
	}

	// Independent chains build no profile; the run must still complete on
	// the engine the profiled runs used.
	off, err := e.Optimize(context.Background(), addKernel(),
		WithSeed(7),
		WithChains(2, 2),
		WithBudgets(10000, 12000),
		WithEll(10),
		WithIndependentChains())
	if err != nil {
		t.Fatal(err)
	}
	if off.Rewrite == nil {
		t.Fatal("profile-off run returned no rewrite")
	}
}
