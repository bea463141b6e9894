package mcmc

// Tests for the incremental patching discipline of the compiled evaluation
// pipeline: after any sequence of accepted and rejected moves, the
// patched-in-place compiled form must score exactly like a from-scratch
// Compile of the current program (and like the interpreted reference).

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// TestPatchedCompiledScoresLikeFreshCompile replays the compiled chain
// discipline — propose in place, patch the touched slots, undo and re-patch
// on rejection — and periodically cross-checks the accumulated patches
// against a fresh Compile and the interpreter.
func TestPatchedCompiledScoresLikeFreshCompile(t *testing.T) {
	target := x64.MustParse(`
  movq rdi, rcx
  subq 1, rcx
  andq rdi, rcx
  movq rcx, rax
`)
	spec := identitySpec()
	tests, err := testgen.Generate(target, spec, 32, rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	params := PaperParams
	params.Ell = 16
	s := &Sampler{
		Params: params,
		Pools:  PoolsFor(target, false),
		Cost:   cost.New(tests, spec.LiveOut, cost.Improved, 1),
		Rng:    rand.New(rand.NewSource(52)),
	}

	cur := target.PadTo(params.Ell)
	comp := emu.Compile(cur)
	curCost := s.Cost.EvalCompiled(comp, cost.MaxBudget).Cost

	steps, accepts, rejects := 5000, 0, 0
	for i := 0; i < steps; i++ {
		rec, ok := s.proposeTracked(cur)
		if !ok {
			continue
		}
		for k := 0; k < rec.n; k++ {
			comp.Patch(rec.idx[k])
		}
		bound := curCost - math.Log(s.Rng.Float64())/s.Params.Beta
		res := s.Cost.EvalCompiled(comp, bound)
		if !res.Early && res.Cost <= bound {
			curCost = res.Cost
			accepts++
		} else {
			for k := 0; k < rec.n; k++ {
				cur.Insts[rec.idx[k]] = rec.old[k]
			}
			for k := 0; k < rec.n; k++ {
				comp.Patch(rec.idx[k])
			}
			rejects++
		}

		if i%37 != 0 {
			continue
		}
		// Fresh cost functions on both sides so the adaptive order state of
		// the chain's Fn cannot mask (or fake) a divergence; identical
		// construction means identical (identity) evaluation order, so the
		// scores must match bit for bit.
		fa := cost.New(tests, spec.LiveOut, cost.Improved, 1)
		fb := cost.New(tests, spec.LiveOut, cost.Improved, 1)
		got := fa.EvalCompiled(comp, cost.MaxBudget)
		want := fb.EvalCompiled(emu.Compile(cur), cost.MaxBudget)
		if got != want {
			t.Fatalf("step %d (%d accepts, %d rejects): patched form scores %+v, fresh compile %+v\n%s",
				i, accepts, rejects, got, want, cur)
		}
		if interp := fb.Eval(cur, cost.MaxBudget); got != interp {
			t.Fatalf("step %d: compiled score %+v != interpreted %+v\n%s", i, got, interp, cur)
		}
	}
	if accepts == 0 || rejects == 0 {
		t.Fatalf("move sequence did not exercise both branches: %d accepts, %d rejects", accepts, rejects)
	}
}

// TestCompiledAndInterpretedChainsAgree runs the same seeded chain through
// both evaluation paths and checks they accept the same proposals and land
// on the same best program. (Floating-point summation order can differ once
// the adaptive order diverges from identity, but on this kernel every
// per-testcase cost is integral, so the trajectories must match exactly.)
func TestCompiledAndInterpretedChainsAgree(t *testing.T) {
	target := x64.MustParse("movq rdi, rax\naddq rsi, rax")
	spec := identitySpec()
	run := func(interpreted bool) Result {
		s := newSampler(t, target, spec, cost.Improved, 1.0, 12, 61)
		s.Interpreted = interpreted
		return s.Run(context.Background(), target, 20000)
	}
	ri := run(true)
	rc := run(false)
	if ri.BestCost != rc.BestCost || ri.Best.String() != rc.Best.String() {
		t.Fatalf("paths diverged:\ninterpreted best (%v):\n%s\ncompiled best (%v):\n%s",
			ri.BestCost, ri.Best, rc.BestCost, rc.Best)
	}
	if ri.Stats.Proposals != rc.Stats.Proposals || ri.Stats.Accepts != rc.Stats.Accepts {
		t.Fatalf("stats diverged: interpreted %+v compiled %+v", ri.Stats, rc.Stats)
	}
}
