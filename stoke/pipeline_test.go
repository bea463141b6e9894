package stoke_test

import (
	"context"
	"testing"

	"repro/internal/kernels"
	"repro/internal/verify"
	"repro/stoke"
)

// TestVerifyPipelineOnTrackedKernels pins the verification pipeline's
// contracts on tracked kernels: optimization-only runs of p01 and p09 end
// SAT-proven Equal whether the engine's counterexample bank is empty (the
// first pass) or holds what the first pass refuted (the second), no run
// produces a symbolic-model/emulator mismatch, and every run records its
// SAT calls in the proof profile. At seed 5 the first pass refines p01
// once, so the second pass replays a non-empty bank.
func TestVerifyPipelineOnTrackedKernels(t *testing.T) {
	e := stoke.NewEngine(stoke.EngineConfig{})
	defer e.Close()
	var refinements, replayKills int
	for _, pass := range []string{"empty bank", "populated bank"} {
		for _, name := range []string{"p01", "p09"} {
			b, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Optimize(context.Background(), b.Kernel,
				stoke.WithSeed(5),
				stoke.WithChains(0, 2),
				stoke.WithBudgets(1, 20000),
				stoke.WithEll(16),
				stoke.WithTests(4))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict != verify.Equal {
				t.Errorf("%s, %s: final verdict %v, want SAT-proven equal", name, pass, rep.Verdict)
			}
			if rep.Proofs.ModelMismatches != 0 {
				t.Errorf("%s, %s: %d symbolic-model/emulator mismatches on a tracked kernel",
					name, pass, rep.Proofs.ModelMismatches)
			}
			if rep.Proofs.SATCalls == 0 {
				t.Errorf("%s, %s: no SAT calls recorded — the proof profile is not being threaded", name, pass)
			}
			if pass == "empty bank" {
				refinements += rep.Refinements
			} else {
				replayKills += rep.Proofs.ReplayKills
			}
			t.Logf("%s, %s: %d SAT calls, %d replay kills, %d gate deferrals, %d refinements",
				name, pass, rep.Proofs.SATCalls, rep.Proofs.ReplayKills,
				rep.Proofs.GateDeferrals, rep.Refinements)
		}
	}
	if refinements == 0 {
		t.Fatal("the first pass refined nothing, so the second pass ran with an empty bank")
	}
	if replayKills == 0 {
		t.Error("the populated bank refuted no candidate by replay")
	}
}
