package verify_test

// FuzzCexReplayVsVerify pins the soundness contract behind the
// counterexample-bank replay shortcut: a concrete divergence between two
// programs on a runnable machine state (exactly the evidence a replay kill
// rests on) must never coexist with a symbolic Equal verdict. The fuzzer
// decodes arbitrary byte strings into a program plus a patch script
// (testgen.DecodeFuzzCase), treats the decoded program as the target and
// its patched form as the candidate, derives both programs' live outputs
// concretely through testgen.FromInput, and — whenever the outputs differ —
// demands verify.Equivalent refuse Equal. Unknown and Unsupported are fine
// (budget, formula-size or coverage limits); Equal would mean a banked
// counterexample could refute a program the solver proves, i.e. the bank
// and the prover disagree about ground truth.

import (
	"context"
	"testing"

	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

func FuzzCexReplayVsVerify(f *testing.F) {
	for _, s := range testgen.SeedCorpus() {
		f.Add(s.Data)
	}
	live := testgen.LiveSet{GPRs: []testgen.LiveReg{
		{Reg: x64.RAX, Width: 8}, {Reg: x64.RCX, Width: 8},
		{Reg: x64.RDX, Width: 8}, {Reg: x64.RBX, Width: 8},
		{Reg: x64.RSI, Width: 8}, {Reg: x64.RDI, Width: 8},
	}}
	spec := testgen.Spec{LiveOut: live}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := testgen.DecodeFuzzCase(data)
		if len(fc.Edits) == 0 {
			return
		}
		target := fc.Prog
		cand := target.Clone()
		for _, e := range fc.Edits {
			if e.Swap {
				cand.Insts[e.Slot], cand.Insts[e.Other] = cand.Insts[e.Other], cand.Insts[e.Slot]
			} else {
				cand.Insts[e.Slot] = e.With
			}
		}

		// Derive both programs' live outputs on the same concrete state.
		// Either program faulting disqualifies the state as replay
		// evidence (replayCex drops such states for the same reason).
		m := emu.New()
		tcT, err := testgen.FromInput(m, target, spec, fc.Snap.Clone())
		if err != nil {
			return
		}
		tcC, err := testgen.FromInput(m, cand, spec, fc.Snap.Clone())
		if err != nil {
			return
		}
		diverged := false
		for i := range tcT.WantGPR {
			if tcT.WantGPR[i] != tcC.WantGPR[i] {
				diverged = true
				break
			}
		}
		if !diverged {
			return
		}

		vl := verify.LiveOut{GPRs: live.GPRs}
		res := verify.Equivalent(context.Background(), target, cand, vl,
			verify.Config{Budget: 50000})
		if res.Verdict == verify.Equal {
			t.Fatalf("concrete divergence but symbolic Equal (%s)\ntarget:\n%s\ncandidate:\n%s",
				res.Reason, target, cand)
		}
	})
}
