package stoke_test

import (
	"context"
	"testing"

	"repro/internal/kernels"
	"repro/stoke"
)

// TestEngineCompilesUnderRegisterLiveness pins the engine's cost wiring:
// every chain compiles its candidates against the kernel's live-out set,
// so the register-liveness pass suppresses writes only a non-live exit
// register would have observed. On p01 (live-out: rax) a short search
// must both see register-writing slots and suppress some of them. The
// fraction is the sharper check: compiled with every register live at
// exit, only writes a later write kills are dead (about 3% of them on this
// run), while the live-out set frees about a quarter.
func TestEngineCompilesUnderRegisterLiveness(t *testing.T) {
	b, err := kernels.ByName("p01")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := stoke.Optimize(context.Background(), b.Kernel,
		stoke.WithSeed(5),
		stoke.WithChains(1, 1),
		stoke.WithBudgets(4000, 4000),
		stoke.WithEll(12))
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.RegWritingSlots == 0 {
		t.Fatalf("no register-writing slots across %d proposals", st.Proposals)
	}
	if st.RegFreeSlots == 0 {
		t.Fatalf("register liveness suppressed none of %d register-writing slots", st.RegWritingSlots)
	}
	if f := rep.RegFreeFraction(); f < 0.10 {
		t.Fatalf("reg-free fraction %.3f (%d of %d slots): candidates are not compiled against the kernel's live-out set",
			f, st.RegFreeSlots, st.RegWritingSlots)
	}
}
