package emu

import (
	"testing"
	"unsafe"

	"repro/internal/x64"
)

// TestMicroOpFitsCacheLine pins the compiled slot to one 64-byte cache
// line: the run loop touches one line per dispatched slot, and patching
// and SaveSlot copy the struct on every proposal.
func TestMicroOpFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(microOp{}); n > 64 {
		t.Fatalf("microOp is %d bytes, want at most 64", n)
	}
}

// TestVariantKindMapsInvert pins the invariant applyLiveness rests on:
// baseKindOf must invert liveKind for every dispatch code and every live
// set, so a slot flipping between dead and live always round-trips through
// its full-flag base code. Adding an arm to liveKind without the matching
// baseKindOf arm (or vice versa) fails here, not as a silent stale-variant
// selection after a Patch.
func TestVariantKindMapsInvert(t *testing.T) {
	liveSets := []x64.FlagSet{0, x64.ZF, x64.SF | x64.ZF | x64.PF, x64.CF, x64.AllFlags}
	for k := microKind(0); k < mkNumKinds; k++ {
		base := baseKindOf(k)
		if baseKindOf(base) != base {
			t.Errorf("kind %d: baseKindOf is not idempotent (%d -> %d)", k, base, baseKindOf(base))
		}
		for _, live := range liveSets {
			v := liveKind(base, live)
			if got := baseKindOf(v); got != base {
				t.Errorf("kind %d live %v: liveKind(%d) = %d, but baseKindOf maps it to %d",
					k, live, base, v, got)
			}
			// Variants must never chain: selecting from a selected kind
			// (as applyLiveness does on re-patched slots) is stable.
			if liveKind(baseKindOf(v), live) != v {
				t.Errorf("kind %d live %v: selection does not round-trip (%d)", k, live, v)
			}
		}
	}
}
