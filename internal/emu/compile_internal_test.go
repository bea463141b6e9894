package emu

import (
	"testing"
	"unsafe"
)

// TestMicroOpFitsCacheLine pins the compiled slot to one 64-byte cache
// line: the run loop touches one line per dispatched slot, and patching
// and SaveSlot copy the struct on every proposal.
func TestMicroOpFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(microOp{}); n > 64 {
		t.Fatalf("microOp is %d bytes, want at most 64", n)
	}
}
