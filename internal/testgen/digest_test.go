package testgen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/testgen"
)

// digestTestcases hashes every observable of a testcase set: registers,
// XMM registers and flags with their definedness masks; each segment's
// base, bytes and per-byte def and valid bits; and every expected output.
// It reads the planes byte by byte, so the digest does not depend on how
// a MemImage stores them.
func digestTestcases(tcs []testgen.Testcase) string {
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(uint64(len(tcs)))
	for _, tc := range tcs {
		s := tc.In
		for _, r := range s.Regs {
			u64(r)
		}
		u64(uint64(s.RegDef))
		for _, x := range s.Xmm {
			u64(x[0])
			u64(x[1])
		}
		u64(uint64(s.XmmDef))
		u64(uint64(s.Flags))
		u64(uint64(s.FlagsDef))
		u64(uint64(len(s.Mem)))
		for _, im := range s.Mem {
			u64(im.Base)
			u64(uint64(len(im.Data)))
			h.Write(im.Data)
			bits := make([]byte, len(im.Data))
			for i := range bits {
				if im.Def.Has(i) {
					bits[i] |= 1
				}
				if im.Valid.Has(i) {
					bits[i] |= 2
				}
			}
			h.Write(bits)
		}
		u64(uint64(len(tc.WantGPR)))
		for _, v := range tc.WantGPR {
			u64(v)
		}
		u64(uint64(len(tc.WantXmm)))
		for _, x := range tc.WantXmm {
			u64(x[0])
			u64(x[1])
		}
		u64(uint64(tc.WantFlags))
		u64(uint64(len(tc.WantMem)))
		for _, mc := range tc.WantMem {
			u64(mc.Addr)
			u64(uint64(mc.Want))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigestPinned pins the fixed-seed testcases (32 per kernel,
// seed 1) to digests recorded when images still stored their planes as one
// bool per byte: any change to an input, its sandbox or an expected output
// fails it. p01 is the served-hit benchmark kernel, saxpy has array
// segments, and list builds its four segments by hand.
func TestGenerateDigestPinned(t *testing.T) {
	for name, want := range map[string]string{
		"p01":   "adfca801ddf13f94d19349963a67c1f0d523ec50a0bef2f6ba2458cf3f55e9da",
		"saxpy": "589b4b8f102fad4d255365c0dbce18c16d4eecc4fe611f57197d63d6e9394e3a",
		"list":  "a59eeafbcaca6c958df0299cb2110230271c7c7f3d7c7437706a187dca8dcecb",
	} {
		b, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tcs, err := testgen.Generate(b.Target, b.Spec, 32, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if got := digestTestcases(tcs); got != want {
			t.Errorf("%s: testcase digest %s, want %s", name, got, want)
		}
	}
}
