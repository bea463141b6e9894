package testgen

import (
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/x64"
)

func specWithArray() Spec {
	return Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := NewArena(0x10000)
			a.AllocStack(256)
			base := a.Alloc(16, func(i int) byte { return byte(i) })
			a.SetReg(x64.RDI, base)
			a.SetReg(x64.RSI, rng.Uint64())
			return a.Snapshot()
		},
		LiveOut: LiveSet{
			GPRs:     []LiveReg{{Reg: x64.RAX, Width: 8}},
			LiveSegs: []int{1},
		},
	}
}

func TestSandboxNarrowedToDerefs(t *testing.T) {
	// Target reads only bytes [0,8) of the 16-byte array: the testcase
	// sandbox must allow exactly those bytes.
	target := x64.MustParse("movq (rdi), rax")
	tests, err := Generate(target, specWithArray(), 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range tests {
		arr := tc.In.Mem[1]
		for i := 0; i < 8; i++ {
			if !arr.Valid.Has(i) {
				t.Fatalf("byte %d should be in the sandbox", i)
			}
		}
		for i := 8; i < 16; i++ {
			if arr.Valid.Has(i) {
				t.Fatalf("byte %d was never dereferenced but is valid", i)
			}
		}
	}
	// And a rewrite touching the rest faults.
	m := emu.New()
	m.LoadSnapshot(tests[0].In)
	out := m.Run(x64.MustParse("movq 8(rdi), rax"))
	if out.SigSegv != 1 {
		t.Fatalf("out-of-sandbox access: %+v", out)
	}
}

func TestLiveMemOnlyFromLiveSegs(t *testing.T) {
	// Target writes the array (live) and the stack (scratch): only the
	// array bytes appear in WantMem.
	target := x64.MustParse(`
  movq rsi, (rdi)
  movq rsi, -8(rsp)
  movq (rdi), rax
`)
	tests, err := Generate(target, specWithArray(), 2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range tests {
		if len(tc.WantMem) != 8 {
			t.Fatalf("WantMem has %d bytes, want 8 (array only)", len(tc.WantMem))
		}
		base := tc.In.Mem[1].Base
		for _, mc := range tc.WantMem {
			if mc.Addr < base || mc.Addr >= base+16 {
				t.Fatalf("live byte %#x outside the live segment", mc.Addr)
			}
		}
	}
}

func TestOutputsRecorded(t *testing.T) {
	target := x64.MustParse("movq rsi, rax\nnotq rax")
	tests, err := Generate(target, specWithArray(), 8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range tests {
		want := ^tc.In.Regs[x64.RSI]
		if tc.WantGPR[0] != want {
			t.Fatalf("WantGPR = %#x, want %#x", tc.WantGPR[0], want)
		}
	}
}

func TestFaultingTargetRejected(t *testing.T) {
	// rsi is a random 64-bit value, not a pointer: dereferencing it faults
	// and Generate must report the bad driver annotation.
	target := x64.MustParse("movq (rsi), rax")
	if _, err := Generate(target, specWithArray(), 2, rand.New(rand.NewSource(4))); err == nil {
		t.Fatal("expected error for a faulting target")
	}
}

func TestArenaLayout(t *testing.T) {
	a := NewArena(0x1000)
	sp := a.AllocStack(256)
	b1 := a.Alloc(100, nil)
	b2 := a.Alloc(10, func(i int) byte { return 0xAA })
	s := a.Snapshot()
	if len(s.Mem) != 3 {
		t.Fatalf("3 segments expected, got %d", len(s.Mem))
	}
	// Segments must not overlap.
	type rng struct{ lo, hi uint64 }
	var rs []rng
	for _, im := range s.Mem {
		rs = append(rs, rng{im.Base, im.Base + uint64(len(im.Data))})
	}
	for i := 0; i < len(rs); i++ {
		for j := i + 1; j < len(rs); j++ {
			if rs[i].lo < rs[j].hi && rs[j].lo < rs[i].hi {
				t.Fatalf("segments %d and %d overlap: %+v %+v", i, j, rs[i], rs[j])
			}
		}
	}
	// Stack pointer sits mid-segment and is 16-aligned.
	if sp%16 != 0 || b1%16 != 0 || b2%16 != 0 {
		t.Fatalf("allocations not 16-aligned: %#x %#x %#x", sp, b1, b2)
	}
	if s.Regs[x64.RSP] != sp {
		t.Fatalf("rsp = %#x, want %#x", s.Regs[x64.RSP], sp)
	}
	// Fill function applied.
	if s.Mem[2].Data[0] != 0xAA {
		t.Fatal("fill not applied")
	}
	// Stack bytes valid but undefined; array bytes defined.
	if s.Mem[0].Def.Has(0) || !s.Mem[0].Valid.Has(0) {
		t.Fatal("stack must be valid but undefined")
	}
	if !s.Mem[1].Def.Has(0) {
		t.Fatal("allocation must be defined")
	}
}

func TestFromInputUsedForCounterexamples(t *testing.T) {
	// FromInput on a specific register state reproduces that state's
	// outputs — the §4.1 counterexample-to-testcase path.
	target := x64.MustParse("leaq 5(rsi), rax")
	spec := specWithArray()
	in := spec.BuildInput(rand.New(rand.NewSource(5)))
	in.Regs[x64.RSI] = 0xfffffffffffffffb // exercises wraparound
	tc, err := FromInput(nil, target, spec, in)
	if err != nil {
		t.Fatal(err)
	}
	if tc.WantGPR[0] != 0 {
		t.Fatalf("WantGPR = %#x, want 0 (wraparound)", tc.WantGPR[0])
	}
}
