package emu

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/x64"
)

// snapshotWithRegs builds a snapshot with the given registers defined.
func snapshotWithRegs(vals map[x64.Reg]uint64) *Snapshot {
	s := &Snapshot{}
	for r, v := range vals {
		s.Regs[r] = v
		s.RegDef |= 1 << r
	}
	s.FlagsDef = x64.AllFlags
	return s
}

func run(t *testing.T, src string, s *Snapshot) (*Machine, Outcome) {
	t.Helper()
	p, err := x64.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m := New()
	m.LoadSnapshot(s)
	out := m.Run(p)
	return m, out
}

func TestBasicALU(t *testing.T) {
	m, out := run(t, `
  movq 10, rax
  addq 5, rax
  movq rax, rbx
  subq 20, rbx
  negq rbx
`, snapshotWithRegs(nil))
	if out.SigSegv+out.SigFpe != 0 {
		t.Fatalf("unexpected faults: %+v", out)
	}
	if m.Regs[x64.RAX] != 15 {
		t.Errorf("rax = %d, want 15", m.Regs[x64.RAX])
	}
	if m.Regs[x64.RBX] != 5 {
		t.Errorf("rbx = %d, want 5", m.Regs[x64.RBX])
	}
}

func TestWidth32ZeroExtends(t *testing.T) {
	m, _ := run(t, `
  movq -1, rax
  movl 7, eax
  movq -1, rbx
  mov ebx, ebx
`, snapshotWithRegs(nil))
	if m.Regs[x64.RAX] != 7 {
		t.Errorf("rax = %#x, want 7 (32-bit write zero-extends)", m.Regs[x64.RAX])
	}
	if m.Regs[x64.RBX] != 0xffffffff {
		t.Errorf("rbx = %#x, want 0xffffffff (mov ebx,ebx zeroes upper half)", m.Regs[x64.RBX])
	}
}

func TestWidth8And16Merge(t *testing.T) {
	m, _ := run(t, `
  movq 0x1122334455667788, rax
  movb 0xff, al
  movw 0xaaaa, cx
`, snapshotWithRegs(map[x64.Reg]uint64{x64.RCX: 0x9999999999999999}))
	if m.Regs[x64.RAX] != 0x11223344556677ff {
		t.Errorf("rax = %#x (8-bit write must merge)", m.Regs[x64.RAX])
	}
	if m.Regs[x64.RCX] != 0x999999999999aaaa {
		t.Errorf("rcx = %#x (16-bit write must merge)", m.Regs[x64.RCX])
	}
}

func TestAddFlagsProperty(t *testing.T) {
	// CF and OF of 64-bit addition must match wide arithmetic.
	f := func(a, b uint64) bool {
		m, _ := run(t, "addq rbx, rax",
			snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: a, x64.RBX: b}))
		sum, carry := bits.Add64(a, b, 0)
		wantCF := carry == 1
		wantOF := (a^sum)&(b^sum)>>63 != 0
		wantZF := sum == 0
		wantSF := sum>>63 != 0
		return m.Flags&x64.CF != 0 == wantCF &&
			m.Flags&x64.OF != 0 == wantOF &&
			m.Flags&x64.ZF != 0 == wantZF &&
			m.Flags&x64.SF != 0 == wantSF &&
			m.Regs[x64.RAX] == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubCmpFlagsProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		m, _ := run(t, "cmpq rbx, rax",
			snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: a, x64.RBX: b}))
		diff := a - b
		wantCF := a < b
		wantOF := (a^b)&(a^diff)>>63 != 0
		// cmp must not modify its operands.
		return m.Flags&x64.CF != 0 == wantCF &&
			m.Flags&x64.OF != 0 == wantOF &&
			m.Flags&x64.ZF != 0 == (diff == 0) &&
			m.Regs[x64.RAX] == a && m.Regs[x64.RBX] == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAdcChainProperty(t *testing.T) {
	// 128-bit addition via add/adc must match bits.Add64 carry chains.
	f := func(a0, a1, b0, b1 uint64) bool {
		m, _ := run(t, `
  addq rcx, rax
  adcq rdx, rbx
`, snapshotWithRegs(map[x64.Reg]uint64{
			x64.RAX: a0, x64.RBX: a1, x64.RCX: b0, x64.RDX: b1,
		}))
		lo, c := bits.Add64(a0, b0, 0)
		hi, _ := bits.Add64(a1, b1, c)
		return m.Regs[x64.RAX] == lo && m.Regs[x64.RBX] == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMulWideningProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		m, _ := run(t, "mulq rbx",
			snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: a, x64.RBX: b}))
		hi, lo := bits.Mul64(a, b)
		return m.Regs[x64.RAX] == lo && m.Regs[x64.RDX] == hi &&
			(m.Flags&x64.CF != 0) == (hi != 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestImulSignedProperty(t *testing.T) {
	f := func(a, b int64) bool {
		m, _ := run(t, "imulq rbx, rax",
			snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: uint64(a), x64.RBX: uint64(b)}))
		return m.Regs[x64.RAX] == uint64(a*b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestShifts(t *testing.T) {
	cases := []struct {
		src  string
		init uint64
		want uint64
	}{
		{"shlq 4, rax", 0x1, 0x10},
		{"shrq 4, rax", 0x10, 0x1},
		{"sarq 63, rax", 1 << 63, ^uint64(0)},
		{"sarl 31, eax", 0x80000000, 0xffffffff},
		{"shrl 1, eax", 0x80000000, 0x40000000},
		{"rolq 8, rax", 0xff00000000000000, 0xff},
		{"rorq 8, rax", 0xff, 0xff00000000000000},
		{"shlq 0, rax", 42, 42},
	}
	for _, c := range cases {
		m, _ := run(t, c.src, snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: c.init}))
		if m.Regs[x64.RAX] != c.want {
			t.Errorf("%s on %#x = %#x, want %#x", c.src, c.init, m.Regs[x64.RAX], c.want)
		}
	}
}

func TestShiftByCL(t *testing.T) {
	m, _ := run(t, "shlq cl, rax",
		snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: 3, x64.RCX: 65}))
	// Count is masked to 6 bits: 65 & 63 == 1.
	if m.Regs[x64.RAX] != 6 {
		t.Errorf("rax = %d, want 6 (count masked to 63)", m.Regs[x64.RAX])
	}
}

func TestShiftZeroCountPreservesFlags(t *testing.T) {
	m, _ := run(t, `
  cmpq rax, rax
  shlq 0, rbx
`, snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: 5, x64.RBX: 1}))
	if m.Flags&x64.ZF == 0 {
		t.Fatal("ZF from cmp must survive a zero-count shift")
	}
}

func TestDivideAndFault(t *testing.T) {
	m, out := run(t, "divq rbx",
		snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: 100, x64.RDX: 0, x64.RBX: 7}))
	if out.SigFpe != 0 || m.Regs[x64.RAX] != 14 || m.Regs[x64.RDX] != 2 {
		t.Fatalf("div: rax=%d rdx=%d fpe=%d", m.Regs[x64.RAX], m.Regs[x64.RDX], out.SigFpe)
	}
	_, out = run(t, "divq rbx",
		snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: 100, x64.RDX: 0, x64.RBX: 0}))
	if out.SigFpe != 1 {
		t.Fatalf("divide by zero must count sigfpe, got %+v", out)
	}
	// Quotient overflow: rdx >= divisor.
	_, out = run(t, "divq rbx",
		snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: 0, x64.RDX: 8, x64.RBX: 4}))
	if out.SigFpe != 1 {
		t.Fatalf("divide overflow must count sigfpe, got %+v", out)
	}
}

func TestConditionals(t *testing.T) {
	m, _ := run(t, `
  cmpq rbx, rax
  seta cl
  setb dl
  cmoveq rbx, rsi
`, snapshotWithRegs(map[x64.Reg]uint64{
		x64.RAX: 10, x64.RBX: 20, x64.RCX: 0xffff, x64.RDX: 0xffff, x64.RSI: 7,
	}))
	if m.Regs[x64.RCX]&0xff != 0 {
		t.Errorf("seta: cl = %d, want 0 (10 not above 20)", m.Regs[x64.RCX]&0xff)
	}
	if m.Regs[x64.RDX]&0xff != 1 {
		t.Errorf("setb: dl = %d, want 1", m.Regs[x64.RDX]&0xff)
	}
	if m.Regs[x64.RSI] != 7 {
		t.Errorf("cmove not taken must leave rsi, got %d", m.Regs[x64.RSI])
	}
}

func TestCmov32AlwaysZeroExtends(t *testing.T) {
	// Even when the condition is false, a 32-bit cmov zeroes the upper half.
	m, _ := run(t, `
  cmpq rax, rax
  cmovnel ebx, ecx
`, snapshotWithRegs(map[x64.Reg]uint64{
		x64.RAX: 1, x64.RBX: 5, x64.RCX: 0xaaaaaaaabbbbbbbb,
	}))
	if m.Regs[x64.RCX] != 0xbbbbbbbb {
		t.Errorf("rcx = %#x, want 0xbbbbbbbb", m.Regs[x64.RCX])
	}
}

func TestBitOps(t *testing.T) {
	m, _ := run(t, `
  popcntq rax, rbx
  bsfq rax, rcx
  bsrq rax, rdx
  bswapq rsi
`, snapshotWithRegs(map[x64.Reg]uint64{
		x64.RAX: 0x00f0000000000100, x64.RSI: 0x0102030405060708,
	}))
	if m.Regs[x64.RBX] != 5 {
		t.Errorf("popcnt = %d, want 5", m.Regs[x64.RBX])
	}
	if m.Regs[x64.RCX] != 8 {
		t.Errorf("bsf = %d, want 8", m.Regs[x64.RCX])
	}
	if m.Regs[x64.RDX] != 55 {
		t.Errorf("bsr = %d, want 55", m.Regs[x64.RDX])
	}
	if m.Regs[x64.RSI] != 0x0807060504030201 {
		t.Errorf("bswap = %#x", m.Regs[x64.RSI])
	}
}

func TestMemorySandbox(t *testing.T) {
	s := snapshotWithRegs(map[x64.Reg]uint64{x64.RDI: 0x1000})
	im := NewMemImage(0x1000, 16)
	copy(im.Data, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	im.Def.SetRange(0, 8)
	im.Valid.SetRange(0, 16)
	s.Mem = []MemImage{im}

	m, out := run(t, "movq (rdi), rax", s)
	if out.SigSegv != 0 || m.Regs[x64.RAX] != 0x0807060504030201 {
		t.Fatalf("load: rax=%#x out=%+v", m.Regs[x64.RAX], out)
	}

	// Reading undefined-but-valid bytes counts undef, not segv.
	_, out = run(t, "movq 8(rdi), rax", s)
	if out.Undef != 1 || out.SigSegv != 0 {
		t.Fatalf("undef read: %+v", out)
	}

	// Reading outside the segment faults and reads zero.
	m, out = run(t, "movq 0x100(rdi), rax", s)
	if out.SigSegv != 1 || m.Regs[x64.RAX] != 0 {
		t.Fatalf("oob read: rax=%d out=%+v", m.Regs[x64.RAX], out)
	}

	// A store outside the sandbox is dropped.
	m, out = run(t, "movq rax, 0x100(rdi)", s)
	if out.SigSegv != 1 {
		t.Fatalf("oob store: %+v", out)
	}

	// Stores inside the sandbox land.
	m, out = run(t, `
  movq 0xdeadbeef, rax
  movl eax, 8(rdi)
  movl 8(rdi), ebx
`, s)
	if out.SigSegv != 0 || m.Regs[x64.RBX] != 0xdeadbeef {
		t.Fatalf("store/load: rbx=%#x out=%+v", m.Regs[x64.RBX], out)
	}
}

func TestUndefRegisterRead(t *testing.T) {
	// RBX is never initialised: reading it must count an undef.
	_, out := run(t, "addq rbx, rax",
		snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: 1}))
	if out.Undef != 1 {
		t.Fatalf("undef = %d, want 1", out.Undef)
	}
}

func TestUndefFlagsRead(t *testing.T) {
	s := snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: 1, x64.RBX: 2})
	s.FlagsDef = 0
	_, out := run(t, "cmoveq rbx, rax", s)
	if out.Undef != 1 {
		t.Fatalf("reading undefined flags must count undef, got %+v", out)
	}
}

func TestForwardJump(t *testing.T) {
	m, _ := run(t, `
  movq 1, rax
  jmp .L1
  movq 2, rax
.L1
  movq 3, rbx
`, snapshotWithRegs(nil))
	if m.Regs[x64.RAX] != 1 || m.Regs[x64.RBX] != 3 {
		t.Fatalf("rax=%d rbx=%d", m.Regs[x64.RAX], m.Regs[x64.RBX])
	}
}

func TestPushPop(t *testing.T) {
	s := snapshotWithRegs(map[x64.Reg]uint64{x64.RSP: 0x2040, x64.RAX: 42})
	stack := NewMemImage(0x2000, 64)
	stack.Valid.SetRange(0, 64)
	s.Mem = []MemImage{stack}
	m, out := run(t, `
  pushq rax
  popq rbx
`, s)
	if out.SigSegv != 0 || m.Regs[x64.RBX] != 42 || m.Regs[x64.RSP] != 0x2040 {
		t.Fatalf("push/pop: rbx=%d rsp=%#x out=%+v", m.Regs[x64.RBX], m.Regs[x64.RSP], out)
	}
}

// montSnapshot builds inputs for the Montgomery multiplication kernel:
// rsi=np, ecx=mh, edx=ml, rdi=c0, r8=c1.
func montSnapshot(rng *rand.Rand) *Snapshot {
	return snapshotWithRegs(map[x64.Reg]uint64{
		x64.RSI: rng.Uint64(),
		x64.RCX: uint64(rng.Uint32()),
		x64.RDX: uint64(rng.Uint32()),
		x64.RDI: rng.Uint64(),
		x64.R8:  rng.Uint64(),
	})
}

// montReference computes c1:c0 := np * mh:ml + c1 + c0 in Go.
func montReference(np, mh, ml, c0, c1 uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(np, mh<<32|ml)
	var c uint64
	lo, c = bits.Add64(lo, c0, 0)
	hi, _ = bits.Add64(hi, 0, c)
	lo, c = bits.Add64(lo, c1, 0)
	hi, _ = bits.Add64(hi, 0, c)
	return hi, lo
}

const montGccO3 = `
.set c0 0xffffffff
.set c1 0x100000000
.L0
  movq rsi, r9
  mov ecx, ecx
  shrq 32, rsi
  andl c0, r9d
  movq rcx, rax
  mov edx, edx
  imulq r9, rax
  imulq rdx, r9
  imulq rsi, rdx
  imulq rsi, rcx
  addq rdx, rax
  jae .L2
  movabsq c1, rdx
  addq rdx, rcx
.L2
  movq rax, rsi
  movq rax, rdx
  shrq 32, rsi
  salq 32, rdx
  addq rsi, rcx
  addq r9, rdx
  adcq 0, rcx
  addq r8, rdx
  adcq 0, rcx
  addq rdi, rdx
  adcq 0, rcx
  movq rcx, r8
  movq rdx, rdi
`

const montStoke = `
.L0
  shlq 32, rcx
  mov edx, edx
  xorq rdx, rcx
  movq rcx, rax
  mulq rsi
  addq r8, rdi
  adcq 0, rdx
  addq rdi, rax
  adcq 0, rdx
  movq rdx, r8
  movq rax, rdi
`

// TestMontgomeryEquivalence is the end-to-end fidelity check for the
// emulator: the paper's gcc -O3 sequence and the paper's STOKE rewrite
// (Figure 1) must compute the same function, which must match the reference
// Go semantics.
func TestMontgomeryEquivalence(t *testing.T) {
	gcc := x64.MustParse(montGccO3)
	stoke := x64.MustParse(montStoke)
	rng := rand.New(rand.NewSource(1))
	m := New()
	for i := 0; i < 2000; i++ {
		s := montSnapshot(rng)
		np, mh, ml := s.Regs[x64.RSI], s.Regs[x64.RCX], s.Regs[x64.RDX]
		c0, c1 := s.Regs[x64.RDI], s.Regs[x64.R8]
		wantHi, wantLo := montReference(np, mh, ml, c0, c1)

		m.LoadSnapshot(s)
		out := m.Run(gcc)
		if out.SigSegv+out.SigFpe+out.Undef != 0 {
			t.Fatalf("gcc kernel faulted: %+v", out)
		}
		if m.Regs[x64.R8] != wantHi || m.Regs[x64.RDI] != wantLo {
			t.Fatalf("gcc kernel: got %#x:%#x want %#x:%#x (np=%#x mh=%#x ml=%#x c0=%#x c1=%#x)",
				m.Regs[x64.R8], m.Regs[x64.RDI], wantHi, wantLo, np, mh, ml, c0, c1)
		}

		m.LoadSnapshot(s)
		m.Run(stoke)
		if m.Regs[x64.R8] != wantHi || m.Regs[x64.RDI] != wantLo {
			t.Fatalf("stoke kernel: got %#x:%#x want %#x:%#x",
				m.Regs[x64.R8], m.Regs[x64.RDI], wantHi, wantLo)
		}
	}
}

func TestSSESaxpyRewrite(t *testing.T) {
	// The STOKE SAXPY rewrite from Figure 14: x[i..i+3] = a*x[i..i+3] +
	// y[i..i+3] on 32-bit lanes (pmulld is used here; the paper prints
	// pmullw for its 16-bit testcase values).
	src := `
  movd edi, xmm0
  shufps 0, xmm0, xmm0
  movups (rsi,rcx,4), xmm1
  pmulld xmm1, xmm0
  movups (rdx,rcx,4), xmm1
  paddd xmm1, xmm0
  movups xmm0, (rsi,rcx,4)
`
	p := x64.MustParse(src)
	rng := rand.New(rand.NewSource(2))
	xs := make([]int32, 4)
	ys := make([]int32, 4)
	for i := range xs {
		xs[i] = int32(rng.Uint32())
		ys[i] = int32(rng.Uint32())
	}
	a := int32(rng.Uint32())

	mkImage := func(base uint64, vals []int32) MemImage {
		im := NewMemImage(base, 16)
		for i, v := range vals {
			u := uint32(v)
			for b := 0; b < 4; b++ {
				im.Data[i*4+b] = byte(u >> (8 * b))
				im.Def.Set(i*4 + b)
				im.Valid.Set(i*4 + b)
			}
		}
		return im
	}
	s := snapshotWithRegs(map[x64.Reg]uint64{
		x64.RDI: uint64(uint32(a)),
		x64.RSI: 0x1000,
		x64.RDX: 0x2000,
		x64.RCX: 0,
	})
	s.Mem = []MemImage{mkImage(0x1000, xs), mkImage(0x2000, ys)}

	m := New()
	m.LoadSnapshot(s)
	out := m.Run(p)
	if out.SigSegv+out.SigFpe+out.Undef != 0 {
		t.Fatalf("faults: %+v", out)
	}
	for i := 0; i < 4; i++ {
		want := uint32(a*xs[i] + ys[i])
		var got uint32
		for b := 3; b >= 0; b-- {
			bb, _, _ := m.MemByte(0x1000 + uint64(i*4+b))
			got = got<<8 | uint32(bb)
		}
		if got != want {
			t.Errorf("lane %d: got %#x, want %#x", i, got, want)
		}
	}
}

func TestStepBudget(t *testing.T) {
	p := x64.NewProgram(10)
	for i := range p.Insts {
		p.Insts[i] = x64.MakeInst(x64.ADD, x64.Imm(1, 8), x64.R64(x64.RAX))
	}
	m := New()
	m.MaxSteps = 3
	m.LoadSnapshot(snapshotWithRegs(map[x64.Reg]uint64{x64.RAX: 0}))
	out := m.Run(p)
	if !out.Exhaust || out.Steps != 3 {
		t.Fatalf("out = %+v, want exhausted after 3 steps", out)
	}
}

func TestZeroIdiomsDefineRegisters(t *testing.T) {
	// xor r,r / sub r,r / pxor x,x are dependency-breaking zero idioms:
	// no undef penalty even on completely undefined state.
	s := &Snapshot{} // nothing defined
	m := New()
	for _, src := range []string{
		"xorq rax, rax", "xorl ebx, ebx", "subq rcx, rcx", "pxor xmm3, xmm3",
	} {
		m.LoadSnapshot(s)
		out := m.Run(x64.MustParse(src))
		if out.Undef != 0 {
			t.Errorf("%s counted %d undef reads, want 0", src, out.Undef)
		}
	}
	// But xor with a *different* undefined register still counts.
	m.LoadSnapshot(s)
	if out := m.Run(x64.MustParse("xorq rbx, rax")); out.Undef != 2 {
		t.Errorf("xor rbx, rax counted %d undef reads, want 2", out.Undef)
	}
}

func TestPartialWriteToUndefinedCountsUndef(t *testing.T) {
	s := &Snapshot{FlagsDef: x64.AllFlags}
	m := New()
	// Writing al merges with the undefined upper bits of rax.
	m.LoadSnapshot(s)
	if out := m.Run(x64.MustParse("movb 1, al")); out.Undef != 1 {
		t.Errorf("8-bit write to undefined rax: %d undef, want 1", out.Undef)
	}
	// 32-bit writes zero-extend: fully defined, no penalty.
	m.LoadSnapshot(s)
	if out := m.Run(x64.MustParse("movl 1, eax")); out.Undef != 0 {
		t.Errorf("32-bit write: %d undef, want 0", out.Undef)
	}
}
