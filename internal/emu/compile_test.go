package emu_test

// Randomized differential tests pinning the compiled execution path against
// the interpreter. Programs are drawn from the MCMC proposal pools (the
// exact distribution the search evaluates), inputs cover defined and
// undefined registers, flags and memory, valid and invalid sandbox bytes —
// and the two paths must agree on the full observable state: Outcome
// counters, registers, flags, XMM state, definedness and memory contents.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/mcmc"
	"repro/internal/x64"
)

// segBase is where the differential snapshots place their one memory
// segment; pool memory operands are rdi/rsi-relative so programs can reach
// it through the registers randomSnapshot points at it.
const segBase = 0x10000

// randomSnapshot builds an input state with a deliberately messy mix of
// defined/undefined registers and flags and a partially valid, partially
// defined memory segment.
func randomSnapshot(rng *rand.Rand) *emu.Snapshot {
	s := &emu.Snapshot{}
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		s.Regs[r] = rng.Uint64()
		if rng.Intn(4) != 0 {
			s.RegDef |= 1 << r
		}
	}
	for r := 0; r < x64.NumXMM; r++ {
		s.Xmm[r] = [2]uint64{rng.Uint64(), rng.Uint64()}
		if rng.Intn(4) != 0 {
			s.XmmDef |= 1 << r
		}
	}
	s.Flags = x64.FlagSet(rng.Intn(32))
	s.FlagsDef = x64.FlagSet(rng.Intn(32))

	const size = 128
	im := emu.NewMemImage(segBase, size)
	for i := 0; i < size; i++ {
		im.Data[i] = byte(rng.Intn(256))
		if rng.Intn(8) != 0 {
			im.Def.Set(i)
		}
		if rng.Intn(8) != 0 {
			im.Valid.Set(i)
		}
	}
	s.Mem = []emu.MemImage{im}

	// Point the pool's address registers at the segment most of the time
	// (mixing in junk addresses to exercise the sigsegv path).
	for _, r := range []x64.Reg{x64.RDI, x64.RSI} {
		if rng.Intn(4) != 0 {
			s.Regs[r] = segBase + uint64(rng.Intn(size))
			s.RegDef |= 1 << r
		}
	}
	s.Regs[x64.RSP] = segBase + size/2
	s.RegDef |= 1 << x64.RSP
	return s
}

// diffStates fails the test unless the two machines ended in identical
// observable states.
func diffStates(t *testing.T, a, b *emu.Machine, snap *emu.Snapshot, what string) {
	t.Helper()
	diffLiveStates(t, a, b, snap, allLive, allLive, what)
}

// allLive marks all 16 GPRs (or XMMs) live.
const allLive = 0xffff

// diffLiveStates is diffStates restricted to the GPRs and XMMs named in
// liveG/liveX, the state a CompileLive form promises to preserve; flags
// and memory are always compared in full.
func diffLiveStates(t *testing.T, a, b *emu.Machine, snap *emu.Snapshot, liveG, liveX uint16, what string) {
	t.Helper()
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if liveG>>r&1 != 0 && (a.Regs[r] != b.Regs[r] || a.RegDef>>r&1 != b.RegDef>>r&1) {
			t.Errorf("%s: %v diverged: interp %#x def=%d compiled %#x def=%d",
				what, r, a.Regs[r], a.RegDef>>r&1, b.Regs[r], b.RegDef>>r&1)
		}
	}
	for r := 0; r < x64.NumXMM; r++ {
		if liveX>>r&1 != 0 && (a.Xmm[r] != b.Xmm[r] || a.XmmDef>>r&1 != b.XmmDef>>r&1) {
			t.Errorf("%s: xmm%d diverged: interp %#x def=%d compiled %#x def=%d",
				what, r, a.Xmm[r], a.XmmDef>>r&1, b.Xmm[r], b.XmmDef>>r&1)
		}
	}
	if a.Flags != b.Flags || a.FlagsDef != b.FlagsDef {
		t.Errorf("%s: flag state diverged: interp %v/%v compiled %v/%v",
			what, a.Flags, a.FlagsDef, b.Flags, b.FlagsDef)
	}
	for _, im := range snap.Mem {
		for i := range im.Data {
			addr := im.Base + uint64(i)
			ab, ad, aok := a.MemByte(addr)
			bb, bd, bok := b.MemByte(addr)
			if ab != bb || ad != bd || aok != bok {
				t.Errorf("%s: memory diverged at %#x: interp (%#x,%v,%v) compiled (%#x,%v,%v)",
					what, addr, ab, ad, aok, bb, bd, bok)
				return
			}
		}
	}
}

// runBoth executes p on snap through both paths and cross-checks them.
func runBoth(t *testing.T, mi, mc *emu.Machine, p *x64.Program, c *emu.Compiled, snap *emu.Snapshot, what string) {
	t.Helper()
	runBothLive(t, mi, mc, p, c, snap, allLive, allLive, what)
}

// runBothLive is runBoth for a form compiled with CompileLive(p, liveG,
// liveX): only the live registers' final state is compared.
func runBothLive(t *testing.T, mi, mc *emu.Machine, p *x64.Program, c *emu.Compiled, snap *emu.Snapshot, liveG, liveX uint16, what string) {
	t.Helper()
	mi.LoadSnapshot(snap)
	oi := mi.Run(p)
	mc.LoadSnapshotCached(snap)
	oc := mc.RunCompiled(c)
	if oi != oc {
		t.Errorf("%s: outcomes diverged: interp %+v compiled %+v\n%s", what, oi, oc, p)
	}
	diffLiveStates(t, mi, mc, snap, liveG, liveX, what)
}

// sameSelection fails the test unless the patched form's per-slot
// liveness selection — dispatch code, nf and nr — equals a fresh
// compile's: selection is a pure function of the program, never of the
// patch history.
func sameSelection(t *testing.T, patched, fresh *emu.Compiled, what string) {
	t.Helper()
	ps, fs := patched.SlotSelections(), fresh.SlotSelections()
	for s := range ps {
		if ps[s] != fs[s] {
			t.Fatalf("%s: slot %d selection %+v patched vs %+v fresh\n%s",
				what, s, ps[s], fs[s], patched.Program())
		}
	}
}

// TestCompiledMatchesInterpreterRandom is the main differential test: ≥10k
// random program/testcase pairs drawn from the proposal pools.
func TestCompiledMatchesInterpreterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// A target with memory shapes and SSE so the pools propose every
	// operand class the search can generate.
	target := x64.MustParse(`
  movl (rdi), eax
  movq 8(rsi), rcx
  movb cl, 1(rdi)
  addl 7, eax
`)
	s := &mcmc.Sampler{
		Params: mcmc.PaperParams,
		Pools:  mcmc.PoolsFor(target, true),
		Rng:    rng,
	}
	s.Params.Ell = 12

	programs, perProgram := 1000, 12
	if testing.Short() {
		programs = 100
	}
	mi, mc := emu.New(), emu.New()
	for pi := 0; pi < programs; pi++ {
		p := s.RandomProgram()
		c := emu.Compile(p)
		for ti := 0; ti < perProgram; ti++ {
			snap := randomSnapshot(rng)
			runBoth(t, mi, mc, p, c, snap, "random program")
			if t.Failed() {
				t.Fatalf("diverging program:\n%s", p)
			}
		}
	}
}

// TestCompiledMatchesInterpreterControlFlow covers the pre-linked jump,
// label and ret paths the proposal pools never generate.
func TestCompiledMatchesInterpreterControlFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	progs := []string{
		// Forward conditional jump over an instruction.
		"cmpq rsi, rdi\njae .L0\nmovq rsi, rax\n.L0:\nmovq rdi, rax",
		// Unconditional jump and dead code.
		"movq 1, rax\njmp .L1\nmovq 2, rax\n.L1:\naddq rdi, rax",
		// Early ret.
		"movq rdi, rax\nretq\nmovq 0, rax",
		// Nested labels and a not-taken branch falling through them.
		"testq rdi, rdi\nje .L0\naddq 1, rax\n.L0:\nsubq 1, rax\njmp .L2\n.L1:\nnegq rax\n.L2:\nnotq rax",
	}
	mi, mc := emu.New(), emu.New()
	for _, src := range progs {
		p := x64.MustParse(src)
		c := emu.Compile(p)
		for i := 0; i < 200; i++ {
			snap := randomSnapshot(rng)
			runBoth(t, mi, mc, p, c, snap, src)
		}
	}
	// A jump to a missing label must fall off the end on both paths.
	bad := x64.NewProgram(3)
	bad.Insts[0] = x64.MakeInst(x64.MOV, x64.Imm(1, 8), x64.R64(x64.RAX))
	bad.Insts[1] = x64.MakeInst(x64.JMP, x64.LabelRef(9))
	bad.Insts[2] = x64.MakeInst(x64.MOV, x64.Imm(2, 8), x64.R64(x64.RAX))
	c := emu.Compile(bad)
	for i := 0; i < 50; i++ {
		snap := randomSnapshot(rng)
		runBoth(t, mi, mc, bad, c, snap, "missing label")
	}
}

// TestCompiledIdioms pins the dependency-breaking zero idioms and narrow
// merge semantics, where undef accounting is easiest to get wrong.
func TestCompiledIdioms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	progs := []string{
		"xorq rax, rax",
		"subq rcx, rcx",
		"xorl ebx, ebx\naddb 1, bl",
		"movb dil, al\nmovw si, cx",
		"incb al\ndecw cx\nnegb dl\nnotw si",
		"cmpq rdi, rsi\ncmovaq rdi, rax\nsetb cl",
	}
	mi, mc := emu.New(), emu.New()
	for _, src := range progs {
		p := x64.MustParse(src)
		c := emu.Compile(p)
		for i := 0; i < 500; i++ {
			snap := randomSnapshot(rng)
			runBoth(t, mi, mc, p, c, snap, src)
		}
	}
}

// TestCompiledDoubleShifts pins the specialised SHLD/SHRD micro-ops
// against the interpreter across every width, source/destination pairing
// (including src == dst) and count — zero counts, in-range counts, and
// counts at and beyond the operand width, where the hardware count mask
// and the flag semantics are easiest to get wrong.
func TestCompiledDoubleShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	regs := []x64.Reg{x64.RAX, x64.RCX, x64.RSI}
	for _, op := range []x64.Opcode{x64.SHLD, x64.SHRD} {
		for _, w := range []uint8{2, 4, 8} {
			for count := int64(0); count <= 70; count += 3 {
				for _, src := range regs {
					for _, dst := range regs {
						in := x64.MakeInst(op,
							x64.Imm(count, w), x64.R(src, w), x64.R(dst, w))
						if err := in.Validate(); err != nil {
							t.Fatalf("%v: %v", in, err)
						}
						p := x64.NewProgram(3)
						p.Insts[1] = in
						c := emu.Compile(p)
						mi, mc := emu.New(), emu.New()
						for i := 0; i < 25; i++ {
							snap := randomSnapshot(rng)
							runBoth(t, mi, mc, p, c, snap, in.String())
							if t.Failed() {
								t.FailNow()
							}
						}
					}
				}
			}
		}
	}
}

// TestCompiledPatchMatchesFreshCompile mutates single slots and checks a
// patched compiled form against a from-scratch Compile of the same program.
func TestCompiledPatchMatchesFreshCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	target := x64.MustParse("movl (rdi), eax\naddl 3, eax\nmovl eax, (rdi)")
	s := &mcmc.Sampler{
		Params: mcmc.PaperParams,
		Pools:  mcmc.PoolsFor(target, true),
		Rng:    rng,
	}
	s.Params.Ell = 10
	p := s.RandomProgram()
	c := emu.Compile(p)
	mi, mc := emu.New(), emu.New()
	for step := 0; step < 3000; step++ {
		i := rng.Intn(len(p.Insts))
		switch rng.Intn(3) {
		case 0:
			p.Insts[i] = x64.Unused()
		case 1:
			if in, ok := s.RandomInst(); ok {
				p.Insts[i] = in
			}
		case 2:
			j := rng.Intn(len(p.Insts))
			p.Insts[i], p.Insts[j] = p.Insts[j], p.Insts[i]
			c.Patch(j)
		}
		c.Patch(i)
		if step%20 != 0 {
			continue
		}
		fresh := emu.Compile(p)
		snap := randomSnapshot(rng)
		mi.LoadSnapshot(snap)
		oi := mi.RunCompiled(fresh)
		mc.LoadSnapshotCached(snap)
		oc := mc.RunCompiled(c)
		if oi != oc {
			t.Fatalf("step %d: patched form diverged from fresh compile: %+v vs %+v\n%s",
				step, oi, oc, p)
		}
		diffStates(t, mi, mc, snap, "patched vs fresh")
		// Also cross-check against the interpreter.
		runBoth(t, mi, mc, p, c, snap, "patched vs interpreter")
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestLoadSnapshotCachedIsExact: a cached reload after a memory-writing run
// must behave exactly like a full reload.
func TestLoadSnapshotCachedIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := x64.MustParse("movl (rdi), eax\naddl 1, eax\nmovl eax, (rdi)")
	c := emu.Compile(p)
	snap := randomSnapshot(rng)
	cached, full := emu.New(), emu.New()
	for i := 0; i < 10; i++ {
		cached.LoadSnapshotCached(snap)
		oc := cached.RunCompiled(c)
		full.LoadSnapshot(snap)
		of := full.RunCompiled(c)
		if oc != of {
			t.Fatalf("iteration %d: cached reload diverged: %+v vs %+v", i, oc, of)
		}
		diffStates(t, full, cached, snap, "cached reload")
	}
}

// TestExecutionNeverWritesSnapshotPlanes pins the aliasing contract of
// LoadSnapshot: a machine copies a segment's bytes and Def words but
// shares the image's Valid plane and restores from its Def plane, so no
// execution may write either. Full-width stores, narrow merge stores, a
// read-modify-write of undefined bytes, a vector store and faulting
// accesses run through both engines; the image must come out
// byte-identical, and a cached reload must restore the bytes and their
// definedness the stores changed.
func TestExecutionNeverWritesSnapshotPlanes(t *testing.T) {
	const size = 128
	im := emu.NewMemImage(segBase, size)
	for i := range im.Data {
		im.Data[i] = byte(i * 7)
	}
	im.Def.SetRange(0, 64)
	im.Valid.SetRange(0, 96) // [96,128) lies outside the sandbox
	snap := &emu.Snapshot{RegDef: 1<<x64.RAX | 1<<x64.RDI, XmmDef: 1, FlagsDef: x64.AllFlags}
	snap.Regs[x64.RAX] = 0x1122334455667788
	snap.Regs[x64.RDI] = segBase
	snap.Xmm[0] = [2]uint64{^uint64(0), 0x0123456789abcdef}
	snap.Mem = []emu.MemImage{im}
	pristine := snap.Clone()

	p := x64.MustParse(`
  movq rax, (rdi)
  movq rax, 64(rdi)
  movb al, 72(rdi)
  movw ax, 80(rdi)
  addb 1, 88(rdi)
  movups xmm0, 32(rdi)
  movl eax, 100(rdi)
  movq 0x5000(rdi), rcx
`)
	c := emu.Compile(p)
	engines := map[string]func(*emu.Machine) emu.Outcome{
		"interpreted": func(m *emu.Machine) emu.Outcome { return m.Run(p) },
		"compiled":    func(m *emu.Machine) emu.Outcome { return m.RunCompiled(c) },
	}
	for name, run := range engines {
		m := emu.New()
		m.LoadSnapshot(snap)
		for round := 0; round < 2; round++ {
			if out := run(m); out.SigSegv != 2 || out.Undef == 0 {
				t.Fatalf("%s round %d: want two faults and an undefined read: %+v", name, round, out)
			}
			if _, def, _ := m.MemByte(segBase + 64); !def {
				t.Fatalf("%s round %d: store left byte 64 undefined", name, round)
			}
			if !reflect.DeepEqual(snap.Mem, pristine.Mem) {
				t.Fatalf("%s round %d: execution wrote the snapshot's image", name, round)
			}
			m.LoadSnapshotCached(snap)
			for i := range im.Data {
				b, def, ok := m.MemByte(segBase + uint64(i))
				if !ok || b != im.Data[i] || def != im.Def.Has(i) {
					t.Fatalf("%s round %d: byte %d reloads as (%#x, def %v), image holds (%#x, def %v)",
						name, round, i, b, def, im.Data[i], im.Def.Has(i))
				}
			}
		}
	}
}
