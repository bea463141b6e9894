package emu_test

// Tests pinning the lowering's coverage: dispatch-counter tests proving the
// tracked vector and Montgomery kernels, and random candidates from every
// tracked kernel's proposal pools, never reach the generic interpreting
// fallback, plus directed differential sweeps over every memory-operand
// signature, the divide family's #DE edges and every SSE opcode's operand
// shapes. The randomized
// and fuzz-grade differential suites (compile_test.go, fuzz_test.go) cover
// the same handlers from the proposal distribution's angle.

import (
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/mcmc"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// TestNoFallbackOnTrackedKernels asserts that no instruction of the saxpy
// and Montgomery kernels — targets, production-compiler comparators and the
// paper's rewrites — lowers to (or dynamically reaches) the generic
// fallback, so the decode-once pipeline serves those workloads entirely
// through specialised micro-ops.
func TestNoFallbackOnTrackedKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, name := range []string{"saxpy", "mont"} {
		bench, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tests, err := testgen.Generate(bench.Target, bench.Spec, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		progs := map[string]*x64.Program{
			"target": bench.Target,
			"gcc-O3": bench.GccO3,
			"icc-O3": bench.IccO3,
			"stoke":  bench.PaperRewrite,
		}
		m := emu.New()
		for label, p := range progs {
			if p == nil {
				continue
			}
			c := emu.Compile(p)
			if slots := c.FallbackSlots(); len(slots) != 0 {
				t.Errorf("%s/%s: slots %v lowered to the generic fallback:\n%s",
					name, label, slots, p)
			}
			for i := range tests {
				m.LoadSnapshotCached(tests[i].In)
				m.RunCompiled(c)
			}
		}
		if n := m.GenericDispatches(); n != 0 {
			t.Errorf("%s: %d generic dispatches while running the kernel programs", name, n)
		}
	}

	// Positive control: a shape with no specialised handler must still
	// route through the fallback and count. Every shape in the opcode
	// signature table has one, so the control is an exchange with memory —
	// real x86, modelled by the interpreter, but outside the signatures
	// the parser and the proposal distribution produce.
	p := x64.NewProgram(1)
	p.Insts[0] = x64.MakeInst(x64.XCHG, x64.R(x64.RSI, 8), x64.Mem(x64.RDI, 0, 8))
	c := emu.Compile(p)
	if slots := c.FallbackSlots(); len(slots) != 1 {
		t.Fatalf("control program fallback slots = %v, want exactly one", slots)
	}
	m := emu.New()
	m.LoadSnapshot(randomSnapshot(rand.New(rand.NewSource(3))))
	m.RunCompiled(c)
	if m.GenericDispatches() != 1 {
		t.Fatalf("control program generic dispatches = %d, want 1", m.GenericDispatches())
	}
}

// TestNoFallbackOnProposalPools asserts that random ℓ=24 candidates drawn
// from every tracked kernel's proposal pools — the memory-operand shapes
// harvested from each target included — lower entirely onto specialised
// micro-ops, never dispatch the generic fallback when run on the kernel's
// testcases, and agree with the interpreter on every one of them.
func TestNoFallbackOnProposalPools(t *testing.T) {
	programs := 24
	if testing.Short() {
		programs = 6
	}
	mi, mc := emu.New(), emu.New()
	for _, bench := range kernels.All() {
		rng := rand.New(rand.NewSource(41))
		tests, err := testgen.Generate(bench.Target, bench.Spec, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		params := mcmc.PaperParams
		params.Ell = 24
		s := &mcmc.Sampler{Params: params, Pools: mcmc.PoolsFor(bench.Target, bench.SSE), Rng: rng}
		mems := 0
		for i := 0; i < programs; i++ {
			p := s.RandomProgram()
			for _, in := range p.Insts {
				for k := uint8(0); k < in.N; k++ {
					if in.Opd[k].Kind == x64.KindMem && in.Op != x64.LEA {
						mems++
					}
				}
			}
			c := emu.Compile(p)
			if slots := c.FallbackSlots(); len(slots) != 0 {
				t.Fatalf("%s: slots %v lowered to the generic fallback:\n%s", bench.Name, slots, p)
			}
			for j := range tests {
				runBoth(t, mi, mc, p, c, tests[j].In, bench.Name)
			}
			if t.Failed() {
				t.Fatalf("%s: diverging program:\n%s", bench.Name, p)
			}
		}
		if mems == 0 && len(s.Pools.Mems) != 0 {
			t.Errorf("%s: no memory operands drawn from a pool with %d shapes", bench.Name, len(s.Pools.Mems))
		}
	}
	if n := mc.GenericDispatches(); n != 0 {
		t.Fatalf("%d generic dispatches running pool programs", n)
	}
}

// memShapeInsts builds, for every proposable opcode signature with a
// memory operand, one instruction per register/immediate choice below:
// memory operands off rdi and rsi (the registers randomSnapshot points into
// its segment, or leaves undefined or unmapped), CL shift counts, and
// immediates including the zero shift count.
func memShapeInsts() []x64.Inst {
	var out []x64.Inst
	for op := x64.Opcode(0); op < x64.NumOpcodes; op++ {
		info := x64.Info(op)
		if !info.Proposable {
			continue
		}
		for _, sig := range info.Sigs {
			hasMem := false
			for k := uint8(0); k < sig.N; k++ {
				switch sig.Slot[k] {
				case x64.TokM8, x64.TokM16, x64.TokM32, x64.TokM64, x64.TokM128:
					hasMem = true
				}
			}
			if !hasMem || op == x64.LEA {
				continue
			}
			for variant := 0; variant < 3; variant++ {
				ctx := uint8(8)
				for k := uint8(0); k < sig.N; k++ {
					if w := x64.TokWidth(sig.Slot[k]); w != 0 && w != 16 {
						ctx = w
					}
				}
				var opds []x64.Operand
				for k := uint8(0); k < sig.N; k++ {
					tok := sig.Slot[k]
					w := x64.TokWidth(tok)
					switch tok {
					case x64.TokM8, x64.TokM16, x64.TokM32, x64.TokM64, x64.TokM128:
						base := []x64.Reg{x64.RDI, x64.RSI, x64.RDI}[variant]
						opds = append(opds, x64.Mem(base, int32(8*variant-4), w))
					case x64.TokR8, x64.TokR16, x64.TokR32, x64.TokR64:
						r := []x64.Reg{x64.RAX, x64.RDI, x64.R11}[variant]
						if k == 0 && sig.N == 2 && x64.IsShift(op) {
							r = x64.RCX // shift counts live in CL
						}
						opds = append(opds, x64.R(r, w))
					case x64.TokX:
						opds = append(opds, x64.X(x64.Reg(variant)))
					case x64.TokI:
						opds = append(opds, x64.Imm([]int64{0, 1, -7}[variant], ctx))
					}
				}
				in := x64.MakeInst(op, opds...)
				if info.HasCC {
					in.CC = x64.Cond(1 + variant*5%(int(x64.NumConds)-1))
				}
				out = append(out, in)
			}
		}
	}
	return out
}

// TestCompiledMemoryOperandShapes sweeps every memory-operand signature of
// every proposable opcode — read-modify-write destinations, memory
// sources, compares and SETcc — at every width, alone and behind a flag
// producer, against the interpreter over messy random states (undefined
// and unmapped address registers, invalid and undefined bytes, undefined
// carry), and demands each lowers to a specialised handler.
func TestCompiledMemoryOperandShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	mi, mc := emu.New(), emu.New()
	insts := memShapeInsts()
	if len(insts) < 100 {
		t.Fatalf("only %d memory-operand shapes enumerated", len(insts))
	}
	cmp := x64.MakeInst(x64.CMP, x64.R(x64.RSI, 8), x64.R(x64.RDX, 8))
	for _, in := range insts {
		if err := in.Validate(); err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		for _, p := range []*x64.Program{{Insts: []x64.Inst{in}}, {Insts: []x64.Inst{cmp, in}}} {
			c := emu.Compile(p)
			if slots := c.FallbackSlots(); len(slots) != 0 {
				t.Fatalf("%v lowered to the generic fallback", in)
			}
			for i := 0; i < 40; i++ {
				runBoth(t, mi, mc, p, c, randomSnapshot(rng), in.String())
			}
			if t.Failed() {
				t.Fatalf("diverging program:\n%s", p)
			}
		}
	}
	if n := mc.GenericDispatches(); n != 0 {
		t.Fatalf("%d generic dispatches", n)
	}
}

// divSnapshot builds a snapshot with the divide family's operand registers
// pinned to the given values (all defined), on top of the usual messy state.
func divSnapshot(rng *rand.Rand, rax, rdx, rsi uint64) *emu.Snapshot {
	s := randomSnapshot(rng)
	s.Regs[x64.RAX], s.Regs[x64.RDX], s.Regs[x64.RSI] = rax, rdx, rsi
	s.RegDef |= 1<<x64.RAX | 1<<x64.RDX | 1<<x64.RSI
	return s
}

// TestCompiledDivideFamily sweeps div/idiv at both widths and both source
// shapes across the #DE edges — zero divisors, 64-bit quotient overflow
// (hi >= divisor), INT_MIN/-1, sign-extension mismatches — plus random
// states, and demands bit-identical outcomes from both execution paths.
func TestCompiledDivideFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	progs := []string{
		"divq rsi", "idivq rsi", "divl esi", "idivl esi",
		"divq (rdi)", "idivq (rdi)", "divl 4(rdi)", "idivl 4(rdi)",
		// Dirty RAX/RDX first, so faults restore state both paths agree on.
		"movq rdi, rax\nmovq 0, rdx\ndivq rsi",
		"movl esi, eax\nmovl 1, edx\nidivl ecx",
	}
	edges := []struct{ rax, rdx, rsi uint64 }{
		{10, 0, 0},                           // divide by zero
		{10, 0, 3},                           // plain quotient
		{10, 7, 3},                           // 64-bit overflow: hi >= d
		{1 << 63, ^uint64(0), ^uint64(0)},    // idivq INT_MIN / -1
		{0x80000000, 0xffffffff, ^uint64(0)}, /* idivl INT32_MIN / -1 */
		{0, ^uint64(0), 1},                   // sign-extension mismatch (idivq)
		{123456789, 0, 0xffffffff00000001},   // 32-bit view sees divisor 1
	}
	mi, mc := emu.New(), emu.New()
	for _, src := range progs {
		p := x64.MustParse(src)
		c := emu.Compile(p)
		for _, e := range edges {
			snap := divSnapshot(rng, e.rax, e.rdx, e.rsi)
			runBoth(t, mi, mc, p, c, snap, src)
		}
		for i := 0; i < 200; i++ {
			snap := randomSnapshot(rng)
			runBoth(t, mi, mc, p, c, snap, src)
		}
		if t.Failed() {
			t.Fatalf("diverging program:\n%s", p)
		}
	}
}

// TestCompiledSSEDifferential sweeps every SSE opcode across its operand
// shapes — register pairs including src == dst (the pxor zero idiom),
// memory sources and destinations, shuffle immediates, and shift counts at
// and beyond the lane width — against the interpreter.
func TestCompiledSSEDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	regs := []x64.Reg{0, 1, 5, 15}
	var insts []x64.Inst

	// movd/movq: all four GPR/memory/XMM pairings.
	for _, w := range []uint8{4, 8} {
		op := x64.MOVD
		if w == 8 {
			op = x64.MOVQX
		}
		insts = append(insts,
			x64.MakeInst(op, x64.R(x64.RDI, w), x64.X(1)),
			x64.MakeInst(op, x64.X(1), x64.R(x64.RAX, w)),
			x64.MakeInst(op, x64.Mem(x64.RDI, 8, w), x64.X(2)),
			x64.MakeInst(op, x64.X(2), x64.Mem(x64.RDI, 16, w)),
		)
	}
	// 128-bit moves.
	insts = append(insts,
		x64.MakeInst(x64.MOVAPS, x64.X(0), x64.X(3)),
		x64.MakeInst(x64.MOVUPS, x64.X(4), x64.X(4)),
		x64.MakeInst(x64.MOVUPS, x64.Mem(x64.RSI, 0, 16), x64.X(0)),
		x64.MakeInst(x64.MOVUPS, x64.X(0), x64.Mem(x64.RSI, 4, 16)),
	)
	// Shuffles over a spread of immediates.
	for _, imm := range []int64{0x00, 0x1b, 0x4e, 0xb1, 0xff} {
		insts = append(insts,
			x64.MakeInst(x64.SHUFPS, x64.Imm(imm, 8), x64.X(1), x64.X(2)),
			x64.MakeInst(x64.SHUFPS, x64.Imm(imm, 8), x64.X(3), x64.X(3)),
			x64.MakeInst(x64.PSHUFD, x64.Imm(imm, 8), x64.X(1), x64.X(2)),
			x64.MakeInst(x64.PSHUFD, x64.Imm(imm, 8), x64.X(3), x64.X(3)),
		)
	}
	// Packed arithmetic and logic: register pairs (including the zero
	// idiom's src == dst) and the memory-source form.
	packed := []x64.Opcode{
		x64.PADDW, x64.PSUBW, x64.PMULLW,
		x64.PADDD, x64.PSUBD, x64.PMULLD, x64.PADDQ,
		x64.PAND, x64.POR, x64.PXOR,
	}
	for _, op := range packed {
		for _, a := range regs {
			for _, b := range regs {
				insts = append(insts, x64.MakeInst(op, x64.X(a), x64.X(b)))
			}
		}
		insts = append(insts, x64.MakeInst(op, x64.Mem(x64.RDI, 0, 16), x64.X(1)))
	}
	// Packed shifts: counts below, at and beyond the lane width.
	for _, op := range []x64.Opcode{x64.PSLLD, x64.PSRLD, x64.PSLLQ, x64.PSRLQ} {
		for _, cnt := range []int64{0, 1, 7, 31, 32, 63, 64, 255} {
			insts = append(insts, x64.MakeInst(op, x64.Imm(cnt, 8), x64.X(2)))
		}
	}

	mi, mc := emu.New(), emu.New()
	for _, in := range insts {
		if err := in.Validate(); err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		p := x64.NewProgram(3)
		p.Insts[1] = in
		c := emu.Compile(p)
		if slots := c.FallbackSlots(); len(slots) != 0 {
			t.Errorf("%v lowered to the generic fallback", in)
		}
		for i := 0; i < 60; i++ {
			snap := randomSnapshot(rng)
			runBoth(t, mi, mc, p, c, snap, in.String())
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestXmmRestoreTracksWrittenRegisters is the regression test for the XMM
// dirty-tracking of LoadSnapshotCached (the path cost.Fn.EvalCompiled
// reloads pinned testcase machines through): a run that writes one XMM
// register must restore exactly that register on reload — not all 16 — a
// run that writes none must restore none, and the cached reload must stay
// bit-exact against a full reload.
func TestXmmRestoreTracksWrittenRegisters(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	snap := randomSnapshot(rng)

	vector := x64.MustParse("movd edi, xmm0\npaddd xmm0, xmm0")
	c := emu.Compile(vector)
	m := emu.New()
	m.LoadSnapshot(snap)
	m.RunCompiled(c)
	for i := 1; i <= 4; i++ {
		m.LoadSnapshotCached(snap)
		if got := m.XmmRestores(); got != i {
			t.Fatalf("reload %d: %d XMM restores, want exactly %d (one per written register)", i, got, i)
		}
		m.RunCompiled(c)
	}

	// Bit-exactness of the partial restore against a full reload.
	full := emu.New()
	m.LoadSnapshotCached(snap)
	full.LoadSnapshot(snap)
	diffStates(t, full, m, snap, "cached xmm restore")

	// A scalar run dirties no XMM register and must restore none.
	scalar := emu.Compile(x64.MustParse("addq rsi, rdi"))
	sm := emu.New()
	sm.LoadSnapshot(snap)
	sm.RunCompiled(scalar)
	sm.LoadSnapshotCached(snap)
	if got := sm.XmmRestores(); got != 0 {
		t.Fatalf("scalar run restored %d XMM registers, want 0", got)
	}
}
