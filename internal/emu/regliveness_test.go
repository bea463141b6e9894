package emu_test

// Directed tests for the register-liveness pass: the dataflow edges that
// decide whether a register write may be suppressed (partial-width merge
// chains, 32-bit zero-extension kills, the zero idioms, the divide
// family's implicit defs, dead XMM destinations), the kernel-live-out exit
// gens of CompileLive, the incrementally maintained coverage counters
// under patch/restore storms, and a guard asserting the tracked kernels
// actually compile with suppressed register writes under their live-out
// sets. The fuzz-grade differential suites cover the same machinery from
// the proposal distribution's angle (the FzRegLiveness menu family).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/mcmc"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// regCounts compiles src, cross-checks it against the interpreter, and
// returns the suppressed/writing slot counts (pinned to a direct scan).
func regCounts(t *testing.T, src string) (free, writing int) {
	t.Helper()
	c := runDifferential(t, src, 400)
	free, writing = c.RegFreeSlots(), c.RegWritingSlots()
	if sf, sw := c.RegCountsByScan(); sf != free || sw != writing {
		t.Fatalf("counter drift: counters %d/%d, scan %d/%d\n%s", free, writing, sf, sw, src)
	}
	return free, writing
}

// TestRegLivenessMergeChain: 1/2-byte writes merge into untouched bytes,
// which makes each narrow write a *reader* of its destination — the movb
// stays live because the movw's merge reads %rax, and only the last
// narrow write before the wide kill dies.
func TestRegLivenessMergeChain(t *testing.T) {
	free, writing := regCounts(t, "movb 0x11, al\nmovw 2, ax\nmovb 0x22, cl\nmovq rcx, rax")
	if free != 1 || writing != 4 {
		t.Errorf("merge chain: %d/%d suppressed, want 1/4 (the movw; the movb feeds its merge)", free, writing)
	}

	// Without the wide kill nothing dies: every register is live at exit
	// under plain Compile, and narrow writes never kill.
	free, writing = regCounts(t, "movb 0x11, al\nmovw 2, ax\nmovb 0x22, cl")
	if free != 0 || writing != 3 {
		t.Errorf("kill-free chain: %d/%d suppressed, want 0/3", free, writing)
	}
}

// TestRegLivenessZeroExtendKill: 32-bit writes zero-extend, so both the
// plain movl and the xorl zero idiom are full kills of their 64-bit
// register — and the idiom's dropped self-read is what lets the upstream
// write die.
func TestRegLivenessZeroExtendKill(t *testing.T) {
	free, writing := regCounts(t, "movq rsi, rax\nmovl ecx, eax\nmovq rsi, rdx\nxorl edx, edx")
	if free != 2 || writing != 4 {
		t.Errorf("zero-extend kills: %d/%d suppressed, want 2/4 (both wide movs)", free, writing)
	}

	// A narrow xor is not a zero idiom: it merges, reads its destination,
	// and must keep the upstream write alive.
	free, writing = regCounts(t, "movq rsi, rax\nxorb al, al")
	if free != 0 || writing != 2 {
		t.Errorf("narrow xor: %d/%d suppressed, want 0/2 (a merge, not a kill)", free, writing)
	}
}

// TestRegLivenessDivImplicitDefs: DIV defines RAX:RDX on both the fault
// and success paths, so two trailing kills leave its register writes dead
// — the suppressed div still reads RAX, RDX and the divisor, and still
// faults (the differential sweep's random snapshots include zero
// divisors).
func TestRegLivenessDivImplicitDefs(t *testing.T) {
	free, writing := regCounts(t, "divq rsi\nxorl eax, eax\nxorl edx, edx")
	if free != 1 || writing != 3 {
		t.Errorf("dead div defs: %d/%d suppressed, want 1/3 (the div)", free, writing)
	}

	// A reader of either implicit def pins the div.
	free, _ = regCounts(t, "divq rsi\naddq rax, rcx\nxorl eax, eax\nxorl edx, edx")
	if free != 0 {
		t.Errorf("read div defs: %d suppressed, want 0 (rax is read)", free)
	}
}

// TestRegLivenessDeadXmm: XMM writes are full 128-bit kills — packed
// arithmetic dies at the pxor zero idiom, a shuffle dies at a vector
// load, and the cross-file movd keeps its XMM read while the dead GPR
// writes upstream of a kill die like any other.
func TestRegLivenessDeadXmm(t *testing.T) {
	free, writing := regCounts(t,
		"paddw xmm0, xmm1\npxor xmm1, xmm1\npshufd 0x1b, xmm0, xmm2\nmovups (rdi), xmm2\nmovd xmm3, eax")
	if free != 2 || writing != 5 {
		t.Errorf("dead xmm writes: %d/%d suppressed, want 2/5 (paddw and pshufd)", free, writing)
	}

	// A consumer between the write and the kill pins it.
	free, _ = regCounts(t, "paddw xmm0, xmm1\npaddd xmm1, xmm2\npxor xmm1, xmm1")
	if free != 0 {
		t.Errorf("read xmm write: %d suppressed, want 0", free)
	}
}

// TestRegLivenessFlagsPinSuppression: a slot is only write-suppressed when
// its flag writes (if any) are dead too — an addq whose destination dies
// but whose flags feed a setb must stay fully live.
func TestRegLivenessFlagsPinSuppression(t *testing.T) {
	free, _ := regCounts(t, "addq rsi, rax\nsetb cl\nmovq rdi, rax")
	if free != 0 {
		t.Errorf("flag-live add: %d suppressed, want 0 (its CF feeds the setb)", free)
	}

	// With the flag consumer gone both the add's outputs are dead.
	free, _ = regCounts(t, "addq rsi, rax\nxorq rcx, rcx\nmovq rdi, rax")
	if free != 1 {
		t.Errorf("flag-dead add: %d suppressed, want 1", free)
	}
}

// TestMemoryRoutedSlotsSuppressDeadRegisterWrites: a memory source is one
// more read, so the memory-source forms routed through ms (popcnt, movsx,
// imul3, adc, mul) have their dead register writes suppressed exactly like
// their register forms, as does the memory-source packed form. A
// memory-destination slot writes memory and stays unsuppressed. The
// suppressed forms must still agree with the interpreter, their loads'
// fault and undef accounting included.
func TestMemoryRoutedSlotsSuppressDeadRegisterWrites(t *testing.T) {
	mov := func(dst x64.Reg) x64.Inst { return x64.MakeInst(x64.MOV, x64.R(x64.RDI, 8), x64.R(dst, 8)) }
	kills := []x64.Inst{
		x64.MakeInst(x64.XOR, x64.R(x64.RCX, 8), x64.R(x64.RCX, 8)), // flags
		mov(x64.RBX), mov(x64.RAX), mov(x64.RDX),
		x64.MakeInst(x64.PXOR, x64.X(1), x64.X(1)),
	}
	mem := x64.Mem(x64.RDI, 0, 8)
	for _, tc := range []struct {
		in   x64.Inst
		want int
	}{
		{x64.MakeInst(x64.POPCNT, x64.R(x64.RSI, 8), x64.R(x64.RBX, 8)), 1},
		{x64.MakeInst(x64.POPCNT, mem, x64.R(x64.RBX, 8)), 1},
		{x64.MakeInst(x64.MOVSX, x64.R(x64.RSI, 4), x64.R(x64.RBX, 8)), 1},
		{x64.MakeInst(x64.MOVSX, x64.Mem(x64.RDI, 0, 4), x64.R(x64.RBX, 8)), 1},
		{x64.MakeInst(x64.IMUL3, x64.Imm(7, 8), x64.R(x64.RSI, 8), x64.R(x64.RBX, 8)), 1},
		{x64.MakeInst(x64.IMUL3, x64.Imm(7, 8), mem, x64.R(x64.RBX, 8)), 1},
		{x64.MakeInst(x64.ADC, x64.R(x64.RSI, 8), x64.R(x64.RBX, 8)), 1},
		{x64.MakeInst(x64.ADC, mem, x64.R(x64.RBX, 8)), 1},
		{x64.MakeInst(x64.MUL, x64.R(x64.RSI, 8)), 1},
		{x64.MakeInst(x64.MUL, mem), 1},
		{x64.MakeInst(x64.PADDD, x64.Mem(x64.RDI, 0, 16), x64.X(1)), 1},
		{x64.MakeInst(x64.ADD, x64.R(x64.RSI, 8), mem), 0},
	} {
		p := &x64.Program{Insts: append([]x64.Inst{tc.in}, kills...)}
		c := runDifferentialProg(t, p, 200)
		if got := c.RegFreeSlots(); got != tc.want {
			t.Errorf("%v: %d suppressed slots, want %d", tc.in, got, tc.want)
		}
		if sf, _ := c.RegCountsByScan(); sf != c.RegFreeSlots() {
			t.Fatalf("%v: counter drift", tc.in)
		}
	}
}

// liveMasks folds a testgen.LiveSet into the CompileLive exit masks the
// engine uses: a named GPR is conservatively live at full width, each
// named XMM fully.
func liveMasks(live testgen.LiveSet) (uint16, uint16) {
	var g, x uint16
	for _, lr := range live.GPRs {
		g |= 1 << lr.Reg
	}
	for _, xr := range live.Xmms {
		x |= 1 << xr
	}
	return g, x
}

// TestCompileLiveExitGens: under CompileLive only the kernel's live-out
// registers are observable at exit, so trailing writes of any other
// register die — while plain Compile keeps them. The suppressed form must
// agree with the interpreter on the outcome (error counters included) and
// on every live register.
func TestCompileLiveExitGens(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, tc := range []struct {
		src        string
		liveG      uint16
		liveX      uint16
		free, full int // suppressed slots under CompileLive / plain Compile
	}{
		// The rcx write is dead when only rax survives the exit.
		{"movq rsi, rax\nmovq rdi, rcx", 1 << x64.RAX, 0, 1, 0},
		// Narrow writes of a non-live register die without any kill.
		{"movb 5, cl\nmovw si, dx\nmovq rdi, rax", 1 << x64.RAX, 0, 2, 0},
		// An XMM copy into a dead register; the live xmm1 load survives.
		{"movups (rdi), xmm1\nmovaps xmm1, xmm2", 0, 1 << 1, 1, 0},
		// The div's defs are live-out here: nothing dies even under the
		// restricted exit.
		{"divq rsi", 1<<x64.RAX | 1<<x64.RDX, 0, 0, 0},
	} {
		p := x64.MustParse(tc.src)
		cl := emu.CompileLive(p, tc.liveG, tc.liveX)
		if got := cl.RegFreeSlots(); got != tc.free {
			t.Errorf("CompileLive(%q): %d suppressed, want %d", tc.src, got, tc.free)
		}
		if got := emu.Compile(p).RegFreeSlots(); got != tc.full {
			t.Errorf("Compile(%q): %d suppressed, want %d", tc.src, got, tc.full)
		}

		// Differential on the live-out state only: outcome and every live
		// register must match the interpreter; dead registers may hold
		// stale values by design.
		mi, mc := emu.New(), emu.New()
		for i := 0; i < 200; i++ {
			runBothLive(t, mi, mc, p, cl, randomSnapshot(rng), tc.liveG, tc.liveX,
				fmt.Sprintf("CompileLive(%q)", tc.src))
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestRegCountersMatchScanUnderPatchStorm drives a patch/restore storm
// over register-deadness-heavy mutations and pins, after every step, the
// incrementally maintained coverage counters to a direct scan and the
// whole dispatch selection to a fresh compile with the same exit masks.
func TestRegCountersMatchScanUnderPatchStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const liveG, liveX = uint16(1<<x64.RAX | 1<<x64.RDX), uint16(1 << 1)
	p := x64.MustParse("movq rsi, rax\nmovl ecx, eax\npaddw xmm0, xmm1\ndivq rsi").PadTo(12)
	c := emu.CompileLive(p, liveG, liveX)
	muts := []x64.Inst{
		x64.Unused(),
		x64.MustParse("movb 7, al").Insts[0],
		x64.MustParse("movw si, cx").Insts[0],
		x64.MustParse("movl edi, ecx").Insts[0],
		x64.MustParse("movq rcx, rax").Insts[0],
		x64.MustParse("xorl edx, edx").Insts[0],
		x64.MustParse("divq rsi").Insts[0],
		x64.MustParse("pxor xmm1, xmm1").Insts[0],
		x64.MustParse("paddd xmm1, xmm2").Insts[0],
		x64.MustParse("movd xmm3, eax").Insts[0],
		x64.MustParse("addq rax, rcx").Insts[0],
	}
	for step := 0; step < 2000; step++ {
		i := rng.Intn(len(p.Insts))
		j := rng.Intn(len(p.Insts))
		oldI, oldJ := p.Insts[i], p.Insts[j]
		si := c.SaveSlot(i)
		p.Insts[i] = muts[rng.Intn(len(muts))]
		c.Patch(i)
		sj := c.SaveSlot(j)
		p.Insts[j] = muts[rng.Intn(len(muts))]
		c.Patch(j)
		if rng.Intn(2) == 0 {
			p.Insts[j] = oldJ
			p.Insts[i] = oldI
			c.RestoreSlot(j, sj)
			c.RestoreSlot(i, si)
		}
		free, writing := c.RegFreeSlots(), c.RegWritingSlots()
		if sf, sw := c.RegCountsByScan(); sf != free || sw != writing {
			t.Fatalf("step %d: counters %d/%d drifted from scan %d/%d\n%s",
				step, free, writing, sf, sw, p)
		}
		fresh := emu.CompileLive(p, liveG, liveX)
		if ff, fw := fresh.RegFreeSlots(), fresh.RegWritingSlots(); ff != free || fw != writing {
			t.Fatalf("step %d: counters %d/%d patched vs %d/%d fresh\n%s",
				step, free, writing, ff, fw, p)
		}
		sameSelection(t, c, fresh, fmt.Sprintf("step %d", step))
	}
}

// TestRegFreeFractionOnTrackedKernels guards the optimisation end to end.
// The -O0 targets themselves are too tight to carry dead register writes
// (values spill to memory, and what stays in registers is read), so the
// guard measures where the pass actually earns its keep: search
// candidates. For each tracked kernel, ℓ=50 programs drawn from its
// proposal pools and compiled under its declared live-out set — exactly
// how the engine compiles every candidate — must show a nonzero
// suppressed fraction in aggregate. A refactor that silently regresses
// the register pass to all-live fails here, not in a benchmark diff.
func TestRegFreeFractionOnTrackedKernels(t *testing.T) {
	for _, name := range []string{"p01", "p23", "mont", "saxpy"} {
		bench, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, x := liveMasks(bench.Spec.LiveOut)
		params := mcmc.PaperParams
		params.Ell = 50
		s := &mcmc.Sampler{
			Params: params,
			Pools:  mcmc.PoolsFor(bench.Target, bench.SSE),
			Rng:    rand.New(rand.NewSource(53)),
		}
		free, writing := 0, 0
		for i := 0; i < 50; i++ {
			c := emu.CompileLive(s.RandomProgram(), g, x)
			f, w := c.RegFreeSlots(), c.RegWritingSlots()
			if sf, sw := c.RegCountsByScan(); sf != f || sw != w {
				t.Fatalf("%s: counters %d/%d drifted from scan %d/%d", name, f, w, sf, sw)
			}
			free += f
			writing += w
		}
		if writing == 0 {
			t.Errorf("%s: no register-writing slots across 50 candidates?", name)
			continue
		}
		if free == 0 {
			t.Errorf("%s: 0 of %d register-writing slots suppressed; liveness regressed to all-live",
				name, writing)
		}
		t.Logf("%s: %d/%d candidate register-writing slots suppressed (%.0f%%)",
			name, free, writing, 100*float64(free)/float64(writing))
	}
}
