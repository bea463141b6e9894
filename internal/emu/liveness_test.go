package emu_test

// Directed tests for the flag-liveness pass: the dataflow edges that decide
// whether a flag write may be suppressed (carry chains, partial-kill
// opcodes, branch successors that disagree, liveness flowing across UNUSED
// padding), the incremental recomputation under patching, and a guard
// asserting the tracked kernels actually compile with flag-free slots so
// the optimisation cannot silently regress to all-live. The randomized and
// fuzz-grade differential suites cover the same machinery from the
// proposal distribution's angle.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/mcmc"
	"repro/internal/x64"
)

// runDifferential cross-checks one source program against the interpreter
// over many random snapshots.
func runDifferential(t *testing.T, src string, iters int) *emu.Compiled {
	t.Helper()
	return runDifferentialProg(t, x64.MustParse(src), iters)
}

// runDifferentialProg is runDifferential over an already-built program,
// for shapes the parser's signature table does not produce.
func runDifferentialProg(t *testing.T, p *x64.Program, iters int) *emu.Compiled {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	src := p.String()
	c := emu.Compile(p)
	mi, mc := emu.New(), emu.New()
	for i := 0; i < iters; i++ {
		snap := randomSnapshot(rng)
		runBoth(t, mi, mc, p, c, snap, src)
		if t.Failed() {
			t.Fatalf("diverging program:\n%s", p)
		}
	}
	return c
}

// TestLivenessCarryChain: an adc/sbb consumer keeps CF live through the
// chain, so none of the flag writes feeding it may be suppressed — while a
// trailing full redefinition leaves the head of the chain dead.
func TestLivenessCarryChain(t *testing.T) {
	// Every add/adc's CF feeds the next adc; the last adc's flags are
	// live at exit. Nothing may be flag-free.
	c := runDifferential(t, "addq rsi, rax\nadcq rdx, rcx\nadcq 0, rdx", 400)
	if n := c.FlagFreeSlots(); n != 0 {
		t.Errorf("carry chain has %d flag-free slots, want 0 (CF is live throughout)", n)
	}

	// An adc whose own writes are dead is itself suppressed (it keeps its
	// CF read), but its producer stays live: the trailing xor kills
	// everything the adc writes, yet the adc's CF read pins the add.
	c = runDifferential(t, "addq rsi, rax\nadcq rdx, rcx\nxorq rdx, rcx", 400)
	if n := c.FlagFreeSlots(); n != 1 {
		t.Errorf("adc chain with dead tail has %d flag-free slots, want 1 (the adc; its CF read pins the add)", n)
	}
	if outs := c.LiveOuts(); outs[0]&x64.CF == 0 {
		t.Errorf("add live-out %v lost CF, but the adc reads it", outs[0])
	}

	// Replace the adc with a plain add: the head add's flags now die at
	// the second add's unconditional redefinition.
	c = runDifferential(t, "addq rsi, rax\naddq rdx, rcx\nsetb cl", 400)
	if n := c.FlagFreeSlots(); n != 1 {
		t.Errorf("redefined chain has %d flag-free slots, want 1 (the head add)", n)
	}
}

// TestLivenessIncPreservesCF: inc/dec write PF|ZF|SF|OF but not CF, so an
// inc between a CF producer and a CF consumer must neither kill CF
// liveness nor lose its own suppression (its four written flags are dead).
func TestLivenessIncPreservesCF(t *testing.T) {
	c := runDifferential(t, "cmpq rsi, rdi\nincq rax\nadcq 0, rax", 400)
	outs := c.LiveOuts()
	if outs[0]&x64.CF == 0 {
		t.Errorf("cmp live-out %v lost CF across the inc", outs[0])
	}
	if n := c.FlagFreeSlots(); n != 1 {
		t.Errorf("%d flag-free slots, want 1 (the inc: PF|ZF|SF|OF all dead, CF untouched)", n)
	}
}

// TestLivenessBranchSuccessorsDisagree: a conditional jump whose taken
// path reads flags the fall-through path kills — live-out of the producer
// must be the union of both successors.
func TestLivenessBranchSuccessorsDisagree(t *testing.T) {
	c := runDifferential(t, `
  cmpq rsi, rdi
  jb .L0
  xorq rdx, rdx
.L0:
  setb cl
`, 400)
	outs := c.LiveOuts()
	if outs[0]&x64.CF == 0 {
		t.Errorf("cmp live-out %v lost CF, but the taken path reaches setb without a kill", outs[0])
	}
	// The xor on the fall-through path still defines the setb's CF read,
	// so its write is live; nothing on this program is suppressible
	// except nothing — both flag writers stay full.
	if n := c.FlagFreeSlots(); n != 0 {
		t.Errorf("%d flag-free slots, want 0", n)
	}
}

// TestLivenessPartiallyLiveFlags: a consumer that reads only some of the
// flags its producer writes (ZF here, CF/OF dead) keeps the producer's
// whole flag write — flag liveness is one bit per slot — and both paths
// agree on the flags the consumer and the exit observe.
func TestLivenessPartiallyLiveFlags(t *testing.T) {
	for _, src := range []string{
		"subq rsi, rax\nje .L0\naddq 1, rax\n.L0:\nxorq rdx, rdx",
		"addq rsi, rax\nsete cl\nandq rdx, rax",
	} {
		c := runDifferential(t, src, 400)
		if live := c.LiveOuts()[0]; live != x64.ZF {
			t.Errorf("%q: producer live-out %v, want ZF alone", src, live)
		}
		if c.SlotSelections()[0].NF {
			t.Errorf("%q: partially live producer had its flag write suppressed", src)
		}
	}
}

// TestLivenessAcrossPaddingAndPatch: liveness flows across UNUSED padding,
// and patching a padding slot into a flag killer (and back) flips the
// producer's suppression — with the patched form always agreeing with a
// fresh compile and both execution paths.
func TestLivenessAcrossPaddingAndPatch(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	p := x64.MustParse("cmpq rsi, rdi\nsetb al").PadTo(8)
	// Layout after PadTo: cmp, setb, UNUSED×6.
	c := emu.Compile(p)
	if n := c.FlagFreeSlots(); n != 0 {
		t.Fatalf("cmp feeding setb across padding: %d flag-free slots, want 0", n)
	}

	// Move the setb behind the padding: liveness must flow through the
	// skip run.
	p.Insts[5] = p.Insts[1]
	p.Insts[1] = x64.Unused()
	c.Patch(1)
	c.Patch(5)
	if n := c.FlagFreeSlots(); n != 0 {
		t.Fatalf("cmp feeding setb across padding after patch: %d flag-free slots, want 0", n)
	}

	// Interpose a full flag redefinition inside the padding: the cmp dies.
	kill := x64.MustParse("xorq rdx, rdx").Insts[0]
	p.Insts[3] = kill
	c.Patch(3)
	if n := c.FlagFreeSlots(); n != 1 {
		t.Fatalf("after interposing a kill: %d flag-free slots, want 1 (the cmp)", n)
	}

	// And remove it again: the cmp comes back to life.
	p.Insts[3] = x64.Unused()
	c.Patch(3)
	if n := c.FlagFreeSlots(); n != 0 {
		t.Fatalf("after removing the kill: %d flag-free slots, want 0", n)
	}

	// Each intermediate shape stays pinned to fresh compiles and the
	// interpreter.
	mi, mc := emu.New(), emu.New()
	steps := []func(){
		func() { p.Insts[3] = kill; c.Patch(3) },
		func() { p.Insts[3] = x64.Unused(); c.Patch(3) },
		func() { p.Insts[0], p.Insts[3] = p.Insts[3], p.Insts[0]; c.Patch(0); c.Patch(3) },
		func() { p.Insts[0], p.Insts[3] = p.Insts[3], p.Insts[0]; c.Patch(0); c.Patch(3) },
	}
	for si, step := range steps {
		step()
		fresh := emu.Compile(p)
		sameSelection(t, c, fresh, fmt.Sprintf("step %d", si))
		for i := 0; i < 100; i++ {
			runBoth(t, mi, mc, p, c, randomSnapshot(rng), "padding patch step")
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestSaveRestoreSlotMatchesFreshCompile drives the MCMC reject path's
// snapshot undo: SaveSlot → mutate+Patch → RestoreSlot must land on
// exactly the state a fresh compile of the restored program has — dispatch
// codes, liveness selection, latency sum and observable behaviour — even
// when the same slot is touched twice (swap-style moves restore in
// reverse, first snapshot winning).
func TestSaveRestoreSlotMatchesFreshCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := x64.MustParse("cmpq rsi, rdi\nsetb al\naddq rsi, rax\nshrq 2, rax").PadTo(12)
	c := emu.Compile(p)
	mi, mc := emu.New(), emu.New()
	muts := []x64.Inst{
		x64.Unused(),
		x64.MustParse("adcq 1, rcx").Insts[0],
		x64.MustParse("xorq rdx, rdx").Insts[0],
		x64.MustParse("incl esi").Insts[0],
		x64.MustParse("shll 5, ecx").Insts[0],
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
			// Reject: restore both slots in reverse order.
			p.Insts[j] = oldJ
			p.Insts[i] = oldI
			c.RestoreSlot(j, sj)
			c.RestoreSlot(i, si)
		}
		fresh := emu.Compile(p)
		if c.StaticLatency() != fresh.StaticLatency() {
			t.Fatalf("step %d: latency %v after restore, fresh %v\n%s",
				step, c.StaticLatency(), fresh.StaticLatency(), p)
		}
		sameSelection(t, c, fresh, fmt.Sprintf("step %d", step))
		if step%10 == 0 {
			runBoth(t, mi, mc, p, c, randomSnapshot(rng), "save/restore")
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestLivenessShiftFamily: immediate shifts take the new inline codes
// (suppressible), CL-count shifts kill nothing (a zero count would leave
// flags intact), and zero-immediate shifts never write flags at all.
func TestLivenessShiftFamily(t *testing.T) {
	// shr's flags die at the following xor; the xor is live at exit.
	c := runDifferential(t, "shrq 3, rax\nxorq rsi, rax", 400)
	if n := c.FlagFreeSlots(); n != 1 {
		t.Errorf("dead immediate shift: %d flag-free slots, want 1", n)
	}

	// A CL-count shift between a producer and a consumer must not kill:
	// shlq cl could be a no-op, leaving the cmp's CF observable.
	c = runDifferential(t, "cmpq rsi, rdi\nshlq cl, rax\nsetb dl", 400)
	outs := c.LiveOuts()
	if outs[0]&x64.CF == 0 {
		t.Errorf("cmp live-out %v lost CF across a cl-count shift", outs[0])
	}
	if n := c.FlagFreeSlots(); n != 0 {
		t.Errorf("cl-shift chain: %d flag-free slots, want 0", n)
	}

	// Differential sweep over the inline shift codes at both widths,
	// suppressed and live.
	runDifferential(t, "shlq 13, rax\nshrl 7, esi\nsarq 63, rdx\nsetb cl", 300)
	runDifferential(t, "shlq 13, rax\nshrl 7, esi\nsarq 63, rdx\nxorq rcx, rcx", 300)
}

// TestRunCompiledBoundedMatchesInterpreter pins RunCompiled under step
// budgets below, at and above the program length — below it, any slot can
// become the exit, the liveness pass's suppression is unsound, and the run
// is delegated to the interpreter — over random proposal-pool programs and
// directed divide/SSE/control shapes. After each run a cached reload of the
// same snapshot must restore exactly a fresh load's state: the delegated
// run leaves the dirty tracking the cached reload restores from.
func TestRunCompiledBoundedMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
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

	check := func(p *x64.Program, what string) {
		c := emu.Compile(p)
		for _, maxSteps := range []int{1, 3, len(p.Insts) - 1, len(p.Insts)} {
			if maxSteps < 1 {
				continue
			}
			mi, mc, fresh := emu.New(), emu.New(), emu.New()
			mi.MaxSteps, mc.MaxSteps, fresh.MaxSteps = maxSteps, maxSteps, maxSteps
			for i := 0; i < 4; i++ {
				snap := randomSnapshot(rng)
				runBoth(t, mi, mc, p, c, snap, what)
				mc.LoadSnapshotCached(snap)
				fresh.LoadSnapshot(snap)
				diffStates(t, fresh, mc, snap, what+": cached reload")
				if of, oc := fresh.RunCompiled(c), mc.RunCompiled(c); of != oc {
					t.Errorf("%s: rerun after cached reload: fresh %+v cached %+v", what, of, oc)
				}
				if t.Failed() {
					t.Fatalf("diverging program (MaxSteps=%d):\n%s", maxSteps, p)
				}
			}
		}
	}

	for pi := 0; pi < 150; pi++ {
		check(s.RandomProgram(), "bounded random program")
	}
	for _, src := range []string{
		// Control flow, the divide family, double shifts, CL shifts and
		// narrow merges under a tight budget.
		"cmpq rsi, rdi\njae .L0\nmovq rsi, rax\n.L0:\nmovq rdi, rax\nretq",
		"movq rdi, rax\nmovq 0, rdx\ndivq rsi\nidivl ecx\nmulq rsi",
		"shldq 5, rsi, rax\nshrdq 9, rdi, rcx\nshlq cl, rdx\nrorb 3, al",
		"xorl ebx, ebx\naddb 1, bl\nmovw si, cx\nincb al\ndecw cx\nnegb dl\nnotw si\nsbbq rax, rax",
		"pushq rdi\npopq rax\nxchgw ax, cx\nbtq 5, rdi\nbsfq rsi, rcx\nbswapl edx",
	} {
		check(x64.MustParse(src), src)
	}
}

// TestRecompileMatchesFresh: a wholesale rewrite followed by Recompile
// (the chain-restart path) must land on exactly a fresh compile's state —
// dispatch codes, liveness selection and behaviour.
func TestRecompileMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	p := x64.MustParse("cmpq rsi, rdi\nsetb al").PadTo(10)
	c := emu.Compile(p)
	if c.Program() != p {
		t.Fatal("Program must return the compiled program")
	}
	repl := x64.MustParse("addq rsi, rax\nadcq rdx, rcx\nshrq 3, rax\nxorq rdx, rdx").PadTo(10)
	copy(p.Insts, repl.Insts)
	c.Recompile()
	fresh := emu.Compile(p)
	if c.StaticLatency() != fresh.StaticLatency() {
		t.Fatalf("latency %v after Recompile, fresh %v", c.StaticLatency(), fresh.StaticLatency())
	}
	sameSelection(t, c, fresh, "recompiled")
	mi, mc := emu.New(), emu.New()
	for i := 0; i < 200; i++ {
		runBoth(t, mi, mc, p, c, randomSnapshot(rng), "recompile")
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestFlagFreeFractionOnTrackedKernels guards the optimisation end to end:
// the tracked kernels' targets (padded to the paper's ℓ=50 slot count, the
// shape every search candidate has) must compile with a nonzero fraction
// of their flag-writing slots suppressed. A refactor that silently
// regresses liveness to all-live fails here, not in a benchmark diff.
func TestFlagFreeFractionOnTrackedKernels(t *testing.T) {
	for _, name := range []string{"p01", "p23", "mont", "saxpy"} {
		bench, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := emu.Compile(bench.Target.PadTo(50))
		free, writers := c.FlagFreeSlots(), c.FlagWritingSlots()
		if writers == 0 {
			t.Errorf("%s: no flag-writing slots at all?", name)
			continue
		}
		if free == 0 {
			t.Errorf("%s: 0 of %d flag-writing slots suppressed; liveness regressed to all-live", name, writers)
		}
		t.Logf("%s: %d/%d flag-writing slots flag-free", name, free, writers)
	}
}

// TestLivenessGenericFallback: shapes with no specialised handler
// dispatch through the generic interpreter fallback. Every shape of the
// opcode signature table has a handler, so the fallback is reached here
// through instructions built outside it: a memory-source bsf and an adc
// of a 4-byte register into an 8-byte memory destination, both of which
// the interpreter models. The fallback must honour the nf bit like every
// specialised handler — dead flag writes are suppressed by restoring the
// flag words around the interpreter switch — while flag *reads* inside the
// switch (adc) still see the incoming values, and live flag writes still
// land.
func TestLivenessGenericFallback(t *testing.T) {
	prog := func(insts ...x64.Inst) *x64.Program { return &x64.Program{Insts: insts} }
	bsf := x64.MakeInst(x64.BSF, x64.Mem(x64.RSP, -8, 8), x64.R(x64.RAX, 8))
	cmpRDX := x64.MakeInst(x64.CMP, x64.R(x64.RDX, 8), x64.R(x64.RCX, 8))

	// Dead flags: the trailing cmp redefines everything the bsf writes.
	c := runDifferentialProg(t, prog(bsf, cmpRDX), 400)
	if got := c.FallbackSlots(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("memory-source bsf must dispatch generically, fallback slots %v", got)
	}
	if n := c.FlagFreeSlots(); n != 1 {
		t.Errorf("dead generic-fallback flags: %d flag-free slots, want 1", n)
	}

	// Live flags: a setb consumer pins the bsf; nothing may be suppressed.
	setb := x64.MakeCCInst(x64.SETcc, x64.CondB, x64.R(x64.RAX, 1))
	c = runDifferentialProg(t, prog(bsf, setb, cmpRDX), 400)
	if n := c.FlagFreeSlots(); n != 0 {
		t.Errorf("live generic-fallback flags: %d flag-free slots, want 0", n)
	}

	// A flag-reading generic shape under suppression: the adc's CF read
	// must see the head cmp's carry even though the adc's own writes are
	// suppressed and then redefined.
	c = runDifferentialProg(t, prog(
		x64.MakeInst(x64.CMP, x64.R(x64.RSI, 8), x64.R(x64.RDI, 8)),
		x64.MakeInst(x64.ADC, x64.R(x64.RDX, 4), x64.Mem(x64.RSP, -16, 8)),
		x64.MakeInst(x64.XOR, x64.R(x64.RCX, 8), x64.R(x64.RCX, 8)),
	), 400)
	if got := c.FallbackSlots(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("mixed-width adc must dispatch generically, fallback slots %v", got)
	}
	if n := c.FlagFreeSlots(); n != 1 {
		t.Errorf("dead adc writes: %d flag-free slots, want 1 (its CF read pins the cmp)", n)
	}
}
