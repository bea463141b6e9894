package emu

import (
	"math/bits"

	"repro/internal/perf"
	"repro/internal/x64"
)

// This file implements the decode phase of the two-phase evaluation
// pipeline. Compile lowers each instruction slot of a program once into a
// microOp — a pre-resolved handler plus the decoded fields it needs — and
// RunCompiled dispatches over the compiled form without ever re-inspecting
// opcodes, operand kinds or widths. The throughput win comes from five
// decode-time specialisations:
//
//   - Every shape of the opcode signature table (register, immediate and
//     memory operands of MOV/ALU forms, shifts, multiplies, LEA, CMOV,
//     SETcc, CMP/TEST, bit-scan ops, push/pop, the divide family and the
//     SSE subset) lowers to a flat handler with widths, masks, sign bits
//     and immediates baked in. Memory destinations and memory sources
//     share the register forms' bodies: the md/ms fields route
//     readDst/readSrc and the writeALU chokepoint through the memory
//     operand. Only instructions outside the signature table (which the
//     parser and the proposal distribution never produce) fall back to a
//     handler that invokes the interpreter's exec on the source
//     instruction.
//   - The hottest shapes additionally carry a dispatch code the run loop
//     inlines directly, skipping even the indirect handler call. One code
//     serves every destination width of its shape: the inline body ends
//     in an inline width test (direct store at 4/8 bytes, merge write at
//     1/2).
//   - Specialised handlers compute the full flag update as one word and
//     write Flags/FlagsDef once (branch-free where the outcome bits are
//     data-random), instead of five setFlag calls.
//   - Every slot pre-links its fall-through: the next live slot. Dead
//     UNUSED/LABEL slots are never visited at all — a mostly-empty ℓ=50
//     candidate costs as many dispatches as it has live instructions —
//     and the strictly-forward pc makes the step-budget check provably
//     dead for programs that fit it, so the loop omits it (a longer
//     program runs on the interpreter).
//   - Jump targets are linked at compile time instead of scanning for
//     labels on every taken branch; Compile also caches the Equation 13
//     static-latency sum, maintained incrementally across patches.
//   - A backward liveness pass (liveness.go) over one packed set of
//     flags and registers per slot sets the nf bit on the slots whose flag
//     writes no later consumer or exit can observe, and the nr bit (with a
//     read-only mkDead* code on the inline shapes) on the slots whose
//     register writes are dead too. Every flag-writing body, inline or
//     handler, guards its flag computation and Flags/FlagsDef store on nf,
//     so those slots skip the dead addBits/subBits/szpBits work entirely.
//     Patch recomputes liveness only over the affected backward slice.
//
// The struct-of-predecoded-fields + static handler design was chosen over
// per-slot closures under benchmark: closures allocate per compile (hostile
// to the patch-per-proposal discipline) and measured no faster.
//
// A Compiled form stays attached to the program it was lowered from: the
// MCMC sampler mutates at most two slots per proposal and calls Patch on
// exactly those, which re-lowers the slot and repairs the fall-through
// chain in place (with a full relink only if control structure — labels,
// jumps, rets — is involved, which proposal moves never touch).

// microKind classifies a compiled slot for the dispatch loop.
type microKind uint8

const (
	mkExec microKind = iota // run the handler
	mkSkip                  // UNUSED/LABEL: follow the skip chain
	mkRet                   // end execution
	mkJmp                   // unconditional forward jump, pre-linked
	mkJcc                   // conditional forward jump, pre-linked

	// Hot-shape codes: the dispatch loop inlines these to avoid the
	// indirect handler call. The inline body is the only copy of a shape
	// that no other operand form reaches; a handler exists beside it only
	// for the forms the body cannot serve (memory-routed operands, and the
	// narrow destinations of a "W" code). Unless a "W" suffix restricts a
	// code to wide (4/8-byte) destinations, one code serves every width:
	// its body stores a 4/8-byte result directly and merges a 1/2-byte one
	// (the proposal distribution draws widths uniformly, so half of all
	// ALU proposals are narrow). Like the handlers, every flag-writing
	// inline body stores its flags only when the slot's nf bit is clear.
	mkMovRR
	mkMovRI
	mkMovLoadW
	mkMovStoreR
	mkAddRR
	mkAddRI
	mkSubRR
	mkSubRI
	mkAndRR
	mkAndRI
	mkOrRR
	mkOrRI
	mkXorRR
	mkXorRI
	mkZero // xor r,r / sub r,r dependency-breaking zero
	mkCmpRR
	mkCmpRI
	mkTestRR
	mkTestRI
	mkLeaW
	mkCmovRRW
	mkInc
	mkDec
	mkNeg
	mkNotW

	// SSE hot-shape codes: the register-to-register packed-arithmetic,
	// logical, shuffle and move forms the saxpy-class vector kernels are
	// built from, plus the 128-bit loads and stores. The dispatch loop runs
	// them inline (the shuffles through static handler calls); the packed
	// memory-source forms stay on the indirect handler path.
	mkMovdRX // GPR→XMM movd/movq (the broadcast idiom's first half)
	mkMovXX  // XMM→XMM movaps/movups copy
	mkMovupsLoad
	mkMovupsStore
	mkShufps
	mkPshufd
	mkPAddW
	mkPSubW
	mkPMullW
	mkPAddD
	mkPSubD
	mkPMullD
	mkPAddQ
	mkPAnd
	mkPOr
	mkPXor
	mkPXorZero

	// SETcc and register-source movsx, common in the proposal mix,
	// inlined to skip the indirect handler call.
	mkSetcc
	mkMovsxRR

	// Immediate-count shift codes (wide destination, nonzero masked count;
	// zero counts and CL counts stay on the handler path).
	mkShlIW
	mkShrIW
	mkSarIW

	// Write-suppressed ("dead-register") codes, selected by the register-
	// liveness pass (liveness.go) when every GPR/XMM a slot writes is
	// dead-out and its flag writes (if any) are dead too. Rather than one
	// variant per base code, the dead codes collapse to the handful of
	// read shapes that matter for error accounting: each performs exactly
	// the reads of its base shape — same order, same undef/sigsegv
	// counting, including the merge read of a narrow (1/2-byte)
	// destination — and skips the register write and the flag work
	// entirely. The mapping is many-to-one (deadKind), so re-selection
	// always starts from the base kind recorded at lowering time, never
	// from the current code. These codes measured faster than nr-guarded
	// inline bodies or routing dead slots through their handlers (ROADMAP
	// direction 4).
	mkDeadNone  // no reads at all (mov r,imm / zero idioms / pxor x,x)
	mkDeadR     // reads src (mov r,r / movd r→x / wide movsx)
	mkDeadRD    // reads dst (wide imm ALU, inc/dec/neg/not, imm shifts)
	mkDeadRR    // reads dst then src (wide reg-reg ALU)
	mkDeadEA    // evaluates an address (lea)
	mkDeadLoad  // evaluates an address and loads (mov r,mem — can fault)
	mkDeadCmov  // reads condition flags, then src, then dst
	mkDeadSetcc // reads condition flags, merge-undef dst
	mkDeadN     // merge-undef dst only (narrow mov imm / narrow zero)
	mkDeadRN    // reads src, merge-undef dst (narrow mov r,r / narrow movsx)
	mkDeadRDN   // reads dst, merge-undef dst (narrow imm ALU, inc/dec/neg)
	mkDeadRRN   // reads dst then src, merge-undef dst (narrow reg-reg ALU)
	mkDeadX     // reads src xmm (movaps/movups x,x / pshufd)
	mkDeadXX    // reads src then dst xmm (shufps, packed ALU)
	mkDeadXLoad // reads an xmm-or-memory source (movups load — can fault)
)

// kindW tags a lowered slot with a hot-dispatch code when the destination
// is wide enough for the inline body's direct register store; a narrow one
// stays on the handler.
func (u *microOp) kindW(k microKind) {
	if u.w >= 4 {
		u.kind = k
	}
}

// handlerFn executes one pre-decoded instruction.
type handlerFn func(m *Machine, u *microOp)

// microOp is one compiled instruction slot. Field meaning depends on the
// handler; in points at the source instruction slot inside the compiled
// program (the generic fallback interprets it and memory handlers take
// their address operand from it — program slots are mutated in place and
// never reallocated, so the pointer stays valid across patches). Fields
// are ordered widest first so the struct fills exactly one 64-byte cache
// line (TestMicroOpFitsCacheLine pins it).
type microOp struct {
	run    handlerFn
	in     *x64.Inst
	mask   uint64
	sbit   uint64
	imm    uint64
	target int32 // jump destination (slot index)
	next   int32 // first live slot after this one: the fall-through pc
	// Static latency of this slot (Equation 13 term). Latencies are small
	// integers, so float32 is exact.
	lat  float32
	kind microKind
	ctl  bool // LABEL/JMP/Jcc/RET: patching this slot forces a relink
	w    uint8
	w2   uint8 // second width (movsx/movzx source)
	cc   x64.Cond
	dst  x64.Reg
	src  x64.Reg
	nf   bool // liveness: every flag this slot writes is dead (liveness.go)
	nr   bool // liveness: every register this slot writes is dead (liveness.go)
	// md and ms route a handler's destination or source operand through
	// memory: when non-zero, readDst/writeALU (md) or readSrc (ms) access
	// the memory operand in.Opd[md-1] / in.Opd[ms-1] instead of the dst /
	// src register, so one handler body serves both operand kinds.
	md uint8
	ms uint8
}

// setWidth bakes the destination width, its mask and its sign bit into u.
func (u *microOp) setWidth(w uint8) {
	u.w = w
	u.mask = widthMask(w)
	u.sbit = signBit(w)
}

// Compiled is the decode-once form of a program. It references the program
// it was compiled from; Patch re-lowers single slots after in-place
// mutation. A Compiled is not safe for concurrent use, matching the
// single-owner discipline of Machine.
type Compiled struct {
	prog *x64.Program
	ops  []microOp

	// hsum caches the program's static latency sum H (Equation 13),
	// maintained incrementally by Patch. Latencies are integral, so the
	// incremental float updates stay exact.
	hsum float64

	// live holds each slot's liveness summary and analysis result
	// (liveness.go), exit the packed set observable at every exit (every
	// flag, plus all registers for Compile or the kernel's live-out
	// masks for CompileLive), and minJSrc[t] the lowest-indexed jump
	// targeting slot t (-1 when none) — the early-stop barrier of the
	// incremental liveness recomputation. nrCount/wrCount maintain the
	// suppressed and register-writing slot counts incrementally, so the
	// per-proposal coverage counters are O(1) reads. All maintained by
	// link/Patch.
	live    []slotLive
	exit    liveSet
	minJSrc []int32
	nrCount int
	wrCount int
}

// StaticLatency returns the cached Equation 13 sum of the compiled
// program, equal to perf.H(c.Program()).
func (c *Compiled) StaticLatency() float64 { return c.hsum }

// Compile lowers p into its decode-once form. The returned Compiled
// references p: callers that mutate p must Patch (or Recompile) before the
// next RunCompiled. Every register is treated as observable at exit, so
// the compiled form agrees with the interpreter on the full final machine
// state (what the differential tests compare).
func Compile(p *x64.Program) *Compiled {
	return CompileLive(p, allRegsLive, allRegsLive)
}

// allRegsLive marks all 16 GPRs (or XMMs) live at exit.
const allRegsLive = 0xffff

// CompileLive is Compile with the exit observation narrowed to the given
// GPR and XMM live-out masks (bit r = register r live, whole-register
// granularity). The liveness pass then also suppresses register writes
// that only an exit would have observed — exactly the dead candidate
// writes the §4.2 cost function cannot see. Final values of non-live
// registers may differ from a full run (their definedness too); every
// other observable — live-out state, memory, flags at reads, the
// undef/sigsegv/sigfpe counters, step counts — is preserved. The search
// engine compiles candidates through this entry point with the kernel's
// live-out set; anything that compares full final state uses Compile.
func CompileLive(p *x64.Program, liveGPR, liveXMM uint16) *Compiled {
	c := &Compiled{
		prog:    p,
		ops:     make([]microOp, len(p.Insts)),
		live:    make([]slotLive, len(p.Insts)),
		minJSrc: make([]int32, len(p.Insts)),
		exit:    packLive(liveGPR, liveXMM, x64.AllFlags),
	}
	for i := range p.Insts {
		c.lowerSlot(i)
	}
	c.link()
	return c
}

// Program returns the program this compiled form mirrors.
func (c *Compiled) Program() *x64.Program { return c.prog }

// Recompile re-lowers every slot, for callers that rewrote the program
// wholesale (chain restarts).
func (c *Compiled) Recompile() {
	if len(c.ops) != len(c.prog.Insts) {
		c.ops = make([]microOp, len(c.prog.Insts))
		c.live = make([]slotLive, len(c.prog.Insts))
		c.minJSrc = make([]int32, len(c.prog.Insts))
		c.hsum = 0
		c.nrCount = 0
		c.wrCount = 0
	}
	for i := range c.prog.Insts {
		c.lowerSlot(i)
	}
	c.link()
}

// Patch re-lowers slot i from the (already mutated) program and repairs the
// skip chain around it. Edits that add or remove control structure trigger
// a full relink; proposal moves never do, so the common patch is O(length
// of the adjacent dead-slot run).
func (c *Compiled) Patch(i int) {
	wasCtl := c.ops[i].ctl
	c.lowerSlot(i)
	c.repairSlot(i, wasCtl)
}

// SavedSlot captures one slot's compiled state (micro-op and liveness
// summary), so an undone mutation can restore the slot without re-lowering
// it. The MCMC reject path — the majority of all proposals — pairs
// SaveSlot before Patch with RestoreSlot after, skipping the decode,
// liveness-summary and latency work of a second lowerSlot.
type SavedSlot struct {
	op microOp
	lv slotLive
}

// SaveSlot snapshots slot i. Capture it before Patch re-lowers the slot.
func (c *Compiled) SaveSlot(i int) SavedSlot {
	return SavedSlot{op: c.ops[i], lv: c.live[i]}
}

// RestoreSlot reinstates a snapshot of slot i after the program slot
// itself has been restored, repairing the skip chain and liveness exactly
// as Patch would. The snapshot must come from this Compiled and the
// program instruction must equal the one the snapshot was taken over.
func (c *Compiled) RestoreSlot(i int, s SavedSlot) {
	wasCtl := c.ops[i].ctl
	c.hsum += float64(s.op.lat) - float64(c.ops[i].lat)
	if s.op.nr != c.ops[i].nr {
		if s.op.nr {
			c.nrCount++
		} else {
			c.nrCount--
		}
	}
	if s.lv.writesRegs() != c.live[i].writesRegs() {
		if s.lv.writesRegs() {
			c.wrCount++
		} else {
			c.wrCount--
		}
	}
	c.ops[i] = s.op
	// Keep the current live-in/live-out as patchLiveness's baseline (see
	// lowerSlot): the undone patch may have re-selected upstream slots,
	// and the restore walk only reaches them if the baseline still
	// reflects that propagation.
	lv := &c.live[i]
	in, out := lv.in, lv.liveOut
	*lv = s.lv
	lv.in, lv.liveOut = in, out
	c.repairSlot(i, wasCtl)
}

// repairSlot is the shared tail of Patch and RestoreSlot: relink fully
// when control structure was (or becomes) involved, otherwise repair the
// skip chain around slot i and recompute liveness over the affected
// backward slice.
func (c *Compiled) repairSlot(i int, wasCtl bool) {
	u := &c.ops[i]
	if wasCtl || u.ctl {
		c.link()
		return
	}
	n := len(c.ops)
	// Recompute this slot's fall-through from its right neighbour, then
	// retarget every predecessor whose fall-through ran through it: the
	// dead-slot run immediately to the left, plus the first live slot
	// before that run.
	switch {
	case i+1 >= n:
		u.next = int32(n)
	case c.ops[i+1].kind != mkSkip:
		u.next = int32(i + 1)
	default:
		u.next = c.ops[i+1].next
	}
	t := int32(i)
	if u.kind == mkSkip {
		t = u.next
	}
	for j := i - 1; j >= 0; j-- {
		c.ops[j].next = t
		if c.ops[j].kind != mkSkip {
			break
		}
	}
	// The slot's new flag summary can flip liveness for the backward
	// slice ending at i; recompute it and re-select dispatch codes where
	// live-out changed (the slot itself always re-selects).
	c.patchLiveness(i)
}

// link computes skip-chain targets (right to left) and resolves jump
// targets with the same forward-scan semantics as the interpreter: the slot
// after the first matching label, or the program end when the label is
// missing (safe fall-off for unvalidated candidates).
func (c *Compiled) link() {
	n := len(c.ops)
	next := int32(n)
	for i := n - 1; i >= 0; i-- {
		u := &c.ops[i]
		u.next = next
		if u.kind != mkSkip {
			next = int32(i)
		}
	}
	for i := range c.ops {
		u := &c.ops[i]
		if u.kind != mkJmp && u.kind != mkJcc {
			continue
		}
		label := u.in.Opd[0].Label
		u.target = int32(n)
		for j := i + 1; j < n; j++ {
			if c.prog.Insts[j].Op == x64.LABEL && c.prog.Insts[j].Opd[0].Label == label {
				u.target = int32(j + 1)
				break
			}
		}
	}
	// Record, per slot, the lowest jump source targeting it (jumps are
	// forward-only, so sources always sit below their targets), then run
	// the full liveness pass and selection over the relinked
	// program.
	for i := range c.minJSrc {
		c.minJSrc[i] = -1
	}
	for i := range c.ops {
		u := &c.ops[i]
		if u.kind != mkJmp && u.kind != mkJcc {
			continue
		}
		if t := int(u.target); t < n && c.minJSrc[t] < 0 {
			c.minJSrc[t] = int32(i)
		}
	}
	c.computeLiveness()
}

// lowerSlot decodes prog.Insts[i] into ops[i]. Skip-chain and jump targets
// are left to link/Patch.
func (c *Compiled) lowerSlot(i int) {
	in := &c.prog.Insts[i]
	u := &c.ops[i]
	lv := &c.live[i]
	c.hsum -= float64(u.lat) // a stale slot's latency leaves the sum (zero when fresh)
	// Retire the stale slot's counter contributions before overwriting.
	if u.nr {
		c.nrCount--
	}
	if lv.writesRegs() {
		c.wrCount--
	}
	*u = microOp{in: in}
	// The live-in/live-out results survive the re-lowering: they are
	// patchLiveness's baseline for deciding how far a change propagates,
	// and must keep describing the state the upstream slots were last
	// selected against.
	*lv = slotLive{in: lv.in, liveOut: lv.liveOut}
	u.lat = float32(perf.LatencyOf(in))
	c.hsum += float64(u.lat)
	switch in.Op {
	case x64.UNUSED:
		u.kind = mkSkip
		lv.base = mkSkip
		return
	case x64.LABEL:
		u.kind = mkSkip
		u.ctl = true
		lv.base = mkSkip
		return
	case x64.RET:
		u.kind = mkRet
		u.ctl = true
		// An exit observes every flag and the live-out registers (all of
		// them under plain Compile).
		lv.base = mkRet
		lv.gen = c.exit
		return
	case x64.JMP:
		u.kind = mkJmp
		u.ctl = true
		lv.base = mkJmp
		return
	case x64.Jcc:
		u.kind = mkJcc
		u.ctl = true
		u.cc = in.CC
		lv.base = mkJcc
		lv.gen = liveSet(x64.FlagsReadByCond(in.CC))
		return
	}
	u.kind = mkExec
	lowerExec(u, in)
	if u.md|u.ms != 0 {
		// Memory-routed operands have no inline body: the run loop's hot
		// codes read and write registers directly.
		u.kind = mkExec
	}
	var memWrite bool
	lv.gen, lv.kill, lv.write, memWrite = liveSummary(in)
	lv.base = u.kind
	// Write suppression applies only to specialised slots (the dead codes
	// and nr guards replicate exactly those bodies' reads; hGeneric runs
	// the interpreter and cannot skip its stores) that write at least one
	// register and no memory. A memory destination (md) writes memory; a
	// memory source (ms) is only another read, which the handler performs
	// before writeALU skips the dead store. Pop is excluded too: its
	// RSP/load chain isn't worth a suppressed shape.
	if u.kind == mkExec && u.run == nil {
		u.run = hGeneric
	} else {
		lv.eligible = u.md == 0 && lv.writesRegs() && !memWrite && in.Op != x64.POP
	}
	if lv.writesRegs() {
		c.wrCount++
	}
}

// lowerExec picks a specialised handler for the instruction's opcode and
// operand shape, leaving u.run nil (the generic fallback) for shapes
// outside the opcode signature table.
func lowerExec(u *microOp, in *x64.Inst) {
	switch in.Op {
	case x64.MOV, x64.MOVABS, x64.MOVZX:
		lowerMov(u, in)

	case x64.MOVSX:
		s, d := in.Opd[0], in.Opd[1]
		if d.Kind != x64.KindReg || !u.srcOperand(s, 1) {
			return
		}
		u.dst = d.Reg
		u.setWidth(d.Width)
		u.w2 = s.Width
		u.run = hMovsx
		u.kind = mkMovsxRR

	case x64.ADD, x64.SUB, x64.AND, x64.OR, x64.XOR, x64.ADC, x64.SBB:
		lowerALU(u, in)

	case x64.CMP:
		d, s := in.Opd[1], in.Opd[0]
		if !u.dstOperand(d, 2) {
			return
		}
		if s.Kind == x64.KindImm {
			u.imm = uint64(s.Imm) & widthMask(s.Width)
			u.run = hCmpRI
			u.kind = mkCmpRI
		} else if u.aluSource(s, d) {
			u.run = hCmpRR
			u.kind = mkCmpRR
		}

	case x64.TEST:
		d, s := in.Opd[1], in.Opd[0]
		if !u.dstOperand(d, 2) {
			return
		}
		switch s.Kind {
		case x64.KindReg:
			if s.Width == d.Width {
				u.src = s.Reg
				u.run = hTestRR
				u.kind = mkTestRR
			}
		case x64.KindImm:
			u.imm = uint64(s.Imm) & widthMask(s.Width)
			u.run = hTestRI
			u.kind = mkTestRI
		}

	case x64.LEA:
		d := in.Opd[1]
		if d.Kind == x64.KindReg {
			u.dst = d.Reg
			u.setWidth(d.Width)
			u.kind = mkLeaW // lea has 32- and 64-bit destinations only
		}

	case x64.INC, x64.DEC:
		if !u.dstOperand(in.Opd[0], 1) {
			return
		}
		if in.Op == x64.INC {
			u.run = hIncR
			u.kind = mkInc
		} else {
			u.run = hDecR
			u.kind = mkDec
		}

	case x64.NEG, x64.NOT:
		if !u.dstOperand(in.Opd[0], 1) {
			return
		}
		if in.Op == x64.NEG {
			u.run = hNegR
			u.kind = mkNeg
		} else {
			u.run = hNotR
			u.kindW(mkNotW)
		}

	case x64.IMUL:
		d, s := in.Opd[1], in.Opd[0]
		if d.Kind != x64.KindReg {
			return
		}
		u.dst = d.Reg
		u.setWidth(d.Width)
		if u.aluSource(s, d) {
			u.run = hImulRR
		}

	case x64.IMUL3:
		d, s, im := in.Opd[2], in.Opd[1], in.Opd[0]
		if d.Kind == x64.KindReg && s.Width == d.Width && u.srcOperand(s, 2) {
			u.dst = d.Reg
			u.setWidth(d.Width)
			u.imm = uint64(im.Imm) & widthMask(d.Width)
			u.run = hImul3RR
		}

	case x64.MUL, x64.IMUL1:
		s := in.Opd[0]
		if u.srcOperand(s, 1) {
			u.setWidth(s.Width)
			if in.Op == x64.MUL {
				u.run = hMul1R
			} else {
				u.run = hImul1R
			}
		}

	case x64.DIV, x64.IDIV:
		lowerDiv(u, in)

	case x64.SHL, x64.SHR, x64.SAR, x64.ROL, x64.ROR:
		lowerShift(u, in)

	case x64.SHLD, x64.SHRD:
		cnt, s, d := in.Opd[0], in.Opd[1], in.Opd[2]
		if d.Kind == x64.KindReg && s.Kind == x64.KindReg &&
			s.Width == d.Width && cnt.Kind == x64.KindImm {
			u.dst, u.src = d.Reg, s.Reg
			u.setWidth(d.Width)
			countMask := uint64(31)
			if d.Width == 8 {
				countMask = 63
			}
			u.imm = uint64(cnt.Imm) & countMask
			if in.Op == x64.SHLD {
				u.run = hShldI
			} else {
				u.run = hShrdI
			}
		}

	case x64.XCHG:
		a, b := in.Opd[0], in.Opd[1]
		if a.Kind == x64.KindReg && b.Kind == x64.KindReg && a.Width == b.Width {
			u.src, u.dst = a.Reg, b.Reg
			u.setWidth(a.Width)
			u.run = hXchgRR
		}

	case x64.PUSH:
		s := in.Opd[0]
		switch s.Kind {
		case x64.KindReg:
			u.src = s.Reg
			u.run = hPushR
		case x64.KindImm:
			u.imm = uint64(s.Imm) & widthMask(s.Width)
			u.run = hPushI
		}

	case x64.POP:
		d := in.Opd[0]
		if d.Kind == x64.KindReg {
			u.dst = d.Reg
			u.run = hPopR
		}

	case x64.POPCNT:
		d, s := in.Opd[1], in.Opd[0]
		if d.Kind == x64.KindReg && s.Width == d.Width && u.srcOperand(s, 1) {
			u.dst = d.Reg
			u.setWidth(d.Width)
			u.run = hPopcntRR
		}

	case x64.BSF, x64.BSR:
		d, s := in.Opd[1], in.Opd[0]
		if d.Kind == x64.KindReg && s.Kind == x64.KindReg && s.Width == d.Width {
			u.dst, u.src = d.Reg, s.Reg
			u.setWidth(d.Width)
			if in.Op == x64.BSF {
				u.run = hBsfRR
			} else {
				u.run = hBsrRR
			}
		}

	case x64.BSWAP:
		d := in.Opd[0]
		if d.Kind == x64.KindReg {
			u.dst = d.Reg
			u.setWidth(d.Width)
			u.run = hBswapR
		}

	case x64.BT:
		d, s := in.Opd[1], in.Opd[0]
		if d.Kind != x64.KindReg {
			return
		}
		u.dst = d.Reg
		u.setWidth(d.Width)
		switch s.Kind {
		case x64.KindReg:
			if s.Width == d.Width {
				u.src = s.Reg
				u.run = hBtRR
			}
		case x64.KindImm:
			u.imm = uint64(s.Imm) & widthMask(s.Width)
			u.run = hBtRI
		}

	case x64.CMOVcc:
		d, s := in.Opd[1], in.Opd[0]
		if d.Kind == x64.KindReg && s.Kind == x64.KindReg && s.Width == d.Width {
			u.dst, u.src = d.Reg, s.Reg
			u.setWidth(d.Width)
			u.cc = in.CC
			u.run = hCmovRR
			u.kindW(mkCmovRRW)
		}

	case x64.SETcc:
		if u.dstOperand(in.Opd[0], 1) {
			u.cc = in.CC
			u.run = hSetcc
			u.kind = mkSetcc
		}

	case x64.MOVD, x64.MOVQX, x64.MOVUPS, x64.MOVAPS,
		x64.SHUFPS, x64.PSHUFD,
		x64.PADDW, x64.PSUBW, x64.PMULLW,
		x64.PADDD, x64.PSUBD, x64.PMULLD, x64.PADDQ,
		x64.PAND, x64.POR, x64.PXOR,
		x64.PSLLD, x64.PSRLD, x64.PSLLQ, x64.PSRLQ:
		lowerSSE(u, in)
	}
}

func lowerMov(u *microOp, in *x64.Inst) {
	s, d := in.Opd[0], in.Opd[1]
	switch {
	case d.Kind == x64.KindReg && s.Kind == x64.KindReg:
		u.dst, u.src, u.w = d.Reg, s.Reg, d.Width
		u.mask = widthMask(s.Width)
		u.kind = mkMovRR
	case d.Kind == x64.KindReg && s.Kind == x64.KindImm:
		u.dst, u.w = d.Reg, d.Width
		u.imm = uint64(s.Imm) & widthMask(s.Width)
		u.kind = mkMovRI
	case d.Kind == x64.KindReg && s.Kind == x64.KindMem:
		u.dst = d.Reg
		if d.Width >= 4 {
			u.w = s.Width
			u.kind = mkMovLoadW
		} else {
			u.w = d.Width
			u.w2 = s.Width
			u.run = hMovLoadN
		}
	case d.Kind == x64.KindMem && s.Kind == x64.KindReg && s.Width == d.Width:
		u.src, u.w = s.Reg, s.Width
		u.kind = mkMovStoreR
	case d.Kind == x64.KindMem && s.Kind == x64.KindImm:
		u.w = d.Width
		u.imm = uint64(s.Imm) & widthMask(s.Width)
		u.run = hMovStoreI
	}
}

func lowerALU(u *microOp, in *x64.Inst) {
	d, s := in.Opd[1], in.Opd[0]
	if !u.dstOperand(d, 2) {
		return
	}
	if (in.Op == x64.XOR || in.Op == x64.SUB) && d.Kind == x64.KindReg &&
		s.Kind == x64.KindReg && s.Reg == d.Reg && s.Width == d.Width {
		u.kind = mkZero
		return
	}
	if s.Kind == x64.KindImm {
		u.imm = uint64(s.Imm) & widthMask(s.Width)
		switch in.Op {
		case x64.ADD:
			u.run, u.kind = hAddRI, mkAddRI
		case x64.SUB:
			u.run, u.kind = hSubRI, mkSubRI
		case x64.AND:
			u.run, u.kind = hAndRI, mkAndRI
		case x64.OR:
			u.run, u.kind = hOrRI, mkOrRI
		case x64.XOR:
			u.run, u.kind = hXorRI, mkXorRI
		case x64.ADC:
			u.run = hAdcRI
		case x64.SBB:
			u.run = hSbbRI
		}
		return
	}
	if !u.aluSource(s, d) {
		return
	}
	switch in.Op {
	case x64.ADD:
		u.run, u.kind = hAddRR, mkAddRR
	case x64.SUB:
		u.run, u.kind = hSubRR, mkSubRR
	case x64.AND:
		u.run, u.kind = hAndRR, mkAndRR
	case x64.OR:
		u.run, u.kind = hOrRR, mkOrRR
	case x64.XOR:
		u.run, u.kind = hXorRR, mkXorRR
	case x64.ADC:
		u.run = hAdcRR
	case x64.SBB:
		u.run = hSbbRR
	}
}

// aluSource lowers the register or memory source of a two-operand ALU
// shape whose destination d is already lowered: same width as d, and at
// most one memory operand. A memory source takes the ms route, so the
// register form's handler serves it (lowerSlot drops the inline code).
func (u *microOp) aluSource(s, d x64.Operand) bool {
	if s.Width != d.Width || s.Kind == x64.KindMem && d.Kind == x64.KindMem {
		return false
	}
	return u.srcOperand(s, 1)
}

// dstOperand lowers a destination operand at operand index k-1: a
// register into u.dst, a memory operand into the md route (readDst and
// writeALU then load from and store to it). It bakes the width in and
// reports false for any other operand kind.
func (u *microOp) dstOperand(d x64.Operand, k uint8) bool {
	switch d.Kind {
	case x64.KindReg:
		u.dst = d.Reg
	case x64.KindMem:
		u.md = k
	default:
		return false
	}
	u.setWidth(d.Width)
	return true
}

// srcOperand lowers a source operand at operand index k-1 — a register
// into u.src, a memory operand into the ms route that readSrc loads
// through — reporting false for any other operand kind.
func (u *microOp) srcOperand(s x64.Operand, k uint8) bool {
	switch s.Kind {
	case x64.KindReg:
		u.src = s.Reg
	case x64.KindMem:
		u.ms = k
	default:
		return false
	}
	return true
}

func lowerShift(u *microOp, in *x64.Inst) {
	d, s := in.Opd[1], in.Opd[0]
	if !u.dstOperand(d, 2) {
		return
	}
	countMask := uint64(31)
	if d.Width == 8 {
		countMask = 63
	}
	byCL := false
	switch s.Kind {
	case x64.KindImm:
		u.imm = uint64(s.Imm) & countMask
	case x64.KindReg:
		byCL = true
	default:
		return
	}
	type pair struct{ imm, cl handlerFn }
	var h pair
	switch in.Op {
	case x64.SHL:
		h = pair{hShlI, hShlCL}
	case x64.SHR:
		h = pair{hShrI, hShrCL}
	case x64.SAR:
		h = pair{hSarI, hSarCL}
	case x64.ROL:
		h = pair{hRolI, hRolCL}
	case x64.ROR:
		h = pair{hRorI, hRorCL}
	}
	if byCL {
		u.run = h.cl
		return
	}
	u.run = h.imm
	// Nonzero immediate counts get inline dispatch codes; a masked count
	// of zero only rewrites the destination, which the handler handles.
	if u.imm != 0 {
		switch in.Op {
		case x64.SHL:
			u.kindW(mkShlIW)
		case x64.SHR:
			u.kindW(mkShrIW)
		case x64.SAR:
			u.kindW(mkSarIW)
		}
	}
}

// RunCompiled executes a compiled program from the current machine state.
// It is the execute phase of the two-phase pipeline and agrees with Run on
// every observable: Outcome counters, registers, flags, memory and
// definedness (the randomized differential tests pin this).
//
// The compiled pc advances strictly forward (skip chains, jump targets and
// fall-throughs all point past the current slot), so Steps never exceeds
// the slot count and the per-slot exhaustion check is provably dead
// whenever the program fits the step budget; the loop runs without it. A
// program longer than the budget (never a search candidate: ℓ is far
// below the default budget) runs on the interpreter instead, whose
// exhaustion check makes every slot a potential exit — where the liveness
// pass's suppressed forms would be unsound.
func (m *Machine) RunCompiled(c *Compiled) Outcome {
	if len(c.ops) > m.MaxSteps {
		return m.Run(c.prog)
	}
	var out Outcome
	var pc uint
	steps := 0
	ops := c.ops
	n := uint(len(ops))
	// pc is unsigned and the loop condition bounds it, so the slot access
	// compiles without a bounds check; next/target are non-negative by
	// construction (link clamps them to [0, n]).
	for pc < n {
		u := &ops[pc]
		// Read the fall-through early: handlers never mutate the compiled
		// form, and lifting the load off the loop-carried dependency lets
		// it overlap the slot body.
		nx := uint(u.next)
		switch u.kind {
		case mkSkip:
			pc = uint(u.next)
			continue
		case mkRet:
			pc = n
			continue
		case mkJmp:
			steps++
			pc = uint(u.target)
			continue
		case mkJcc:
			steps++
			if x64.EvalCond(u.cc, m.readFlagsFor(u.cc)) {
				pc = uint(u.target)
			} else {
				pc = uint(u.next)
			}
			continue
		case mkMovRR:
			r := m.readReg(u.src, u.mask)
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkMovRI:
			if u.w >= 4 {
				m.setReg(u.dst, u.imm)
			} else {
				m.writeGPR(u.dst, u.w, u.imm)
			}
		case mkMovLoadW:
			m.setReg(u.dst, m.load(m.effectiveAddr(u.in.Opd[0]), int(u.w)))
		case mkMovStoreR:
			v := m.readReg(u.src, widthMask(u.w))
			m.store(m.effectiveAddr(u.in.Opd[1]), int(u.w), v)
		case mkAddRR:
			a := m.readReg(u.dst, u.mask)
			b := m.readReg(u.src, u.mask)
			r := (a + b) & u.mask
			if !u.nf {
				m.putFlags(x64.AllFlags, addBits(a, b, 0, r, u))
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkAddRI:
			a := m.readReg(u.dst, u.mask)
			r := (a + u.imm) & u.mask
			if !u.nf {
				m.putFlags(x64.AllFlags, addBits(a, u.imm, 0, r, u))
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkSubRR:
			a := m.readReg(u.dst, u.mask)
			b := m.readReg(u.src, u.mask)
			r := (a - b) & u.mask
			if !u.nf {
				m.putFlags(x64.AllFlags, subBits(a, b, 0, r, u))
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkSubRI:
			a := m.readReg(u.dst, u.mask)
			r := (a - u.imm) & u.mask
			if !u.nf {
				m.putFlags(x64.AllFlags, subBits(a, u.imm, 0, r, u))
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkAndRR:
			a := m.readReg(u.dst, u.mask)
			b := m.readReg(u.src, u.mask)
			r := a & b
			if !u.nf {
				m.putFlags(x64.AllFlags, szpBits(r, u.sbit))
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkAndRI:
			a := m.readReg(u.dst, u.mask)
			r := a & u.imm
			if !u.nf {
				m.putFlags(x64.AllFlags, szpBits(r, u.sbit))
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkOrRR:
			a := m.readReg(u.dst, u.mask)
			b := m.readReg(u.src, u.mask)
			r := a | b
			if !u.nf {
				m.putFlags(x64.AllFlags, szpBits(r, u.sbit))
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkOrRI:
			a := m.readReg(u.dst, u.mask)
			r := a | u.imm
			if !u.nf {
				m.putFlags(x64.AllFlags, szpBits(r, u.sbit))
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkXorRR:
			a := m.readReg(u.dst, u.mask)
			b := m.readReg(u.src, u.mask)
			r := a ^ b
			if !u.nf {
				m.putFlags(x64.AllFlags, szpBits(r, u.sbit))
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkXorRI:
			a := m.readReg(u.dst, u.mask)
			r := a ^ u.imm
			if !u.nf {
				m.putFlags(x64.AllFlags, szpBits(r, u.sbit))
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkZero:
			if !u.nf {
				m.putFlags(x64.AllFlags, x64.ZF|x64.PF)
			}
			if u.w >= 4 {
				m.setReg(u.dst, 0)
			} else {
				m.writeGPR(u.dst, u.w, 0)
			}
		case mkCmpRR:
			a := m.readReg(u.dst, u.mask)
			b := m.readReg(u.src, u.mask)
			if !u.nf {
				m.putFlags(x64.AllFlags, subBits(a, b, 0, (a-b)&u.mask, u))
			}
		case mkCmpRI:
			a := m.readReg(u.dst, u.mask)
			if !u.nf {
				m.putFlags(x64.AllFlags, subBits(a, u.imm, 0, (a-u.imm)&u.mask, u))
			}
		case mkTestRR:
			a := m.readReg(u.dst, u.mask)
			b := m.readReg(u.src, u.mask)
			if !u.nf {
				m.putFlags(x64.AllFlags, szpBits(a&b, u.sbit))
			}
		case mkTestRI:
			a := m.readReg(u.dst, u.mask)
			if !u.nf {
				m.putFlags(x64.AllFlags, szpBits(a&u.imm, u.sbit))
			}
		case mkLeaW:
			m.setReg(u.dst, m.effectiveAddr(u.in.Opd[0])&u.mask)
		case mkCmovRRW:
			taken := x64.EvalCond(u.cc, m.readFlagsFor(u.cc))
			src := m.readReg(u.src, u.mask)
			dst := m.readReg(u.dst, u.mask)
			v := dst
			if taken {
				v = src
			}
			m.setReg(u.dst, v)
		case mkInc:
			a := m.readReg(u.dst, u.mask)
			r := (a + 1) & u.mask
			if !u.nf {
				fl := szpBits(r, u.sbit)
				if r == u.sbit {
					fl |= x64.OF
				}
				m.putFlags(incDecFlags, fl)
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkDec:
			a := m.readReg(u.dst, u.mask)
			r := (a - 1) & u.mask
			if !u.nf {
				fl := szpBits(r, u.sbit)
				if a == u.sbit {
					fl |= x64.OF
				}
				m.putFlags(incDecFlags, fl)
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkNeg:
			a := m.readReg(u.dst, u.mask)
			r := (-a) & u.mask
			if !u.nf {
				fl := szpBits(r, u.sbit)
				if a != 0 {
					fl |= x64.CF
				}
				if a == u.sbit {
					fl |= x64.OF
				}
				m.putFlags(x64.AllFlags, fl)
			}
			if u.w >= 4 {
				m.setReg(u.dst, r)
			} else {
				m.writeGPR(u.dst, u.w, r)
			}
		case mkNotW:
			a := m.readReg(u.dst, u.mask)
			m.setReg(u.dst, ^a&u.mask)
		case mkSetcc:
			v := uint64(0)
			if x64.EvalCond(u.cc, m.readFlagsFor(u.cc)) {
				v = 1
			}
			m.writeGPR(u.dst, 1, v)
		case mkMovsxRR:
			v := m.readReg(u.src, widthMask(u.w2))
			inv := 64 - 8*uint(u.w2)
			m.writeALU(u, uint64(int64(v<<inv)>>inv)&u.mask)
		case mkShlIW:
			a := m.readReg(u.dst, u.mask)
			shlCore(m, u, a, u.imm)
		case mkShrIW:
			a := m.readReg(u.dst, u.mask)
			shrCore(m, u, a, u.imm)
		case mkSarIW:
			a := m.readReg(u.dst, u.mask)
			sarCore(m, u, a, u.imm)

		case mkMovdRX:
			m.writeXmm(u.dst, [2]uint64{m.readReg(u.src, u.mask), 0})
		case mkMovXX:
			m.writeXmm(u.dst, m.readXmmOp(u.src))
		case mkMovupsLoad:
			m.writeXmm(u.dst, m.readXmmOrMem(u.in.Opd[0]))
		case mkMovupsStore:
			m.writeXmmMem(u.in.Opd[1], m.readXmmOp(u.src))
		case mkShufps:
			hShufps(m, u)
		case mkPshufd:
			hPshufd(m, u)
		case mkPAddW:
			m.packedRR(u, x64.PADDW)
		case mkPSubW:
			m.packedRR(u, x64.PSUBW)
		case mkPMullW:
			m.packedRR(u, x64.PMULLW)
		case mkPAddD:
			m.packedRR(u, x64.PADDD)
		case mkPSubD:
			m.packedRR(u, x64.PSUBD)
		case mkPMullD:
			m.packedRR(u, x64.PMULLD)
		case mkPAddQ:
			m.packedRR(u, x64.PADDQ)
		case mkPAnd:
			m.packedRR(u, x64.PAND)
		case mkPOr:
			m.packedRR(u, x64.POR)
		case mkPXor:
			m.packedRR(u, x64.PXOR)
		case mkPXorZero:
			m.writeXmm(u.dst, [2]uint64{0, 0})

		// Write-suppressed codes: exactly the reads of the base shape
		// (same undef/sigsegv accounting, merge reads of narrow
		// destinations included), no register write, no flag work — every
		// register and flag these slots write is provably rewritten
		// before any read or exit.
		case mkDeadNone:
		case mkDeadR:
			m.readReg(u.src, u.mask)
		case mkDeadRD:
			m.readReg(u.dst, u.mask)
		case mkDeadRR:
			m.readReg(u.dst, u.mask)
			m.readReg(u.src, u.mask)
		case mkDeadEA:
			m.effectiveAddr(u.in.Opd[0])
		case mkDeadLoad:
			m.load(m.effectiveAddr(u.in.Opd[0]), int(u.w))
		case mkDeadCmov:
			m.readFlagsFor(u.cc)
			m.readReg(u.src, u.mask)
			m.readReg(u.dst, u.mask)
		case mkDeadSetcc:
			m.readFlagsFor(u.cc)
			m.undef += int(^m.RegDef >> u.dst & 1)
		case mkDeadN:
			m.undef += int(^m.RegDef >> u.dst & 1)
		case mkDeadRN:
			m.readReg(u.src, u.mask)
			m.undef += int(^m.RegDef >> u.dst & 1)
		case mkDeadRDN:
			m.readReg(u.dst, u.mask)
			m.undef += int(^m.RegDef >> u.dst & 1)
		case mkDeadRRN:
			m.readReg(u.dst, u.mask)
			m.readReg(u.src, u.mask)
			m.undef += int(^m.RegDef >> u.dst & 1)
		case mkDeadX:
			m.readXmmOp(u.src)
		case mkDeadXX:
			m.readXmmOp(u.src)
			m.readXmmOp(u.dst)
		case mkDeadXLoad:
			m.readXmmOrMem(u.in.Opd[0])
		default:
			u.run(m, u)
		}
		steps++
		pc = nx
	}
	out.Steps = steps
	out.SigSegv = m.sigsegv
	out.SigFpe = m.sigfpe
	out.Undef = m.undef
	return out
}

// --- handlers ------------------------------------------------------------
//
// Every handler replicates the interpreter's semantics exactly, including
// the order and multiplicity of undef-read counting and the hardware merge
// rules for narrow register writes: a 4- or 8-byte destination takes the
// pre-masked value directly (32-bit writes zero-extend), a 1- or 2-byte one
// merges with the old value, counting an undef read of the destination as
// writeGPR does. Register-destination bodies make that choice in writeALU;
// hMovLoadN serves the narrow destinations of mov r,mem (the mkMovLoadW
// inline body the wide ones). Flag-writing handlers accumulate the update
// into one x64.FlagSet and store it with a single masked write (putFlags),
// which the interpreter's per-flag setFlag calls are the reference for.

func hGeneric(m *Machine, u *microOp) {
	m.generic++
	if !u.nf {
		m.exec(u.in)
		return
	}
	// The liveness pass proved every flag this slot writes dead, but the
	// interpreter switch underneath always writes. Restoring the flag
	// words afterwards suppresses exactly those dead writes: in-exec flag
	// *reads* (ADC, RCL, ...) see the pre-exec values untouched, and their
	// undef accounting happens inside exec before the restore.
	flags, def := m.Flags, m.FlagsDef
	m.exec(u.in)
	m.Flags, m.FlagsDef = flags, def
}

func (m *Machine) readReg(r x64.Reg, mask uint64) uint64 {
	// Branch-free undef accounting: whether a slot reads a defined
	// register is data- and candidate-dependent, so the branch form
	// mispredicts on the search workload (measured; same trick as flagIf).
	m.undef += int(^m.RegDef >> r & 1)
	return m.Regs[r] & mask
}

func (m *Machine) setReg(r x64.Reg, v uint64) {
	m.Regs[r] = v
	m.RegDef |= 1 << r
	m.regsWritten |= 1 << r
}

// putFlags overwrites the flags in fmask with fl and marks them defined.
func (m *Machine) putFlags(fmask, fl x64.FlagSet) {
	m.Flags = m.Flags&^fmask | fl
	m.FlagsDef |= fmask
}

// flagIf returns f when v is non-zero — branch-free, because SF/ZF/PF/CF
// outcomes are data-random on the search workload and would mispredict.
func flagIf(v uint64, f x64.FlagSet) x64.FlagSet {
	return f & -x64.FlagSet((v|-v)>>63)
}

// flagIfZero returns f when v is zero, branch-free.
func flagIfZero(v uint64, f x64.FlagSet) x64.FlagSet {
	return f & (x64.FlagSet((v|-v)>>63) - 1)
}

// szpBits computes SF, ZF and PF for a width-masked result whose sign bit
// is sbit (the fused equivalent of szpFlags).
func szpBits(r, sbit uint64) x64.FlagSet {
	fl := flagIf(r&sbit, x64.SF) | flagIfZero(r, x64.ZF)
	fl |= x64.PF & -x64.FlagSet(uint8(bits.OnesCount8(uint8(r))&1)^1)
	return fl
}

// addBits computes the full flag word for r = (a + b + carryIn) & mask at
// the width described by u (the fused equivalent of addFlags).
func addBits(a, b, carryIn, r uint64, u *microOp) x64.FlagSet {
	fl := szpBits(r, u.sbit)
	if u.w == 8 {
		t := a + b
		if t < a || t+carryIn < t {
			fl |= x64.CF
		}
	} else {
		fl |= flagIf((a+b+carryIn)>>(8*uint(u.w)), x64.CF)
	}
	return fl | flagIf((a^r)&(b^r)&u.sbit, x64.OF)
}

// subBits computes the full flag word for r = (a - b - borrowIn) & mask
// (the fused equivalent of subFlags).
func subBits(a, b, borrowIn, r uint64, u *microOp) x64.FlagSet {
	fl := szpBits(r, u.sbit)
	if a < b || a-b < borrowIn {
		fl |= x64.CF
	}
	return fl | flagIf((a^b)&(a^r)&u.sbit, x64.OF)
}

func hMovLoadN(m *Machine, u *microOp) {
	v := m.load(m.effectiveAddr(u.in.Opd[0]), int(u.w2))
	if u.nr {
		m.undef += int(^m.RegDef >> u.dst & 1)
		return
	}
	m.writeGPR(u.dst, u.w, v)
}

func hMovStoreI(m *Machine, u *microOp) {
	m.store(m.effectiveAddr(u.in.Opd[1]), int(u.w), u.imm)
}

func hMovsx(m *Machine, u *microOp) {
	var v uint64
	if u.ms != 0 {
		v = m.load(m.effectiveAddr(u.in.Opd[0]), int(u.w2))
	} else {
		v = m.readReg(u.src, widthMask(u.w2))
	}
	inv := 64 - 8*uint(u.w2)
	m.writeALU(u, uint64(int64(v<<inv)>>inv)&u.mask)
}

// readDst reads the destination operand of a read-modify-write (or
// compare) body: the dst register, or — on the md route — a u.w-byte load
// through the memory operand, counting undef and sigsegv as the
// interpreter's readOperand does.
func (m *Machine) readDst(u *microOp) uint64 {
	if u.md != 0 {
		return m.load(m.effectiveAddr(u.in.Opd[u.md-1]), int(u.w))
	}
	return m.readReg(u.dst, u.mask)
}

// readSrc reads the source operand: the src register, or — on the ms
// route — a u.w-byte load through the memory operand.
func (m *Machine) readSrc(u *microOp) uint64 {
	if u.ms != 0 {
		return m.load(m.effectiveAddr(u.in.Opd[u.ms-1]), int(u.w))
	}
	return m.readReg(u.src, u.mask)
}

// writeALU stores a pre-masked result into the destination with the
// hardware width rules. It is the single write chokepoint of every
// handler-dispatched ALU-shaped body. A memory destination (md route)
// resolves its address a second time for the store, exactly as the
// interpreter's writeOperand does after its readOperand: an undefined
// base or index and an unmapped address are counted on the load and again
// on the store. Register destinations honour the register-liveness nr
// bit: a suppressed narrow write still counts the merge read of an
// undefined destination (writeGPR counts it before merging), then skips
// the store and the definedness update.
func (m *Machine) writeALU(u *microOp, r uint64) {
	if u.md != 0 {
		m.store(m.effectiveAddr(u.in.Opd[u.md-1]), int(u.w), r)
		return
	}
	if u.nr {
		if u.w < 4 {
			m.undef += int(^m.RegDef >> u.dst & 1)
		}
		return
	}
	if u.w >= 4 {
		m.setReg(u.dst, r)
	} else {
		m.writeGPR(u.dst, u.w, r)
	}
}

func hAddRR(m *Machine, u *microOp) {
	a := m.readDst(u)
	b := m.readSrc(u)
	r := (a + b) & u.mask
	if !u.nf {
		m.putFlags(x64.AllFlags, addBits(a, b, 0, r, u))
	}
	m.writeALU(u, r)
}

func hAddRI(m *Machine, u *microOp) {
	a := m.readDst(u)
	r := (a + u.imm) & u.mask
	if !u.nf {
		m.putFlags(x64.AllFlags, addBits(a, u.imm, 0, r, u))
	}
	m.writeALU(u, r)
}

func hSubRR(m *Machine, u *microOp) {
	a := m.readDst(u)
	b := m.readSrc(u)
	r := (a - b) & u.mask
	if !u.nf {
		m.putFlags(x64.AllFlags, subBits(a, b, 0, r, u))
	}
	m.writeALU(u, r)
}

func hSubRI(m *Machine, u *microOp) {
	a := m.readDst(u)
	r := (a - u.imm) & u.mask
	if !u.nf {
		m.putFlags(x64.AllFlags, subBits(a, u.imm, 0, r, u))
	}
	m.writeALU(u, r)
}

// carryIn reads CF for adc/sbb, counting an undef read when CF is
// undefined, as the interpreter does.
func (m *Machine) carryIn() uint64 {
	// CF is FlagSet bit zero, so both the undef count and the carry value
	// are single-bit extractions (branch-free, like readReg).
	m.undef += int(^m.FlagsDef & x64.CF)
	return uint64(m.Flags & x64.CF)
}

func hAdcRR(m *Machine, u *microOp) {
	a := m.readDst(u)
	b := m.readSrc(u)
	c := m.carryIn()
	r := (a + b + c) & u.mask
	if !u.nf {
		m.putFlags(x64.AllFlags, addBits(a, b, c, r, u))
	}
	m.writeALU(u, r)
}

func hAdcRI(m *Machine, u *microOp) {
	a := m.readDst(u)
	c := m.carryIn()
	r := (a + u.imm + c) & u.mask
	if !u.nf {
		m.putFlags(x64.AllFlags, addBits(a, u.imm, c, r, u))
	}
	m.writeALU(u, r)
}

func hSbbRR(m *Machine, u *microOp) {
	a := m.readDst(u)
	b := m.readSrc(u)
	c := m.carryIn()
	r := (a - b - c) & u.mask
	if !u.nf {
		m.putFlags(x64.AllFlags, subBits(a, b, c, r, u))
	}
	m.writeALU(u, r)
}

func hSbbRI(m *Machine, u *microOp) {
	a := m.readDst(u)
	c := m.carryIn()
	r := (a - u.imm - c) & u.mask
	if !u.nf {
		m.putFlags(x64.AllFlags, subBits(a, u.imm, c, r, u))
	}
	m.writeALU(u, r)
}

func logicBits(r uint64, u *microOp) x64.FlagSet { return szpBits(r, u.sbit) }

func hAndRR(m *Machine, u *microOp) {
	a := m.readDst(u)
	b := m.readSrc(u)
	r := a & b
	if !u.nf {
		m.putFlags(x64.AllFlags, logicBits(r, u))
	}
	m.writeALU(u, r)
}

func hAndRI(m *Machine, u *microOp) {
	a := m.readDst(u)
	r := a & u.imm
	if !u.nf {
		m.putFlags(x64.AllFlags, logicBits(r, u))
	}
	m.writeALU(u, r)
}

func hOrRR(m *Machine, u *microOp) {
	a := m.readDst(u)
	b := m.readSrc(u)
	r := a | b
	if !u.nf {
		m.putFlags(x64.AllFlags, logicBits(r, u))
	}
	m.writeALU(u, r)
}

func hOrRI(m *Machine, u *microOp) {
	a := m.readDst(u)
	r := a | u.imm
	if !u.nf {
		m.putFlags(x64.AllFlags, logicBits(r, u))
	}
	m.writeALU(u, r)
}

func hXorRR(m *Machine, u *microOp) {
	a := m.readDst(u)
	b := m.readSrc(u)
	r := a ^ b
	if !u.nf {
		m.putFlags(x64.AllFlags, logicBits(r, u))
	}
	m.writeALU(u, r)
}

func hXorRI(m *Machine, u *microOp) {
	a := m.readDst(u)
	r := a ^ u.imm
	if !u.nf {
		m.putFlags(x64.AllFlags, logicBits(r, u))
	}
	m.writeALU(u, r)
}

func hCmpRR(m *Machine, u *microOp) {
	a := m.readDst(u)
	b := m.readSrc(u)
	if !u.nf {
		m.putFlags(x64.AllFlags, subBits(a, b, 0, (a-b)&u.mask, u))
	}
}

func hCmpRI(m *Machine, u *microOp) {
	a := m.readDst(u)
	if !u.nf {
		m.putFlags(x64.AllFlags, subBits(a, u.imm, 0, (a-u.imm)&u.mask, u))
	}
}

func hTestRR(m *Machine, u *microOp) {
	a := m.readDst(u)
	b := m.readReg(u.src, u.mask)
	if !u.nf {
		m.putFlags(x64.AllFlags, logicBits(a&b, u))
	}
}

func hTestRI(m *Machine, u *microOp) {
	a := m.readDst(u)
	if !u.nf {
		m.putFlags(x64.AllFlags, logicBits(a&u.imm, u))
	}
}

// incDecFlags is the PF|ZF|SF|OF-only update of inc/dec (CF untouched).
const incDecFlags = x64.PF | x64.ZF | x64.SF | x64.OF

func hIncR(m *Machine, u *microOp) {
	a := m.readDst(u)
	r := (a + 1) & u.mask
	if !u.nf {
		fl := szpBits(r, u.sbit)
		if r == u.sbit {
			fl |= x64.OF
		}
		m.putFlags(incDecFlags, fl)
	}
	m.writeALU(u, r)
}

func hDecR(m *Machine, u *microOp) {
	a := m.readDst(u)
	r := (a - 1) & u.mask
	if !u.nf {
		fl := szpBits(r, u.sbit)
		if a == u.sbit {
			fl |= x64.OF
		}
		m.putFlags(incDecFlags, fl)
	}
	m.writeALU(u, r)
}

func hNegR(m *Machine, u *microOp) {
	a := m.readDst(u)
	r := (-a) & u.mask
	if !u.nf {
		fl := szpBits(r, u.sbit)
		if a != 0 {
			fl |= x64.CF
		}
		if a == u.sbit {
			fl |= x64.OF
		}
		m.putFlags(x64.AllFlags, fl)
	}
	m.writeALU(u, r)
}

func hNotR(m *Machine, u *microOp) {
	a := m.readDst(u)
	m.writeALU(u, ^a&u.mask)
}

func hCmovRR(m *Machine, u *microOp) {
	taken := x64.EvalCond(u.cc, m.readFlagsFor(u.cc))
	src := m.readReg(u.src, u.mask)
	dst := m.readReg(u.dst, u.mask)
	v := dst
	if taken {
		v = src
	}
	// Hardware always writes the destination (32-bit cmov zero-extends
	// even when the move does not occur).
	m.writeALU(u, v)
}

func hSetcc(m *Machine, u *microOp) {
	v := uint64(0)
	if x64.EvalCond(u.cc, m.readFlagsFor(u.cc)) {
		v = 1
	}
	m.writeALU(u, v)
}

// imulBits is the fused imulFlags: CF = OF = (full product does not fit),
// plus deterministic SF/ZF/PF from the truncated result.
func imulBits(hi, lo int64, r uint64, u *microOp) x64.FlagSet {
	var overflow bool
	if u.w == 8 {
		overflow = hi != lo>>63
	} else {
		inv := 64 - 8*uint(u.w)
		overflow = lo != int64(r<<inv)>>inv
	}
	fl := szpBits(r, u.sbit)
	if overflow {
		fl |= x64.CF | x64.OF
	}
	return fl
}

// sext sign-extends a width-w2 value (branch-free signExtend).
func sext(v uint64, w uint8) int64 {
	inv := 64 - 8*uint(w)
	return int64(v<<inv) >> inv
}

func hImulRR(m *Machine, u *microOp) {
	a := sext(m.readReg(u.dst, u.mask), u.w)
	b := sext(m.readSrc(u), u.w)
	hi, lo := mulSigned(a, b)
	r := uint64(lo) & u.mask
	if !u.nf {
		m.putFlags(x64.AllFlags, imulBits(hi, lo, r, u))
	}
	m.writeALU(u, r)
}

func hImul3RR(m *Machine, u *microOp) {
	a := sext(m.readSrc(u), u.w)
	b := sext(u.imm, u.w)
	hi, lo := mulSigned(a, b)
	r := uint64(lo) & u.mask
	if !u.nf {
		m.putFlags(x64.AllFlags, imulBits(hi, lo, r, u))
	}
	m.writeALU(u, r)
}

// hMul1R and hImul1R are the widening one-operand multiplies with a
// register source: RDX:RAX = RAX * src (or EDX:EAX at width 4, where the
// destination writes zero-extend so the pre-masked halves store directly).
func hMul1R(m *Machine, u *microOp) {
	src := m.readSrc(u)
	a := m.readReg(x64.RAX, u.mask)
	var hiOut, loOut uint64
	var overflow bool
	if u.w == 8 {
		hi, lo := bits.Mul64(a, src)
		hiOut, loOut = hi, lo
		overflow = hi != 0
	} else {
		full := a * src
		loOut = full & u.mask
		hiOut = full >> (8 * uint(u.w)) & u.mask
		overflow = hiOut != 0
	}
	if !u.nr {
		m.setReg(x64.RAX, loOut)
		m.setReg(x64.RDX, hiOut)
	}
	if !u.nf {
		fl := szpBits(loOut, u.sbit)
		if overflow {
			fl |= x64.CF | x64.OF
		}
		m.putFlags(x64.AllFlags, fl)
	}
}

func hImul1R(m *Machine, u *microOp) {
	src := m.readSrc(u)
	a := m.readReg(x64.RAX, u.mask)
	sa, sb := sext(a, u.w), sext(src, u.w)
	var hiOut, loOut uint64
	var overflow bool
	if u.w == 8 {
		hi, lo := mulSigned(sa, sb)
		hiOut, loOut = uint64(hi), uint64(lo)
		overflow = hi != lo>>63
	} else {
		full := sa * sb
		loOut = uint64(full) & u.mask
		hiOut = uint64(full>>(8*uint(u.w))) & u.mask
		overflow = full != sext(uint64(full)&u.mask, u.w)
	}
	if !u.nr {
		m.setReg(x64.RAX, loOut)
		m.setReg(x64.RDX, hiOut)
	}
	if !u.nf {
		fl := szpBits(loOut, u.sbit)
		if overflow {
			fl |= x64.CF | x64.OF
		}
		m.putFlags(x64.AllFlags, fl)
	}
}

// --- shifts --------------------------------------------------------------
//
// The count is pre-masked for immediate forms and read from CL for the
// register forms; a zero count reads and rewrites the destination without
// touching flags, exactly as execShift does.

func (m *Machine) shiftCL(u *microOp) uint64 {
	count := m.readReg(x64.RCX, 0xff)
	if u.w == 8 {
		return count & 63
	}
	return count & 31
}

func shlCore(m *Machine, u *microOp, a, count uint64) {
	bitsW := uint64(8 * uint(u.w))
	r := a << count & u.mask
	if !u.nf {
		cf := count <= bitsW && a>>(bitsW-count)&1 != 0
		fl := szpBits(r, u.sbit)
		if cf {
			fl |= x64.CF
		}
		if (r&u.sbit != 0) != cf {
			fl |= x64.OF
		}
		m.putFlags(x64.AllFlags, fl)
	}
	m.writeALU(u, r)
}

func shrCore(m *Machine, u *microOp, a, count uint64) {
	r := a >> count
	if !u.nf {
		fl := szpBits(r, u.sbit)
		if a>>(count-1)&1 != 0 {
			fl |= x64.CF
		}
		if a&u.sbit != 0 {
			fl |= x64.OF
		}
		m.putFlags(x64.AllFlags, fl)
	}
	m.writeALU(u, r)
}

func sarCore(m *Machine, u *microOp, a, count uint64) {
	se := sext(a, u.w)
	r := uint64(se>>count) & u.mask
	if !u.nf {
		fl := szpBits(r, u.sbit)
		// The last bit shifted out, reading the sign-extended value so
		// that counts past the width see the sign bit.
		if se>>min(count-1, 63)&1 != 0 {
			fl |= x64.CF
		}
		m.putFlags(x64.AllFlags, fl)
	}
	m.writeALU(u, r)
}

func rolCore(m *Machine, u *microOp, a, count uint64) {
	bitsW := uint64(8 * uint(u.w))
	c := count % bitsW
	r := (a<<c | a>>(bitsW-c)) & u.mask
	if c == 0 {
		r = a
	}
	if !u.nf {
		cf := r&1 != 0
		var fl x64.FlagSet
		if cf {
			fl |= x64.CF
		}
		if (r&u.sbit != 0) != cf {
			fl |= x64.OF
		}
		m.putFlags(x64.CF|x64.OF, fl)
	}
	m.writeALU(u, r)
}

func rorCore(m *Machine, u *microOp, a, count uint64) {
	bitsW := uint64(8 * uint(u.w))
	c := count % bitsW
	r := (a>>c | a<<(bitsW-c)) & u.mask
	if c == 0 {
		r = a
	}
	if !u.nf {
		var fl x64.FlagSet
		if r&u.sbit != 0 {
			fl |= x64.CF
		}
		if (r&u.sbit != 0) != (r&(u.sbit>>1) != 0) {
			fl |= x64.OF
		}
		m.putFlags(x64.CF|x64.OF, fl)
	}
	m.writeALU(u, r)
}

func hShlI(m *Machine, u *microOp) {
	a := m.readDst(u)
	if u.imm == 0 {
		m.writeALU(u, a)
		return
	}
	shlCore(m, u, a, u.imm)
}

func hShrI(m *Machine, u *microOp) {
	a := m.readDst(u)
	if u.imm == 0 {
		m.writeALU(u, a)
		return
	}
	shrCore(m, u, a, u.imm)
}

func hSarI(m *Machine, u *microOp) {
	a := m.readDst(u)
	if u.imm == 0 {
		m.writeALU(u, a)
		return
	}
	sarCore(m, u, a, u.imm)
}

func hRolI(m *Machine, u *microOp) {
	a := m.readDst(u)
	if u.imm == 0 {
		m.writeALU(u, a)
		return
	}
	rolCore(m, u, a, u.imm)
}

func hRorI(m *Machine, u *microOp) {
	a := m.readDst(u)
	if u.imm == 0 {
		m.writeALU(u, a)
		return
	}
	rorCore(m, u, a, u.imm)
}

func hShlCL(m *Machine, u *microOp) {
	count := m.shiftCL(u)
	a := m.readDst(u)
	if count == 0 {
		m.writeALU(u, a)
		return
	}
	shlCore(m, u, a, count)
}

func hShrCL(m *Machine, u *microOp) {
	count := m.shiftCL(u)
	a := m.readDst(u)
	if count == 0 {
		m.writeALU(u, a)
		return
	}
	shrCore(m, u, a, count)
}

func hSarCL(m *Machine, u *microOp) {
	count := m.shiftCL(u)
	a := m.readDst(u)
	if count == 0 {
		m.writeALU(u, a)
		return
	}
	sarCore(m, u, a, count)
}

func hRolCL(m *Machine, u *microOp) {
	count := m.shiftCL(u)
	a := m.readDst(u)
	if count == 0 {
		m.writeALU(u, a)
		return
	}
	rolCore(m, u, a, count)
}

func hRorCL(m *Machine, u *microOp) {
	count := m.shiftCL(u)
	a := m.readDst(u)
	if count == 0 {
		m.writeALU(u, a)
		return
	}
	rorCore(m, u, a, count)
}

// hShldI and hShrdI are the double shifts with a pre-masked immediate
// count, mirroring execDoubleShift: both registers are read (in the
// interpreter's source-then-destination order, for identical undef
// accounting), a zero count rewrites the destination without touching
// flags, and OF reports the destination's sign change.

func hShldI(m *Machine, u *microOp) {
	src := m.readReg(u.src, u.mask)
	dst := m.readReg(u.dst, u.mask)
	if u.imm == 0 {
		m.writeALU(u, dst)
		return
	}
	bitsW := uint64(8 * uint(u.w))
	r := (dst<<u.imm | src>>(bitsW-u.imm)) & u.mask
	if !u.nf {
		fl := szpBits(r, u.sbit)
		if dst>>(bitsW-u.imm)&1 != 0 {
			fl |= x64.CF
		}
		if (r&u.sbit != 0) != (dst&u.sbit != 0) {
			fl |= x64.OF
		}
		m.putFlags(x64.AllFlags, fl)
	}
	m.writeALU(u, r)
}

func hShrdI(m *Machine, u *microOp) {
	src := m.readReg(u.src, u.mask)
	dst := m.readReg(u.dst, u.mask)
	if u.imm == 0 {
		m.writeALU(u, dst)
		return
	}
	bitsW := uint64(8 * uint(u.w))
	r := (dst>>u.imm | src<<(bitsW-u.imm)) & u.mask
	if !u.nf {
		fl := szpBits(r, u.sbit)
		if dst>>(u.imm-1)&1 != 0 {
			fl |= x64.CF
		}
		if (r&u.sbit != 0) != (dst&u.sbit != 0) {
			fl |= x64.OF
		}
		m.putFlags(x64.AllFlags, fl)
	}
	m.writeALU(u, r)
}

// --- bit ops, exchanges, stack -------------------------------------------

func hPopcntRR(m *Machine, u *microOp) {
	a := m.readSrc(u)
	r := uint64(bits.OnesCount64(a))
	if !u.nf {
		var fl x64.FlagSet
		if a == 0 {
			fl |= x64.ZF
		}
		m.putFlags(x64.AllFlags, fl)
	}
	m.writeALU(u, r)
}

func hBsfRR(m *Machine, u *microOp) {
	a := m.readReg(u.src, u.mask)
	var r uint64
	var fl x64.FlagSet
	if a == 0 {
		// Deterministic model: result 0 when the source is zero.
		fl |= x64.ZF
	} else {
		r = uint64(bits.TrailingZeros64(a))
	}
	if !u.nf {
		m.putFlags(x64.AllFlags, fl)
	}
	m.writeALU(u, r)
}

func hBsrRR(m *Machine, u *microOp) {
	a := m.readReg(u.src, u.mask)
	var r uint64
	var fl x64.FlagSet
	if a == 0 {
		fl |= x64.ZF
	} else {
		r = uint64(63 - bits.LeadingZeros64(a))
	}
	if !u.nf {
		m.putFlags(x64.AllFlags, fl)
	}
	m.writeALU(u, r)
}

func hBswapR(m *Machine, u *microOp) {
	a := m.readReg(u.dst, u.mask)
	if u.w == 4 {
		m.writeALU(u, uint64(bits.ReverseBytes32(uint32(a))))
	} else {
		m.writeALU(u, bits.ReverseBytes64(a))
	}
}

func hBtRR(m *Machine, u *microOp) {
	a := m.readReg(u.dst, u.mask)
	idx := m.readReg(u.src, u.mask) % (8 * uint64(u.w))
	var fl x64.FlagSet
	if a>>idx&1 != 0 {
		fl |= x64.CF
	}
	if !u.nf {
		m.putFlags(x64.CF, fl)
	}
}

func hBtRI(m *Machine, u *microOp) {
	a := m.readReg(u.dst, u.mask)
	idx := u.imm % (8 * uint64(u.w))
	var fl x64.FlagSet
	if a>>idx&1 != 0 {
		fl |= x64.CF
	}
	if !u.nf {
		m.putFlags(x64.CF, fl)
	}
}

func hXchgRR(m *Machine, u *microOp) {
	a := m.readReg(u.src, u.mask)
	b := m.readReg(u.dst, u.mask)
	if u.nr {
		// Narrow exchanges merge both destinations: count the merge read
		// of each undefined register exactly once, as the two writeGPR
		// calls would (the first of which defines src, so a same-register
		// exchange counts one merge, not two).
		if u.w < 4 {
			m.undef += int(^m.RegDef >> u.src & 1)
			if u.dst != u.src {
				m.undef += int(^m.RegDef >> u.dst & 1)
			}
		}
		return
	}
	if u.w >= 4 {
		m.setReg(u.src, b)
		m.setReg(u.dst, a)
	} else {
		m.writeGPR(u.src, u.w, b)
		m.writeGPR(u.dst, u.w, a)
	}
}

func hPushR(m *Machine, u *microOp) {
	v := m.readReg(u.src, ^uint64(0))
	if m.RegDef&(1<<x64.RSP) == 0 {
		m.undef++
	}
	m.Regs[x64.RSP] -= 8
	m.regsWritten |= 1 << x64.RSP
	m.store(m.Regs[x64.RSP], 8, v)
}

func hPushI(m *Machine, u *microOp) {
	if m.RegDef&(1<<x64.RSP) == 0 {
		m.undef++
	}
	m.Regs[x64.RSP] -= 8
	m.regsWritten |= 1 << x64.RSP
	m.store(m.Regs[x64.RSP], 8, u.imm)
}

func hPopR(m *Machine, u *microOp) {
	if m.RegDef&(1<<x64.RSP) == 0 {
		m.undef++
	}
	v := m.load(m.Regs[x64.RSP], 8)
	m.Regs[x64.RSP] += 8
	m.regsWritten |= 1 << x64.RSP
	m.setReg(u.dst, v)
}
