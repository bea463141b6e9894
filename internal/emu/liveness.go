package emu

import "repro/internal/x64"

// This file implements the backward liveness pass of the compiled
// pipeline, over one set of flags and registers per slot. Every
// specialised ALU handler historically computed and stored the full
// five-flag word (putFlags(x64.AllFlags, ...)) even when the next
// flag-reading consumer was preceded by another flag write — on the search
// workload the large majority of flag writes are dead, because ℓ-slot
// candidates are dense with ALU instructions and sparse with Jcc/SETcc/
// CMOVcc/ADC-style readers. Compile therefore computes, per slot, which of
// the five flags are live-out (read by a later consumer along some path
// before being redefined, conservatively all-live at every exit), and sets
// the slot's nf bit when no flag it writes is live: every flag-writing
// body — the run loop's inline codes, the specialised handlers and the
// generic fallback — then skips the addBits/subBits/szpBits computation
// and the Flags/FlagsDef stores entirely. Flag liveness is that one bit:
// a slot with any live written flag computes the full flag word. A
// separate flag-suppressed dispatch code per inline shape, and reduced
// szp-only codes for partially live add/sub/cmp slots, measured no faster
// end to end than this one guard (ROADMAP direction 4).
//
// Soundness rests on three observations:
//
//   - Every observation point is covered. Flag values and definedness are
//     observable at in-program reads (EvalCond/readFlagsFor and the
//     adc/sbb carryIn, all of which consult only the flags their condition
//     or opcode names) and at exit, where the cost function compares live
//     flags and the differential tests compare the full Flags/FlagsDef
//     words. Reads make a flag live; exits are modelled as reading
//     AllFlags. A suppressed write is therefore only ever observed after
//     an intervening full write of the same flag.
//   - Kill sets are exact-or-conservative. A slot's kill set contains only
//     flags whose value and definedness the handler rewrites
//     unconditionally (shift-family opcodes with a dynamic or zero count
//     kill nothing; DIV/IDIV kill everything — both the fault and success
//     paths define all five flags as zero). A flag is only marked dead
//     when every path to an exit kills it first.
//   - Error accounting is preserved. The nf guard wraps only the flag
//     computation and store; every register and flag read happens in the
//     same order either way, so the undef/sigsegv counters — observables
//     of the cost function — cannot diverge.
//
// Register liveness. The same set carries the 16 GPRs and 16 XMMs beside
// the five flags (liveSet: flags in the low byte), so one backward pass
// and one transfer per slot serve both: per slot, liveSummary derives the
// registers the handler reads (gen) and writes from the instruction's
// operand and implicit effects (x64.EffectsOf), live-in is
// gen | liveOut &^ kill, and a slot none of whose written registers or
// flags is live-out is write-suppressed: its nr bit is set, and the
// inline shapes additionally swap to a shared mkDead* dispatch code that
// performs only their reads (handler-dispatched shapes honour nr inside
// the handler). The register dataflow rules:
//
//   - Exits gen the Compiled's exit set: every flag, plus all registers
//     under plain Compile (full final state stays comparable against the
//     interpreter) or the kernel's live-out set under CompileLive (the
//     §4.2 cost function observes nothing else; the engine compiles
//     candidates this way).
//   - Every modelled register write is unconditional (CMOV always writes,
//     zero-count shifts rewrite their destination, DIV defines RAX/RDX on
//     both the fault and success paths), so register kill == write.
//   - Partial-width merge semantics: a 4/8-byte write is a full kill
//     (32-bit writes zero-extend); a 1/2-byte write merges into the
//     untouched bytes, which EffectsOf models by putting the narrow
//     destination in the read set — the register stays live-in through
//     narrow writes, so a dead narrow write can only ever be killed by a
//     later wide write, and suppressing its RegDef update is invisible.
//     XMM writes are always full 128-bit kills.
//   - The dependency-breaking zero idioms (xor r,r / sub r,r / pxor x,x)
//     read nothing at wide widths; liveSummary drops their false
//     self-read so the upstream write can die.
//   - Memory operands read their base/index registers; MUL/IMUL/DIV/IDIV
//     use their implicit RAX/RDX sets precisely (reads keep upstream
//     writes alive even when the implicit outputs are dead).
//
// Suppressed forms keep every read — in handler order, including the
// merge read of an undefined narrow destination that writeGPR counts
// before merging — so the undef/sigsegv counters cannot diverge; only
// the Regs/Xmm stores and the RegDef/XmmDef updates are skipped. Under
// CompileLive the final values and definedness of non-live registers may
// therefore differ from a full run; every cost observable is preserved.
//
// A run that can exhaust the step budget can stop at any slot, which makes
// every slot a potential exit; RunCompiled therefore hands programs longer
// than the budget to the interpreter, so no suppressed form ever runs
// under a budget it could exhaust.
//
// Patching. An MCMC move rewrites one slot, which can flip liveness for an
// unbounded prefix of the program (the affected backward slice). Because
// jumps are forward-only, slot order is a topological order of the CFG and
// liveness needs no fixpoint iteration: Patch re-walks slots from the
// mutated index toward slot 0, recomputing live-in/live-out from each
// slot's stored gen/kill summary, re-selecting the nf/nr bits and
// dispatch codes only where live-out actually changed, and stopping as
// soon as a slot's live-in is unchanged and no jump source below still
// targets a changed slot (the minJSrc barrier). Worst case — a mutation
// at slot ℓ-1 whose liveness change survives a kill-free prefix — the
// walk is O(ℓ); BenchmarkPatchLiveness measures exactly that shape.

// liveSet is one packed liveness set: the flags in the low byte, the XMMs
// above them and the GPRs above those, so flags and both register files
// flow through one OR/AND-NOT pair per slot and every dead test is one
// mask.
type liveSet uint64

const (
	flagBits liveSet = 0xff // the x64.FlagSet byte
	regBits          = ^flagBits
)

// packLive packs a GPR set, an XMM set and a flag set into one liveSet.
func packLive(gpr, xmm uint16, fl x64.FlagSet) liveSet {
	return liveSet(gpr)<<24 | liveSet(xmm)<<8 | liveSet(fl)
}

// slotLive is the liveness state of one slot: the flags and registers the
// instruction reads (gen), unconditionally redefines (kill) and may write
// (write), the analysis results (in/liveOut) its nf and nr bits are
// selected from, the recorded base dispatch code re-selection starts from
// (the dead codes are many-to-one, so the current u.kind cannot be
// inverted), and the suppression eligibility decided at lowering time.
// Kept out of microOp deliberately: the run loop never reads liveness
// state, and microOp fills exactly one cache line — benchmarked, growing
// it past 64 bytes costs more than the pass saves.
type slotLive struct {
	gen, kill, write liveSet
	in, liveOut      liveSet
	base             microKind
	eligible         bool
}

// writesRegs reports whether the slot writes any register at all, the
// denominator of the suppressed-register fraction.
func (s *slotLive) writesRegs() bool { return s.write&regBits != 0 }

// liveSummary derives the liveness summary of one executable instruction
// from its flag signature and its operand and implicit register effects,
// and reports whether it writes memory. Register kill equals write; a
// flag is killed only when its value and definedness are rewritten
// unconditionally. The emulator's specialised handlers implement exactly
// these reads and writes (the differential fuzz targets pin that); the
// zero idioms are the one spot the effects table is conservative, so
// their false self-read is dropped at the widths whose handlers read
// nothing.
func liveSummary(in *x64.Inst) (gen, kill, write liveSet, memWrite bool) {
	info := x64.Info(in.Op)
	fgen := info.FlagsRead
	if info.HasCC {
		fgen |= x64.FlagsReadByCond(in.CC)
	}
	fwrite := info.FlagsWrite
	fkill := fwrite
	if info.CondFlags {
		// Shift-family opcodes leave every flag untouched when the
		// (masked) count is zero: a CL count is dynamic, so these slots
		// kill nothing; an immediate count is decidable at decode time.
		fkill = 0
		if in.Opd[0].Kind == x64.KindImm && info.DstSlot > 0 {
			mask := int64(31)
			if in.Opd[info.DstSlot].Width == 8 {
				mask = 63
			}
			if in.Opd[0].Imm&mask == 0 {
				fwrite = 0 // never writes flags at all
			} else {
				fkill = fwrite
			}
		}
	}
	e := x64.EffectsOf(*in)
	gen = packLive(uint16(e.GPRRead), e.XMMRead, fgen)
	write = packLive(uint16(e.GPRWrite), e.XMMWrite, 0)
	kill = write | liveSet(fkill)
	write |= liveSet(fwrite)
	switch in.Op {
	case x64.XOR, x64.SUB:
		d, s := in.Opd[1], in.Opd[0]
		if d.Kind == x64.KindReg && s.Kind == x64.KindReg &&
			s.Reg == d.Reg && s.Width == d.Width && d.Width >= 4 {
			gen &^= packLive(1<<d.Reg, 0, 0)
		}
	case x64.PXOR:
		d, s := in.Opd[1], in.Opd[0]
		if d.Kind == x64.KindXmm && s.Kind == x64.KindXmm && s.Reg == d.Reg {
			gen &^= packLive(0, 1<<d.Reg, 0)
		}
	}
	return gen, kill, write, e.MemWrite
}

// liveInAt reads the stored live-in of slot j, with every index at or past
// the program end standing for an exit (the exit set observable).
func (c *Compiled) liveInAt(j int) liveSet {
	if j >= len(c.ops) {
		return c.exit
	}
	return c.live[j].in
}

// recomputeSlot refreshes slot j's live-out and live-in from its
// successors' stored live-ins. Successors follow slot order (j+1), not the
// skip chain, so UNUSED/LABEL slots propagate liveness transparently; RET
// has no successor and its exit-set gen models the exit. outChanged
// reports only selection-relevant change: live-out bits masked by the
// slot's own write set, the sole live-out input of applyLiveness — a
// changed bit the slot does not write cannot flip its selection, so
// patchLiveness skips re-selection for it (the common case on a long
// walk: a liveness flip streaming through slots that merely propagate
// it).
func (c *Compiled) recomputeSlot(j int) (inChanged, outChanged bool) {
	u := &c.ops[j]
	s := &c.live[j]
	var lo liveSet
	switch u.kind {
	case mkRet:
	case mkJmp:
		lo = c.liveInAt(int(u.target))
	case mkJcc:
		lo = c.liveInAt(int(u.target)) | c.liveInAt(j+1)
	default:
		lo = c.liveInAt(j + 1)
	}
	li := s.gen | lo&^s.kill
	outChanged = (lo^s.liveOut)&s.write != 0
	inChanged = li != s.in
	s.liveOut, s.in = lo, li
	return inChanged, outChanged
}

// computeLiveness runs the full backward pass and (re-)selects every
// slot's suppression bits and dispatch code. Called from link, so fresh
// compiles, full recompiles and control-structure patches all pass
// through it.
func (c *Compiled) computeLiveness() {
	for j := len(c.ops) - 1; j >= 0; j-- {
		c.recomputeSlot(j)
		c.applyLiveness(j)
	}
}

// patchLiveness recomputes liveness over the backward slice affected by a
// re-lowered slot i (which lowerSlot has just reset to its base code with
// both suppression bits clear). The walk ends at the first slot whose
// live-in did not change, unless a jump below it targets a slot whose
// live-in did — those sources (tracked via minJSrc, always below their
// forward targets) must be re-walked before their own predecessors can be
// trusted.
func (c *Compiled) patchLiveness(i int) {
	pending := -1
	for j := i; j >= 0; j-- {
		inChanged, outChanged := c.recomputeSlot(j)
		if outChanged || j == i {
			c.applyLiveness(j)
		}
		if inChanged {
			if s := c.minJSrc[j]; s >= 0 && (pending < 0 || int(s) < pending) {
				pending = int(s)
			}
		}
		if !inChanged && (pending < 0 || j <= pending) {
			break
		}
	}
}

// applyLiveness selects slot i's suppression bits and dispatch code from
// its live-out set. Flags are one bit: nf is set when the slot writes
// flags and none of them is live-out, and every flag-writing body — inline
// code, specialised handler, or the generic fallback, which restores the
// flag words around the interpreter switch (hGeneric) — guards its flag
// work on it. A slot is register-dead when it is eligible and nothing it
// writes, register or flag, is live-out; it then gets the nr bit and, on
// the inline shapes, the mkDead* code performing only its reads
// (partially-live slots keep their base code and write the register:
// never suppressing is always sound). The choice is a pure function of
// the slot's summary and live-out set, which keeps patched and fresh
// selection identical. Only kind, nf and nr are ever touched.
func (c *Compiled) applyLiveness(i int) {
	u := &c.ops[i]
	s := &c.live[i]
	live := s.write & s.liveOut
	u.nf = s.write&flagBits != 0 && live&flagBits == 0
	nr := s.eligible && live == 0
	if nr != u.nr {
		if nr {
			c.nrCount++
		} else {
			c.nrCount--
		}
		u.nr = nr
	}
	u.kind = s.base
	if nr {
		u.kind = deadKind(s.base, u.w >= 4)
	}
}

// deadKind maps a full base dispatch code to its write-suppressed code —
// the shared mkDead* shape performing exactly the base body's reads (the
// mapping is many-to-one, so re-selection always starts from the recorded
// base). wide picks the shape for the codes that serve every destination
// width: a 4/8-byte write is a full kill with no extra read, while a
// 1/2-byte one also counts the merge read of its destination (the N
// shapes). Handler-dispatched shapes map to themselves: their handlers
// honour the nr bit directly (writeALU is the chokepoint for the
// ALU-shaped bodies; the mul/div/xchg/load/SSE-store-free handlers guard
// explicitly).
func deadKind(base microKind, wide bool) microKind {
	switch base {
	case mkMovRI, mkZero:
		if wide {
			return mkDeadNone
		}
		return mkDeadN
	case mkPXorZero:
		return mkDeadNone
	case mkMovRR, mkMovsxRR:
		if wide {
			return mkDeadR
		}
		return mkDeadRN
	case mkMovdRX:
		return mkDeadR
	case mkAddRI, mkSubRI, mkAndRI, mkOrRI, mkXorRI, mkInc, mkDec, mkNeg:
		if wide {
			return mkDeadRD
		}
		return mkDeadRDN
	case mkNotW, mkShlIW, mkShrIW, mkSarIW:
		return mkDeadRD
	case mkAddRR, mkSubRR, mkAndRR, mkOrRR, mkXorRR:
		if wide {
			return mkDeadRR
		}
		return mkDeadRRN
	case mkLeaW:
		return mkDeadEA
	case mkMovLoadW:
		return mkDeadLoad
	case mkCmovRRW:
		return mkDeadCmov
	case mkSetcc:
		return mkDeadSetcc
	case mkMovXX, mkPshufd:
		return mkDeadX
	case mkShufps, mkPAddW, mkPSubW, mkPMullW,
		mkPAddD, mkPSubD, mkPMullD, mkPAddQ,
		mkPAnd, mkPOr, mkPXor:
		return mkDeadXX
	case mkMovupsLoad:
		return mkDeadXLoad
	}
	return base
}

// RegFreeSlots reports how many register-writing slots the register-
// liveness pass proved dead and suppressed — via a shared mkDead*
// dispatch code on the inline shapes, via the nr bit inside the
// specialised handler otherwise. Maintained incrementally (O(1) read):
// the per-proposal coverage counters in mcmc read it on every patch.
func (c *Compiled) RegFreeSlots() int { return c.nrCount }

// RegWritingSlots reports how many slots write any GPR or XMM register at
// all, the denominator of the suppressed-register fraction tracked by
// BENCH_eval.json. Maintained incrementally (O(1) read).
func (c *Compiled) RegWritingSlots() int { return c.wrCount }

// FlagFreeSlots reports how many flag-writing slots the liveness pass
// proved dead and marked with the nf bit, so RunCompiled skips their flag
// computation and Flags/FlagsDef stores (the generic fallback restores
// the flag words around the interpreter switch instead).
func (c *Compiled) FlagFreeSlots() int {
	n := 0
	for i := range c.ops {
		if c.ops[i].nf {
			n++
		}
	}
	return n
}

// FlagWritingSlots reports how many slots write any flag at all, the
// denominator of the flag-free fraction tracked by BENCH_eval.json.
func (c *Compiled) FlagWritingSlots() int {
	n := 0
	for i := range c.live {
		if c.live[i].write&flagBits != 0 {
			n++
		}
	}
	return n
}
