// Package canon canonicalises x64 programs into content-addressable
// fingerprints, so α-equivalent submissions — the same kernel up to a
// register renaming, a relabelling, different literal constants, or UNUSED
// padding — collide on one cache key. It is the addressing layer of the
// rewrite store behind the serving mode: millions of users mostly submit
// the same kernels, and a fingerprint hit turns a 150k-proposal search
// into a map lookup.
//
// Canonicalisation performs, in order:
//
//   - UNUSED-slot removal (padding invariance: candidates carry a fixed
//     physical length ℓ, which is a search artefact, not semantics).
//   - Register renaming to a canonical order. Live-out registers are
//     assigned canonical names first, in declaration order (live-out
//     normalisation: "the sum in rax" and "the sum in rdi" are the same
//     kernel), then the remaining registers in order of first appearance.
//     Registers with architectural roles are pinned to themselves: RSP
//     (the stack discipline), every implicit operand of an instruction in
//     the program (MUL/DIV's RAX:RDX, ...), and RCX when a shift takes a
//     CL count — renaming those would change semantics, not just names.
//     The result is a full 16-register bijection, so any scratch register
//     of a cached rewrite maps back injectively.
//   - Label renumbering in order of first mention.
//   - Commutative addressing normalisation: at scale 1 the base and index
//     registers of a memory operand are interchangeable (base + index·1 is
//     symmetric), so "(rax,rbx,1)" and "(rbx,rax,1)" — and the index-only
//     form "(,rbx,1)" against the plain "(rbx)" — are folded into one
//     orientation after renaming. RSP never moves out of the base slot: it
//     is not encodable as an index register.
//   - Constant abstraction: immediates and memory displacements are
//     value-numbered into a constant vector and the fingerprint sees only
//     their indices, so kernels differing in literals share a fingerprint
//     class (an exact cache hit additionally requires the vectors to
//     match; a class hit with different constants is the near-miss that
//     warm-starts a search).
//
// The fingerprint is a SHA-256 over the canonical instruction skeleton
// plus the canonicalised live-out declaration.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/verify"
	"repro/internal/x64"
)

// Fingerprint identifies one α-equivalence class of (program, live-out)
// pairs, constants abstracted.
type Fingerprint [sha256.Size]byte

// Hex renders the fingerprint for keys and logs.
func (fp Fingerprint) Hex() string { return hex.EncodeToString(fp[:]) }

// Form is the canonical form of one (program, live-out) pair: the concrete
// canonical program (constants intact), the abstracted constant vector,
// the fingerprint, and the register bijections needed to carry programs
// into and out of canonical space.
type Form struct {
	// Prog is the canonical program: packed, registers and labels renamed,
	// constants concrete.
	Prog *x64.Program

	// Consts is the value-numbered constant vector: every distinct
	// immediate or displacement value, in order of first appearance.
	Consts []int64

	// FP is the fingerprint of the constant-abstracted skeleton plus the
	// canonical live-out declaration.
	FP Fingerprint

	// Live is the live-out declaration carried into canonical space.
	Live verify.LiveOut

	toCanon   [x64.NumGPR]x64.Reg
	fromCanon [x64.NumGPR]x64.Reg
	xmmTo     [x64.NumXMM]x64.Reg
	xmmFrom   [x64.NumXMM]x64.Reg
}

// canonGPROrder is the fixed allocation order of canonical register names.
// RSP is absent: it is always pinned.
var canonGPROrder = []x64.Reg{
	x64.RAX, x64.RCX, x64.RDX, x64.RBX, x64.RBP, x64.RSI, x64.RDI,
	x64.R8, x64.R9, x64.R10, x64.R11, x64.R12, x64.R13, x64.R14, x64.R15,
}

// PinnedGPRs returns the registers of p that a semantics-preserving
// renaming must fix: RSP, the implicit operands of every instruction, and
// RCX when any shift-family instruction takes its count from CL.
func PinnedGPRs(p *x64.Program) x64.RegSet {
	pinned := x64.RegSet(0).With(x64.RSP)
	for _, in := range p.Insts {
		if in.Op == x64.UNUSED || in.Op == x64.LABEL {
			continue
		}
		info := x64.Info(in.Op)
		pinned |= info.ImplReads | info.ImplWrites
		if x64.IsShift(in.Op) && in.N > 0 && in.Opd[0].Kind == x64.KindReg && in.Opd[0].Width == 1 {
			pinned = pinned.With(x64.RCX) // CL shift count
		}
	}
	return pinned
}

// RenameOK reports whether applying perm to q preserves semantics: every
// pinned register of q must map to itself. (The bijections built by
// Canonicalize fix the pins of the *target*; a rewrite may introduce
// implicit-operand instructions the target lacked, and such a rewrite
// cannot be carried across register spaces.)
func RenameOK(q *x64.Program, perm *[x64.NumGPR]x64.Reg) bool {
	pinned := PinnedGPRs(q)
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if pinned.Has(r) && perm[r] != r {
			return false
		}
	}
	return true
}

// Canonicalize computes the canonical form of (p, live). It never fails:
// every valid program has a canonical form.
func Canonicalize(p *x64.Program, live verify.LiveOut) *Form {
	f := &Form{}
	packed := p.Packed()

	// --- GPR bijection: pins first, then live-outs and first appearances
	// draw from the canonical order, then the never-mentioned rest. ---
	pinned := PinnedGPRs(packed)
	var assigned [x64.NumGPR]bool // canonical names already taken
	var mapped [x64.NumGPR]bool   // original names already mapped
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if pinned.Has(r) {
			f.toCanon[r] = r
			assigned[r] = true
			mapped[r] = true
		}
	}
	pool := make([]x64.Reg, 0, len(canonGPROrder))
	for _, r := range canonGPROrder {
		if !assigned[r] {
			pool = append(pool, r)
		}
	}
	next := 0
	take := func(orig x64.Reg) {
		if orig >= x64.NumGPR || mapped[orig] {
			return
		}
		f.toCanon[orig] = pool[next]
		next++
		mapped[orig] = true
	}
	for _, lr := range live.GPRs {
		take(lr.Reg)
	}
	for _, mr := range live.Mem {
		take(mr.Base)
	}
	forEachGPR(packed, take)
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		take(r) // complete the bijection over never-mentioned registers
	}
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		f.fromCanon[f.toCanon[r]] = r
	}

	// --- XMM bijection: live-outs first, then first appearance. ---
	var xmmMapped [x64.NumXMM]bool
	xnext := x64.Reg(0)
	xtake := func(orig x64.Reg) {
		if orig >= x64.NumXMM || xmmMapped[orig] {
			return
		}
		f.xmmTo[orig] = xnext
		xnext++
		xmmMapped[orig] = true
	}
	for _, xr := range live.Xmms {
		xtake(xr)
	}
	forEachXMM(packed, xtake)
	for r := x64.Reg(0); r < x64.NumXMM; r++ {
		xtake(r)
	}
	for r := x64.Reg(0); r < x64.NumXMM; r++ {
		f.xmmFrom[f.xmmTo[r]] = r
	}

	// --- Canonical program: rename registers and labels, then pick one
	// orientation for every scale-1 addressing form. ---
	f.Prog = renameProgram(packed, &f.toCanon, &f.xmmTo)
	normalizeMemOperands(f.Prog)

	// --- Canonical live-out declaration. ---
	f.Live = verify.LiveOut{Flags: live.Flags}
	for _, lr := range live.GPRs {
		lr.Reg = f.toCanon[lr.Reg]
		f.Live.GPRs = append(f.Live.GPRs, lr)
	}
	for _, xr := range live.Xmms {
		f.Live.Xmms = append(f.Live.Xmms, f.xmmTo[xr])
	}
	for _, mr := range live.Mem {
		mr.Base = f.toCanon[mr.Base]
		f.Live.Mem = append(f.Live.Mem, mr)
	}

	// --- Constant abstraction + fingerprint. ---
	f.Consts, f.FP = fingerprint(f.Prog, f.Live)
	return f
}

// ToCanon carries q (a program in the original register space, typically a
// rewrite found for the original target) into canonical space under the
// form's bijections, renumbering q's labels by its own first-mention
// order. The second result reports whether the renaming is
// semantics-preserving for q (see RenameOK); callers must not use the
// program when it is false.
func (f *Form) ToCanon(q *x64.Program) (*x64.Program, bool) {
	if !RenameOK(q, &f.toCanon) {
		return nil, false
	}
	r := renameProgram(q.Packed(), &f.toCanon, &f.xmmTo)
	normalizeMemOperands(r)
	return r, true
}

// FromCanon carries a canonical-space program back into the original
// register space (the inverse of ToCanon).
func (f *Form) FromCanon(q *x64.Program) (*x64.Program, bool) {
	if !RenameOK(q, &f.fromCanon) {
		return nil, false
	}
	return renameProgram(q.Packed(), &f.fromCanon, &f.xmmFrom), true
}

// GPRToCanon maps a general-purpose register of the original space to its
// canonical name under the form's bijection. Carrying a machine state into
// canonical space (e.g. banking a counterexample) assigns, for each
// original register r, the original value of r to the canonical register
// GPRToCanon(r).
func (f *Form) GPRToCanon(r x64.Reg) x64.Reg { return f.toCanon[r] }

// XMMToCanon maps an XMM register index to its canonical name.
func (f *Form) XMMToCanon(r x64.Reg) x64.Reg { return f.xmmTo[r] }

// SubstituteConsts returns a copy of p with every immediate and
// displacement equal to old[i] replaced by new[i] — the near-miss
// warm-start: a cached rewrite for one constant vector is re-literalised
// with the submitter's. Displacements that do not fit int32 after
// substitution are left unchanged. Later old entries shadow earlier equal
// ones never occur: the vector is value-numbered, entries are distinct.
func SubstituteConsts(p *x64.Program, oldv, newv []int64) *x64.Program {
	sub := make(map[int64]int64, len(oldv))
	for i, v := range oldv {
		if i < len(newv) {
			sub[v] = newv[i]
		}
	}
	q := p.Clone()
	for i := range q.Insts {
		in := &q.Insts[i]
		for oi := uint8(0); oi < in.N; oi++ {
			o := &in.Opd[oi]
			switch o.Kind {
			case x64.KindImm:
				if nv, ok := sub[o.Imm]; ok {
					o.Imm = nv
				}
			case x64.KindMem:
				if nv, ok := sub[int64(o.Disp)]; ok && nv == int64(int32(nv)) {
					o.Disp = int32(nv)
				}
			}
		}
	}
	return q
}

// normalizeMemOperands rewrites every scale-1 memory operand of q in place
// into a single canonical addressing orientation: an index-only operand
// "(,r,1)" becomes the plain base form "(r)", and when both registers are
// present the lower-numbered one takes the base slot (base + index·1 is
// symmetric, so either orientation computes the same address). RSP is left
// wherever it stands: x64 cannot encode it as an index register, so moving
// it would manufacture an unencodable operand. Runs after register
// renaming — the orientation the mutator happened to emit must not leak
// into the fingerprint, and the renaming bijection is already fixed by the
// time the swap happens, so first-appearance order is unaffected.
func normalizeMemOperands(q *x64.Program) {
	for i := range q.Insts {
		in := &q.Insts[i]
		for oi := uint8(0); oi < in.N; oi++ {
			o := &in.Opd[oi]
			if o.Kind != x64.KindMem || o.Scale != 1 || o.Index == x64.NoReg {
				continue
			}
			switch {
			case o.Base == x64.NoReg:
				o.Base, o.Index = o.Index, x64.NoReg
			case o.Base != x64.RSP && o.Index != x64.RSP && o.Index < o.Base:
				o.Base, o.Index = o.Index, o.Base
			}
		}
	}
}

// forEachGPR visits every general-purpose register mention of p in slot,
// then operand, order (register operands, then memory base and index).
func forEachGPR(p *x64.Program, visit func(x64.Reg)) {
	for _, in := range p.Insts {
		for oi := uint8(0); oi < in.N; oi++ {
			o := in.Opd[oi]
			switch o.Kind {
			case x64.KindReg:
				visit(o.Reg)
			case x64.KindMem:
				if o.Base != x64.NoReg {
					visit(o.Base)
				}
				if o.Index != x64.NoReg {
					visit(o.Index)
				}
			}
		}
		// Implicit operands are pinned, so visiting them is a no-op; skip.
	}
}

// forEachXMM visits every XMM register mention of p in slot order.
func forEachXMM(p *x64.Program, visit func(x64.Reg)) {
	for _, in := range p.Insts {
		for oi := uint8(0); oi < in.N; oi++ {
			if in.Opd[oi].Kind == x64.KindXmm {
				visit(in.Opd[oi].Reg)
			}
		}
	}
}

// renameProgram applies the register bijections to a packed program and
// renumbers its labels in order of first mention.
func renameProgram(p *x64.Program, gpr *[x64.NumGPR]x64.Reg, xmm *[x64.NumXMM]x64.Reg) *x64.Program {
	labels := map[int32]int32{}
	relabel := func(l int32) int32 {
		if nl, ok := labels[l]; ok {
			return nl
		}
		nl := int32(len(labels))
		labels[l] = nl
		return nl
	}
	q := p.Clone()
	for i := range q.Insts {
		in := &q.Insts[i]
		for oi := uint8(0); oi < in.N; oi++ {
			o := &in.Opd[oi]
			switch o.Kind {
			case x64.KindReg:
				o.Reg = gpr[o.Reg]
			case x64.KindXmm:
				o.Reg = xmm[o.Reg]
			case x64.KindMem:
				if o.Base != x64.NoReg {
					o.Base = gpr[o.Base]
				}
				if o.Index != x64.NoReg {
					o.Index = gpr[o.Index]
				}
			case x64.KindLabel:
				o.Label = relabel(o.Label)
			}
		}
	}
	return q
}

// fingerprint hashes the constant-abstracted skeleton of a canonical
// program and live-out declaration, returning the value-numbered constant
// vector alongside.
func fingerprint(p *x64.Program, live verify.LiveOut) ([]int64, Fingerprint) {
	h := sha256.New()
	var buf [8]byte
	w8 := func(v uint8) { h.Write([]byte{v}) }
	w32 := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	w64 := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}

	var consts []int64
	index := map[int64]int64{}
	abstract := func(v int64) int64 {
		if i, ok := index[v]; ok {
			return i
		}
		i := int64(len(consts))
		index[v] = i
		consts = append(consts, v)
		return i
	}

	w8(1) // skeleton format version
	for _, in := range p.Insts {
		w8(uint8(in.Op))
		w8(uint8(in.CC))
		w8(in.N)
		for oi := uint8(0); oi < in.N; oi++ {
			o := in.Opd[oi]
			w8(uint8(o.Kind))
			w8(o.Width)
			switch o.Kind {
			case x64.KindReg, x64.KindXmm:
				w8(uint8(o.Reg))
			case x64.KindImm:
				w64(abstract(o.Imm))
			case x64.KindMem:
				w8(uint8(o.Base))
				w8(uint8(o.Index))
				w8(o.Scale)
				w64(abstract(int64(o.Disp)))
			case x64.KindLabel:
				w32(o.Label)
			}
		}
	}
	w8(0xFF) // live-out section
	for _, lr := range live.GPRs {
		w8(uint8(lr.Reg))
		w8(lr.Width)
	}
	w8(0xFE)
	for _, xr := range live.Xmms {
		w8(uint8(xr))
	}
	w8(0xFD)
	w8(uint8(live.Flags))
	for _, mr := range live.Mem {
		w8(uint8(mr.Base))
		w32(mr.Disp)
		w32(mr.Len)
	}

	var fp Fingerprint
	h.Sum(fp[:0])
	return consts, fp
}
