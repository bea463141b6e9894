package emu

import (
	"math/bits"

	"repro/internal/x64"
)

// This file lowers the divide family and the fixed-point SSE subset into
// specialised micro-ops, completing the decode-once pipeline: no instruction
// of the saxpy or Montgomery workloads reaches the generic interpreting
// fallback any more (the dispatch-counter tests pin this). The handlers
// replicate execDivide/execSSE exactly — same read order, same undef
// accounting, same deterministic #DE model — and the differential fuzz
// targets (FuzzCompiledVsInterpreted, FuzzPatchVsFreshCompile) hold the two
// paths together over random programs, machine states and patch sequences.
//
// Decode-time specialisation mirrors the integer handlers: XMM register
// numbers, widths and immediates are baked into the microOp, memory-source
// forms take their address operand from u.in, and the hot register-form
// packed shapes carry dispatch codes the run loop calls statically.

// --- DIV / IDIV ----------------------------------------------------------
//
// The divide family is excluded from proposal moves (§4.3) but appears in
// targets and comparators; interpreting it through the opcode switch made
// any kernel containing one pay the generic-dispatch tax on every testcase.
// The #DE model matches §5.1's trapped instruction: zero divisor or quotient
// overflow counts a sigfpe, zeroes RAX/RDX and all flags, and execution
// continues — the early-exit path is a handler-internal branch, not a
// control-flow slot, so Patch stays O(1) for these forms.

// lowerSSE routes one SSE instruction to its family's lowering.
func lowerSSE(u *microOp, in *x64.Inst) {
	switch in.Op {
	case x64.MOVD:
		lowerMovGX(u, in, 4)
	case x64.MOVQX:
		lowerMovGX(u, in, 8)
	case x64.MOVUPS, x64.MOVAPS:
		lowerMovups(u, in)
	case x64.SHUFPS, x64.PSHUFD:
		lowerShuffle(u, in)
	case x64.PSLLD, x64.PSRLD, x64.PSLLQ, x64.PSRLQ:
		lowerPackedShift(u, in)
	default:
		lowerPackedALU(u, in)
	}
}

// lowerDiv specialises div/idiv with a register or memory source at the
// legal widths (4 and 8 bytes).
func lowerDiv(u *microOp, in *x64.Inst) {
	s := in.Opd[0]
	if s.Width < 4 {
		return
	}
	u.setWidth(s.Width)
	signed := in.Op == x64.IDIV
	switch s.Kind {
	case x64.KindReg:
		u.src = s.Reg
		if signed {
			u.run = hIdivR
		} else {
			u.run = hDivR
		}
	case x64.KindMem:
		if signed {
			u.run = hIdivM
		} else {
			u.run = hDivM
		}
	}
}

// divideFault is the deterministic #DE outcome: count a sigfpe, zero the
// implicit outputs, define all flags as zero (matching execDivide's fault
// closure; widths here are 4 or 8, so the direct stores match writeGPR).
// Execution continues after a #DE, so the liveness pass's nf/nr
// suppression applies to the fault path like any other write — the
// sigfpe count itself is never suppressed.
func (m *Machine) divideFault(u *microOp) {
	m.sigfpe++
	if !u.nr {
		m.setReg(x64.RAX, 0)
		m.setReg(x64.RDX, 0)
	}
	if !u.nf {
		m.putFlags(x64.AllFlags, 0)
	}
}

// divCore is the unsigned divide of RDX:RAX by d at the width baked into u.
// The dividend reads happen after the divisor read, matching execDivide's
// undef-accounting order.
func (m *Machine) divCore(u *microOp, d uint64) {
	lo := m.readReg(x64.RAX, u.mask)
	hi := m.readReg(x64.RDX, u.mask)
	if d == 0 || hi >= d && u.w == 8 {
		m.divideFault(u)
		return
	}
	var q, r uint64
	if u.w == 8 {
		q, r = bits.Div64(hi, lo, d)
	} else {
		full := hi<<(8*uint(u.w)) | lo
		if full/d > u.mask {
			m.divideFault(u)
			return
		}
		q, r = full/d, full%d
	}
	if !u.nr {
		m.setReg(x64.RAX, q)
		m.setReg(x64.RDX, r)
	}
	if !u.nf {
		m.putFlags(x64.AllFlags, 0)
	}
}

// idivCore is the signed divide of RDX:RAX by d. The 64-bit form supports
// dividends that fit 64 bits after the sign-extension check and faults on
// the rest (the quotient-overflow case for all practical kernels), exactly
// as execDivide does; INT_MIN/-1 faults on both paths.
func (m *Machine) idivCore(u *microOp, d uint64) {
	lo := m.readReg(x64.RAX, u.mask)
	hi := m.readReg(x64.RDX, u.mask)
	if d == 0 {
		m.divideFault(u)
		return
	}
	if u.w == 8 {
		if hi != uint64(int64(lo)>>63) {
			m.divideFault(u)
			return
		}
		n, dv := int64(lo), int64(d)
		if n == -1<<63 && dv == -1 {
			m.divideFault(u)
			return
		}
		if !u.nr {
			m.setReg(x64.RAX, uint64(n/dv))
			m.setReg(x64.RDX, uint64(n%dv))
		}
	} else {
		full := int64(hi<<(8*uint(u.w)) | lo)
		dv := sext(d, u.w)
		q := full / dv
		if q != sext(uint64(q)&u.mask, u.w) {
			m.divideFault(u)
			return
		}
		if !u.nr {
			m.setReg(x64.RAX, uint64(q)&u.mask)
			m.setReg(x64.RDX, uint64(full%dv)&u.mask)
		}
	}
	if !u.nf {
		m.putFlags(x64.AllFlags, 0)
	}
}

func hDivR(m *Machine, u *microOp) { m.divCore(u, m.readReg(u.src, u.mask)) }

func hDivM(m *Machine, u *microOp) {
	m.divCore(u, m.load(m.effectiveAddr(u.in.Opd[0]), int(u.w)))
}

func hIdivR(m *Machine, u *microOp) { m.idivCore(u, m.readReg(u.src, u.mask)) }

func hIdivM(m *Machine, u *microOp) {
	m.idivCore(u, m.load(m.effectiveAddr(u.in.Opd[0]), int(u.w)))
}

// --- SSE moves -----------------------------------------------------------

// lowerMovGX specialises movd/movq between GPRs, memory and XMM registers
// (w is the scalar width: 4 for movd, 8 for movq).
func lowerMovGX(u *microOp, in *x64.Inst, w uint8) {
	s, d := in.Opd[0], in.Opd[1]
	u.setWidth(w)
	switch {
	case d.Kind == x64.KindXmm && s.Kind == x64.KindReg:
		u.dst, u.src = d.Reg, s.Reg
		u.kind = mkMovdRX
	case d.Kind == x64.KindXmm && s.Kind == x64.KindMem:
		u.dst = d.Reg
		u.run = hMovGXFromM
	case d.Kind == x64.KindReg && s.Kind == x64.KindXmm:
		u.dst, u.src = d.Reg, s.Reg
		u.run = hMovGXToR
	case d.Kind == x64.KindMem && s.Kind == x64.KindXmm:
		u.src = s.Reg
		u.run = hMovGXToM
	}
}

func hMovGXFromM(m *Machine, u *microOp) {
	v := m.load(m.effectiveAddr(u.in.Opd[0]), int(u.w))
	if u.nr {
		return
	}
	m.writeXmm(u.dst, [2]uint64{v, 0})
}

func hMovGXToR(m *Machine, u *microOp) {
	v := m.readXmmOp(u.src)
	if u.nr {
		return
	}
	// movd/movq to a GPR zero-extends to 64 bits.
	m.setReg(u.dst, v[0]&u.mask)
}

func hMovGXToM(m *Machine, u *microOp) {
	v := m.readXmmOp(u.src)
	m.store(m.effectiveAddr(u.in.Opd[1]), int(u.w), v[0]&u.mask)
}

// lowerMovups specialises the 128-bit moves: register copies (movaps and
// the xmm,xmm movups form), unaligned loads and stores.
func lowerMovups(u *microOp, in *x64.Inst) {
	s, d := in.Opd[0], in.Opd[1]
	switch {
	case d.Kind == x64.KindXmm && s.Kind == x64.KindXmm:
		u.dst, u.src = d.Reg, s.Reg
		u.kind = mkMovXX
	case d.Kind == x64.KindXmm && s.Kind == x64.KindMem:
		u.dst = d.Reg
		u.kind = mkMovupsLoad
	case d.Kind == x64.KindMem && s.Kind == x64.KindXmm:
		u.src = s.Reg
		u.kind = mkMovupsStore
	}
}

// readXmmOp reads a pre-decoded XMM source, counting undefined reads like
// readXmm (named separately so the compiled handlers read as a unit).
func (m *Machine) readXmmOp(r x64.Reg) [2]uint64 { return m.readXmm(r) }

// --- shuffles ------------------------------------------------------------

// lowerShuffle specialises shufps/pshufd: immediate baked in, source and
// destination XMM registers pre-decoded.
func lowerShuffle(u *microOp, in *x64.Inst) {
	im, s, d := in.Opd[0], in.Opd[1], in.Opd[2]
	if im.Kind != x64.KindImm || s.Kind != x64.KindXmm || d.Kind != x64.KindXmm {
		return
	}
	u.src, u.dst = s.Reg, d.Reg
	u.imm = uint64(im.Imm)
	if in.Op == x64.SHUFPS {
		u.run = hShufps
		u.kind = mkShufps
	} else {
		u.run = hPshufd
		u.kind = mkPshufd
	}
}

func hShufps(m *Machine, u *microOp) {
	imm := uint8(u.imm)
	src := lanes32(m.readXmmOp(u.src))
	dst := lanes32(m.readXmmOp(u.dst))
	var out [4]uint32
	out[0] = dst[imm>>0&3]
	out[1] = dst[imm>>2&3]
	out[2] = src[imm>>4&3]
	out[3] = src[imm>>6&3]
	m.writeXmm(u.dst, fromLanes32(out))
}

func hPshufd(m *Machine, u *microOp) {
	imm := uint8(u.imm)
	src := lanes32(m.readXmmOp(u.src))
	var out [4]uint32
	for i := 0; i < 4; i++ {
		out[i] = src[imm>>(2*i)&3]
	}
	m.writeXmm(u.dst, fromLanes32(out))
}

// --- packed arithmetic and logic -----------------------------------------

// packedOp applies one packed binary operation: a is the source operand,
// b the destination register's value (the interpreter's operand order).
func packedOp(op x64.Opcode, a, b [2]uint64) [2]uint64 {
	switch op {
	case x64.PADDW, x64.PSUBW, x64.PMULLW:
		la, lb := lanes16(a), lanes16(b)
		var out [8]uint16
		for i := range out {
			switch op {
			case x64.PADDW:
				out[i] = lb[i] + la[i]
			case x64.PSUBW:
				out[i] = lb[i] - la[i]
			case x64.PMULLW:
				out[i] = lb[i] * la[i]
			}
		}
		return fromLanes16(out)
	case x64.PADDD, x64.PSUBD, x64.PMULLD:
		la, lb := lanes32(a), lanes32(b)
		var out [4]uint32
		for i := range out {
			switch op {
			case x64.PADDD:
				out[i] = lb[i] + la[i]
			case x64.PSUBD:
				out[i] = lb[i] - la[i]
			case x64.PMULLD:
				out[i] = lb[i] * la[i]
			}
		}
		return fromLanes32(out)
	case x64.PADDQ:
		return [2]uint64{b[0] + a[0], b[1] + a[1]}
	case x64.PAND:
		return [2]uint64{a[0] & b[0], a[1] & b[1]}
	case x64.POR:
		return [2]uint64{a[0] | b[0], a[1] | b[1]}
	default: // PXOR
		return [2]uint64{a[0] ^ b[0], a[1] ^ b[1]}
	}
}

// packedCode maps a packed opcode to its register-form dispatch code.
func packedCode(op x64.Opcode) microKind {
	switch op {
	case x64.PADDW:
		return mkPAddW
	case x64.PSUBW:
		return mkPSubW
	case x64.PMULLW:
		return mkPMullW
	case x64.PADDD:
		return mkPAddD
	case x64.PSUBD:
		return mkPSubD
	case x64.PMULLD:
		return mkPMullD
	case x64.PADDQ:
		return mkPAddQ
	case x64.PAND:
		return mkPAnd
	case x64.POR:
		return mkPOr
	default: // PXOR
		return mkPXor
	}
}

// lowerPackedALU specialises the two-operand packed forms. The pxor zero
// idiom lowers to its own code (defined regardless of the register's
// contents, no source read — matching execSSE).
func lowerPackedALU(u *microOp, in *x64.Inst) {
	s, d := in.Opd[0], in.Opd[1]
	if d.Kind != x64.KindXmm {
		return
	}
	u.dst = d.Reg
	switch s.Kind {
	case x64.KindXmm:
		if in.Op == x64.PXOR && s.Reg == d.Reg {
			u.kind = mkPXorZero
			return
		}
		u.src = s.Reg
		u.kind = packedCode(in.Op)
	case x64.KindMem:
		u.run = hPackedMR
	}
}

// packedRR is the register-form packed body. The inline dispatch cases
// call it with the opcode as a compile-time constant, letting packedOp's
// switch fold away.
func (m *Machine) packedRR(u *microOp, op x64.Opcode) {
	a := m.readXmmOp(u.src)
	b := m.readXmmOp(u.dst)
	m.writeXmm(u.dst, packedOp(op, a, b))
}

// hPackedMR is the memory-source packed form, the one packed shape without
// an inline body.
func hPackedMR(m *Machine, u *microOp) {
	a := m.readXmmOrMem(u.in.Opd[0])
	b := m.readXmmOp(u.dst)
	if u.nr {
		return
	}
	m.writeXmm(u.dst, packedOp(u.in.Op, a, b))
}

// --- packed shifts -------------------------------------------------------

// lowerPackedShift specialises pslld/psrld/psllq/psrlq with the immediate
// count baked in unmasked: counts at or beyond the lane width zero the
// register, exactly as execSSE's guard does.
func lowerPackedShift(u *microOp, in *x64.Inst) {
	im, d := in.Opd[0], in.Opd[1]
	if im.Kind != x64.KindImm || d.Kind != x64.KindXmm {
		return
	}
	u.dst = d.Reg
	u.imm = uint64(im.Imm)
	switch in.Op {
	case x64.PSLLD:
		u.run = hPslldI
	case x64.PSRLD:
		u.run = hPsrldI
	case x64.PSLLQ:
		u.run = hPsllqI
	default:
		u.run = hPsrlqI
	}
}

func hPslldI(m *Machine, u *microOp) {
	a := lanes32(m.readXmmOp(u.dst))
	if u.nr {
		return
	}
	var out [4]uint32
	if u.imm < 32 {
		for i := range out {
			out[i] = a[i] << u.imm
		}
	}
	m.writeXmm(u.dst, fromLanes32(out))
}

func hPsrldI(m *Machine, u *microOp) {
	a := lanes32(m.readXmmOp(u.dst))
	if u.nr {
		return
	}
	var out [4]uint32
	if u.imm < 32 {
		for i := range out {
			out[i] = a[i] >> u.imm
		}
	}
	m.writeXmm(u.dst, fromLanes32(out))
}

func hPsllqI(m *Machine, u *microOp) {
	a := m.readXmmOp(u.dst)
	if u.nr {
		return
	}
	var out [2]uint64
	if u.imm < 64 {
		out = [2]uint64{a[0] << u.imm, a[1] << u.imm}
	}
	m.writeXmm(u.dst, out)
}

func hPsrlqI(m *Machine, u *microOp) {
	a := m.readXmmOp(u.dst)
	if u.nr {
		return
	}
	var out [2]uint64
	if u.imm < 64 {
		out = [2]uint64{a[0] >> u.imm, a[1] >> u.imm}
	}
	m.writeXmm(u.dst, out)
}
