// Package verify implements the sound validator of §5.2: loop-free x86
// sequences are translated to bit-vector formulae, and a SAT query asks
// whether any initial machine state leads the target and rewrite to produce
// different side effects on the live outputs. An UNSAT answer proves
// equivalence; a SAT answer yields a counterexample that becomes a new
// testcase (§4.1); a budget exhaustion yields Unknown.
//
// Following the paper, wide multiplications are treated as uninterpreted
// functions made consistent by Ackermann expansion, stack addresses reduce
// to rsp-relative terms, and initial memory is a byte-level uninterpreted
// function of the address — which yields exactly the paper's aliasing
// constraint addr1 = addr2 ⇒ val1 = val2.
//
// Addresses stay in the bit-vector builder's base+offset normal form, so
// two accesses off the same base register (rsp-relative spill slots, an
// rbp frame) compare equal or unequal while the formula is built: every
// -O0 reload resolves to the stored byte before bit-blasting, and only
// accesses over different base registers (rdi vs rsi) reach the SAT
// solver as address comparisons.
package verify

import (
	"fmt"

	"repro/internal/bv"
	"repro/internal/x64"
)

// symState is the symbolic machine state during translation.
type symState struct {
	b     *bv.Builder
	regs  [x64.NumGPR]*bv.Term    // 64-bit
	xmm   [x64.NumXMM][2]*bv.Term // lo, hi halves
	flags [x64.NumFlags]*bv.Term  // 1-bit each

	writes []memWrite // program-order byte writes

	// guard is the 1-bit execution condition of the current location.
	guard *bv.Term
	// pending accumulates inbound edge guards per label.
	pending map[int32]*bv.Term

	// cfg controls multiplication handling.
	cfg Config

	// unsupported is set when an instruction has no symbolic model.
	unsupported string
}

type memWrite struct {
	addr  *bv.Term // 64-bit byte address
	val   *bv.Term // 8-bit
	guard *bv.Term // 1-bit
}

// Config controls the validator.
type Config struct {
	// Exact64Mul encodes the low half of 64-bit products exactly
	// (expensive); the high half always stays uninterpreted. When false,
	// both halves of 64-bit products are uninterpreted, as in §5.2.
	Exact64Mul bool

	// Budget bounds SAT conflicts per query; exhausted budgets yield
	// Unknown. Zero means no bound.
	Budget int64

	// MaxTerms bounds the size of the bit-vector formula before
	// bit-blasting. Stack traffic resolves while the formula is built, so
	// the cap bites on kernels whose many loads and stores go through
	// different base registers (each load then muxes over every earlier
	// store); those yield Unknown instead of minutes of encoding time.
	// Zero takes the default.
	MaxTerms int
}

// DefaultConfig mirrors the paper's choices with budgets suited to
// interactive use.
var DefaultConfig = Config{Exact64Mul: false, Budget: 400000, MaxTerms: 400000}

// newSymState builds the shared initial state over input variables.
func newSymState(b *bv.Builder, cfg Config) *symState {
	s := &symState{b: b, cfg: cfg, guard: b.True(), pending: map[int32]*bv.Term{}}
	for r := 0; r < x64.NumGPR; r++ {
		s.regs[r] = b.Var(64, x64.GPRName(x64.Reg(r), 8))
	}
	for r := 0; r < x64.NumXMM; r++ {
		s.xmm[r][0] = b.Var(64, fmt.Sprintf("xmm%d_lo", r))
		s.xmm[r][1] = b.Var(64, fmt.Sprintf("xmm%d_hi", r))
	}
	for f := x64.Flag(0); f < x64.NumFlags; f++ {
		s.flags[f] = b.Var(1, f.String())
	}
	return s
}

func w8(w uint8) uint8 { return w * 8 } // operand width in bits

// regRead returns a register view at width w bytes.
func (s *symState) regRead(r x64.Reg, w uint8) *bv.Term {
	return s.b.Extract(s.regs[r], 0, w8(w))
}

// regWrite commits a guarded write of a w-byte view with x86 merge
// semantics (32-bit writes zero-extend, narrower writes merge).
func (s *symState) regWrite(r x64.Reg, w uint8, v *bv.Term) {
	b := s.b
	var full *bv.Term
	switch w {
	case 8:
		full = v
	case 4:
		full = b.Zext(v, 64)
	default:
		hi := b.Extract(s.regs[r], w8(w), 64-w8(w))
		full = b.Concat(hi, v)
	}
	s.regs[r] = b.Ite(s.guard, full, s.regs[r])
}

// xmmWrite commits a guarded write of both halves.
func (s *symState) xmmWrite(r x64.Reg, lo, hi *bv.Term) {
	s.xmm[r][0] = s.b.Ite(s.guard, lo, s.xmm[r][0])
	s.xmm[r][1] = s.b.Ite(s.guard, hi, s.xmm[r][1])
}

// setFlag commits a guarded flag write.
func (s *symState) setFlag(f x64.Flag, v *bv.Term) {
	s.flags[f] = s.b.Ite(s.guard, v, s.flags[f])
}

// setFlagUnder commits a flag write under an extra condition (used by
// shifts, whose flags survive a zero count).
func (s *symState) setFlagUnder(cond *bv.Term, f x64.Flag, v *bv.Term) {
	s.flags[f] = s.b.Ite(s.b.And(s.guard, cond), v, s.flags[f])
}

// effAddr computes the 64-bit effective address of a memory operand.
func (s *symState) effAddr(o x64.Operand) *bv.Term {
	b := s.b
	var a *bv.Term
	if o.Base != x64.NoReg {
		a = s.regs[o.Base]
	}
	if o.Index != x64.NoReg {
		idx := s.regs[o.Index]
		if o.Scale > 1 {
			sc := uint64(0)
			switch o.Scale {
			case 2:
				sc = 1
			case 4:
				sc = 2
			case 8:
				sc = 3
			}
			idx = b.Shl(idx, b.Const(64, sc))
		}
		if a == nil {
			a = idx
		} else {
			a = b.Add(a, idx)
		}
	}
	disp := b.Const(64, uint64(int64(o.Disp)))
	if a == nil {
		return disp
	}
	if o.Disp != 0 {
		a = b.Add(a, disp)
	}
	return a
}

// memReadByte resolves one byte of memory: the most recent prior guarded
// write to that address, else the initial memory function mem0(addr).
func (s *symState) memReadByte(addr *bv.Term) *bv.Term {
	b := s.b
	val := b.App("mem0", 8, addr)
	for _, w := range s.writes {
		hit := b.And(w.guard, b.Eq(addr, w.addr))
		val = b.Ite(hit, w.val, val)
	}
	return val
}

// memRead loads w little-endian bytes as one term.
func (s *symState) memRead(addr *bv.Term, w uint8) *bv.Term {
	b := s.b
	out := s.memReadByte(addr)
	for i := uint8(1); i < w; i++ {
		byt := s.memReadByte(b.Add(addr, b.Const(64, uint64(i))))
		out = b.Concat(byt, out)
	}
	return out
}

// memWriteBytes appends guarded byte writes for a w-byte store.
func (s *symState) memWriteBytes(addr *bv.Term, w uint8, v *bv.Term) {
	b := s.b
	for i := uint8(0); i < w; i++ {
		s.writes = append(s.writes, memWrite{
			addr:  b.Add(addr, b.Const(64, uint64(i))),
			val:   b.Extract(v, w8(i), 8),
			guard: s.guard,
		})
	}
}

// readOp evaluates a GPR/imm/mem operand at its width in bits.
func (s *symState) readOp(o x64.Operand) *bv.Term {
	switch o.Kind {
	case x64.KindReg:
		return s.regRead(o.Reg, o.Width)
	case x64.KindImm:
		return s.b.Const(w8(o.Width), uint64(o.Imm))
	case x64.KindMem:
		return s.memRead(s.effAddr(o), o.Width)
	}
	panic("verify: readOp on " + o.Kind.String())
}

// writeOp commits a guarded write to a GPR or memory operand.
func (s *symState) writeOp(o x64.Operand, v *bv.Term) {
	switch o.Kind {
	case x64.KindReg:
		s.regWrite(o.Reg, o.Width, v)
	case x64.KindMem:
		s.memWriteBytes(s.effAddr(o), o.Width, v)
	default:
		panic("verify: writeOp on " + o.Kind.String())
	}
}

// parity returns the even-parity flag of the low byte of v.
func (s *symState) parity(v *bv.Term) *bv.Term {
	b := s.b
	p := b.Extract(v, 0, 1)
	for i := uint8(1); i < 8; i++ {
		p = b.Xor(p, b.Extract(v, i, 1))
	}
	return b.Not(p)
}

// msb extracts the sign bit of a w8-bit value.
func (s *symState) msb(v *bv.Term) *bv.Term {
	return s.b.Extract(v, v.Width-1, 1)
}

// szp builds the SF/ZF/PF triple for a result.
func (s *symState) szpFlags(r *bv.Term) (sf, zf, pf *bv.Term) {
	b := s.b
	return s.msb(r), b.Eq(r, b.Const(r.Width, 0)), s.parity(r)
}

// condTerm evaluates a condition code over the current symbolic flags.
func (s *symState) condTerm(cc x64.Cond) *bv.Term {
	b := s.b
	cf, pf, zf, sf, of := s.flags[x64.FlagCF], s.flags[x64.FlagPF],
		s.flags[x64.FlagZF], s.flags[x64.FlagSF], s.flags[x64.FlagOF]
	switch cc {
	case x64.CondE:
		return zf
	case x64.CondNE:
		return b.Not(zf)
	case x64.CondA:
		return b.And(b.Not(cf), b.Not(zf))
	case x64.CondAE:
		return b.Not(cf)
	case x64.CondB:
		return cf
	case x64.CondBE:
		return b.Or(cf, zf)
	case x64.CondG:
		return b.And(b.Not(zf), b.Eq(sf, of))
	case x64.CondGE:
		return b.Eq(sf, of)
	case x64.CondL:
		return b.Ne(sf, of)
	case x64.CondLE:
		return b.Or(zf, b.Ne(sf, of))
	case x64.CondS:
		return sf
	case x64.CondNS:
		return b.Not(sf)
	case x64.CondO:
		return of
	case x64.CondNO:
		return b.Not(of)
	case x64.CondP:
		return pf
	case x64.CondNP:
		return b.Not(pf)
	}
	return b.False()
}

// Exec translates one whole program into the symbolic state, mirroring the
// emulator's deterministic machine model instruction for instruction.
func (s *symState) Exec(p *x64.Program) {
	for _, in := range p.Insts {
		if s.unsupported != "" {
			return
		}
		switch in.Op {
		case x64.UNUSED:
			continue
		case x64.LABEL:
			id := in.Opd[0].Label
			if pend, ok := s.pending[id]; ok {
				s.guard = s.b.Or(s.guard, pend)
				delete(s.pending, id)
			}
			continue
		case x64.RET:
			s.guard = s.b.False()
			continue
		case x64.JMP:
			id := in.Opd[0].Label
			s.mergePending(id, s.guard)
			s.guard = s.b.False()
			continue
		case x64.Jcc:
			cond := s.condTerm(in.CC)
			id := in.Opd[0].Label
			s.mergePending(id, s.b.And(s.guard, cond))
			s.guard = s.b.And(s.guard, s.b.Not(cond))
			continue
		}
		s.exec(&in)
	}
}

func (s *symState) mergePending(id int32, g *bv.Term) {
	if prev, ok := s.pending[id]; ok {
		s.pending[id] = s.b.Or(prev, g)
	} else {
		s.pending[id] = g
	}
}

// exec translates one data instruction.
func (s *symState) exec(in *x64.Inst) {
	b := s.b
	switch in.Op {
	case x64.MOV, x64.MOVABS, x64.MOVZX:
		v := s.readOp(in.Opd[0])
		if in.Op == x64.MOVZX {
			v = b.Zext(v, w8(in.Opd[1].Width))
		}
		s.writeOp(in.Opd[1], v)

	case x64.MOVSX:
		v := b.Sext(s.readOp(in.Opd[0]), w8(in.Opd[1].Width))
		s.writeOp(in.Opd[1], v)

	case x64.LEA:
		a := s.effAddr(in.Opd[0])
		s.writeOp(in.Opd[1], b.Extract(a, 0, w8(in.Opd[1].Width)))

	case x64.XCHG:
		a := s.readOp(in.Opd[0])
		c := s.readOp(in.Opd[1])
		s.writeOp(in.Opd[0], c)
		s.writeOp(in.Opd[1], a)

	case x64.PUSH:
		v := s.readOp(in.Opd[0])
		if in.Opd[0].Kind == x64.KindImm {
			v = b.Const(64, uint64(in.Opd[0].Imm))
		}
		nsp := b.Sub(s.regs[x64.RSP], b.Const(64, 8))
		s.memWriteBytes(nsp, 8, b.Zext(v, 64))
		s.regWrite(x64.RSP, 8, nsp)

	case x64.POP:
		v := s.memRead(s.regs[x64.RSP], 8)
		s.regWrite(x64.RSP, 8, b.Add(s.regs[x64.RSP], b.Const(64, 8)))
		s.writeOp(in.Opd[0], v)

	case x64.CMOVcc:
		cond := s.condTerm(in.CC)
		src := s.readOp(in.Opd[0])
		dst := s.readOp(in.Opd[1])
		s.writeOp(in.Opd[1], b.Ite(cond, src, dst))

	case x64.ADD, x64.ADC:
		a := s.readOp(in.Opd[1])
		c := s.readOp(in.Opd[0])
		var carry *bv.Term
		if in.Op == x64.ADC {
			carry = s.flags[x64.FlagCF]
		} else {
			carry = b.False()
		}
		s.addCommon(in.Opd[1], a, c, carry)

	case x64.SUB, x64.SBB, x64.CMP:
		a := s.readOp(in.Opd[1])
		c := s.readOp(in.Opd[0])
		if in.Op == x64.CMP && in.Opd[1].Kind == x64.KindImm {
			// cmp imm, imm is ill-formed; operand order fixed by sigs.
			panic("verify: cmp with immediate destination")
		}
		var borrow *bv.Term
		if in.Op == x64.SBB {
			borrow = s.flags[x64.FlagCF]
		} else {
			borrow = b.False()
		}
		t := b.Sub(a, c)
		r := b.Sub(t, b.Zext(borrow, a.Width))
		cf := b.Or(b.Ult(a, c), b.Ult(t, b.Zext(borrow, a.Width)))
		of := s.msb(b.And(b.Xor(a, c), b.Xor(a, r)))
		sf, zf, pf := s.szpFlags(r)
		s.setFlag(x64.FlagCF, cf)
		s.setFlag(x64.FlagOF, of)
		s.setFlag(x64.FlagSF, sf)
		s.setFlag(x64.FlagZF, zf)
		s.setFlag(x64.FlagPF, pf)
		if in.Op != x64.CMP {
			s.writeOp(in.Opd[1], r)
		}

	case x64.TEST:
		a := s.readOp(in.Opd[1])
		c := s.readOp(in.Opd[0])
		s.logicFlags(b.And(a, c))

	case x64.NEG:
		a := s.readOp(in.Opd[0])
		r := b.Neg(a)
		s.setFlag(x64.FlagCF, b.Ne(a, b.Const(a.Width, 0)))
		s.setFlag(x64.FlagOF, b.Eq(a, b.Const(a.Width, 1<<(a.Width-1))))
		sf, zf, pf := s.szpFlags(r)
		s.setFlag(x64.FlagSF, sf)
		s.setFlag(x64.FlagZF, zf)
		s.setFlag(x64.FlagPF, pf)
		s.writeOp(in.Opd[0], r)

	case x64.INC, x64.DEC:
		a := s.readOp(in.Opd[0])
		one := b.Const(a.Width, 1)
		var r, of *bv.Term
		if in.Op == x64.INC {
			r = b.Add(a, one)
			of = b.Eq(r, b.Const(a.Width, 1<<(a.Width-1)))
		} else {
			r = b.Sub(a, one)
			of = b.Eq(a, b.Const(a.Width, 1<<(a.Width-1)))
		}
		sf, zf, pf := s.szpFlags(r)
		s.setFlag(x64.FlagOF, of)
		s.setFlag(x64.FlagSF, sf)
		s.setFlag(x64.FlagZF, zf)
		s.setFlag(x64.FlagPF, pf)
		s.writeOp(in.Opd[0], r)

	case x64.AND, x64.OR, x64.XOR:
		a := s.readOp(in.Opd[1])
		c := s.readOp(in.Opd[0])
		var r *bv.Term
		switch in.Op {
		case x64.AND:
			r = b.And(a, c)
		case x64.OR:
			r = b.Or(a, c)
		case x64.XOR:
			r = b.Xor(a, c)
		}
		s.logicFlags(r)
		s.writeOp(in.Opd[1], r)

	case x64.NOT:
		s.writeOp(in.Opd[0], b.Not(s.readOp(in.Opd[0])))

	case x64.IMUL, x64.IMUL3:
		s.execIMul(in)

	case x64.IMUL1, x64.MUL:
		s.execWideningMul(in)

	case x64.DIV, x64.IDIV:
		// Divide faults make div semantics input-dependent in ways the
		// paper also punts on. Div is not proposable, but targets contain
		// it (p20's -O0 target has divl) and operand moves carry it into
		// rewrites, so those queries end Unsupported.
		s.unsupported = "div/idiv"

	case x64.SHL, x64.SHR, x64.SAR, x64.ROL, x64.ROR:
		s.execShift(in)

	case x64.SHLD, x64.SHRD:
		s.execDoubleShift(in)

	case x64.POPCNT:
		a := s.readOp(in.Opd[0])
		w := w8(in.Opd[1].Width)
		sum := b.Const(w, 0)
		for i := uint8(0); i < a.Width; i++ {
			sum = b.Add(sum, b.Zext(b.Extract(a, i, 1), w))
		}
		s.setFlag(x64.FlagCF, b.False())
		s.setFlag(x64.FlagOF, b.False())
		s.setFlag(x64.FlagSF, b.False())
		s.setFlag(x64.FlagPF, b.False())
		s.setFlag(x64.FlagZF, b.Eq(a, b.Const(a.Width, 0)))
		s.writeOp(in.Opd[1], sum)

	case x64.BSF, x64.BSR:
		a := s.readOp(in.Opd[0])
		w := w8(in.Opd[1].Width)
		// Deterministic model: zero input gives zero result.
		r := b.Const(w, 0)
		if in.Op == x64.BSF {
			for i := int(a.Width) - 1; i >= 0; i-- {
				r = b.Ite(b.Eq(b.Extract(a, uint8(i), 1), b.Const(1, 1)),
					b.Const(w, uint64(i)), r)
			}
		} else {
			for i := 0; i < int(a.Width); i++ {
				r = b.Ite(b.Eq(b.Extract(a, uint8(i), 1), b.Const(1, 1)),
					b.Const(w, uint64(i)), r)
			}
		}
		s.setFlag(x64.FlagZF, b.Eq(a, b.Const(a.Width, 0)))
		s.setFlag(x64.FlagCF, b.False())
		s.setFlag(x64.FlagOF, b.False())
		s.setFlag(x64.FlagSF, b.False())
		s.setFlag(x64.FlagPF, b.False())
		s.writeOp(in.Opd[1], r)

	case x64.BSWAP:
		a := s.readOp(in.Opd[0])
		n := a.Width / 8
		// Byte 0 becomes the most significant byte.
		out := b.Extract(a, 0, 8)
		for i := uint8(1); i < n; i++ {
			out = b.Concat(out, b.Extract(a, i*8, 8))
		}
		s.writeOp(in.Opd[0], out)

	case x64.BT:
		a := s.readOp(in.Opd[1])
		idx := s.readOp(in.Opd[0])
		if in.Opd[0].Kind == x64.KindImm {
			idx = b.Const(a.Width, uint64(in.Opd[0].Imm))
		} else if idx.Width != a.Width {
			idx = b.Zext(idx, a.Width)
		}
		idx = b.And(idx, b.Const(a.Width, uint64(a.Width-1)))
		bit := b.Extract(b.Lshr(a, idx), 0, 1)
		s.setFlag(x64.FlagCF, bit)

	case x64.SETcc:
		cond := s.condTerm(in.CC)
		s.writeOp(in.Opd[0], b.Zext(cond, 8))

	default:
		s.execSSE(in)
	}
}

// logicFlags commits the and/or/xor/test flag pattern.
func (s *symState) logicFlags(r *bv.Term) {
	b := s.b
	sf, zf, pf := s.szpFlags(r)
	s.setFlag(x64.FlagCF, b.False())
	s.setFlag(x64.FlagOF, b.False())
	s.setFlag(x64.FlagSF, sf)
	s.setFlag(x64.FlagZF, zf)
	s.setFlag(x64.FlagPF, pf)
}

// addCommon commits r = a + c + carry with full flag semantics.
func (s *symState) addCommon(dst x64.Operand, a, c, carry *bv.Term) {
	b := s.b
	cw := b.Zext(carry, a.Width)
	t := b.Add(a, c)
	r := b.Add(t, cw)
	cf := b.Or(b.Ult(t, a), b.Ult(r, t))
	of := s.msb(b.And(b.Xor(a, r), b.Xor(c, r)))
	sf, zf, pf := s.szpFlags(r)
	s.setFlag(x64.FlagCF, cf)
	s.setFlag(x64.FlagOF, of)
	s.setFlag(x64.FlagSF, sf)
	s.setFlag(x64.FlagZF, zf)
	s.setFlag(x64.FlagPF, pf)
	s.writeOp(dst, r)
}

// product computes the full signed or unsigned product of two w-bit values
// as (hi, lo) terms, using exact arithmetic up to 32 bits and uninterpreted
// functions at 64 bits (§5.2).
func (s *symState) product(a, c *bv.Term, signed bool) (hi, lo *bv.Term) {
	b := s.b
	w := a.Width
	if w <= 32 {
		var fa, fc *bv.Term
		if signed {
			fa, fc = b.Sext(a, 2*w), b.Sext(c, 2*w)
		} else {
			fa, fc = b.Zext(a, 2*w), b.Zext(c, 2*w)
		}
		full := b.Mul(fa, fc)
		return b.Extract(full, w, w), b.Extract(full, 0, w)
	}
	// 64-bit: normalise argument order (multiplication is commutative) so
	// mulq rsi,rax and imulq rax,rsi share one application.
	x, y := a, c
	if x.ID > y.ID {
		x, y = y, x
	}
	if s.cfg.Exact64Mul {
		lo = b.Mul(x, y)
	} else {
		lo = b.App("mullo64", 64, x, y)
	}
	name := "mulhi_u64"
	if signed {
		name = "mulhi_s64"
	}
	hi = b.App(name, 64, x, y)
	return hi, lo
}

// execIMul handles the truncating signed multiplies (2- and 3-operand).
func (s *symState) execIMul(in *x64.Inst) {
	b := s.b
	var a, c *bv.Term
	var dst x64.Operand
	if in.Op == x64.IMUL {
		a, c = s.readOp(in.Opd[1]), s.readOp(in.Opd[0])
		dst = in.Opd[1]
	} else {
		a = s.readOp(in.Opd[1])
		c = b.Const(a.Width, uint64(in.Opd[0].Imm))
		dst = in.Opd[2]
	}
	hi, lo := s.product(a, c, true)
	// Overflow: the high half must be the sign extension of the low half.
	signFill := b.Ite(s.msb(lo), b.Const(a.Width, ^uint64(0)), b.Const(a.Width, 0))
	over := b.Ne(hi, signFill)
	sf, zf, pf := s.szpFlags(lo)
	s.setFlag(x64.FlagCF, over)
	s.setFlag(x64.FlagOF, over)
	s.setFlag(x64.FlagSF, sf)
	s.setFlag(x64.FlagZF, zf)
	s.setFlag(x64.FlagPF, pf)
	s.writeOp(dst, lo)
}

// execWideningMul handles mul/imul one-operand forms writing RDX:RAX.
func (s *symState) execWideningMul(in *x64.Inst) {
	b := s.b
	w := in.Opd[0].Width
	src := s.readOp(in.Opd[0])
	a := s.regRead(x64.RAX, w)
	signed := in.Op == x64.IMUL1
	hi, lo := s.product(a, src, signed)
	var over *bv.Term
	if signed {
		signFill := b.Ite(s.msb(lo), b.Const(lo.Width, ^uint64(0)), b.Const(lo.Width, 0))
		over = b.Ne(hi, signFill)
	} else {
		over = b.Ne(hi, b.Const(hi.Width, 0))
	}
	s.regWrite(x64.RAX, w, lo)
	s.regWrite(x64.RDX, w, hi)
	sf, zf, pf := s.szpFlags(lo)
	s.setFlag(x64.FlagCF, over)
	s.setFlag(x64.FlagOF, over)
	s.setFlag(x64.FlagSF, sf)
	s.setFlag(x64.FlagZF, zf)
	s.setFlag(x64.FlagPF, pf)
}

// execShift handles shl/shr/sar/rol/ror with immediate or CL counts,
// leaving flags untouched when the masked count is zero.
func (s *symState) execShift(in *x64.Inst) {
	b := s.b
	w := w8(in.Opd[1].Width)
	a := s.readOp(in.Opd[1])

	var count *bv.Term
	if in.Opd[0].Kind == x64.KindImm {
		count = b.Const(w, uint64(in.Opd[0].Imm))
	} else {
		count = b.Zext(s.regRead(x64.RCX, 1), w)
	}
	countMask := uint64(31)
	if w == 64 {
		countMask = 63
	}
	count = b.And(count, b.Const(w, countMask))
	nonzero := b.Ne(count, b.Const(w, 0))
	one := b.Const(w, 1)

	var r, cf, of *bv.Term
	switch in.Op {
	case x64.SHL:
		r = b.Shl(a, count)
		// CF = bit (w - count) of a = lsb of a >> (w - count).
		cf = b.Extract(b.Lshr(a, b.Sub(b.Const(w, uint64(w)), count)), 0, 1)
		of = b.Xor(s.msb(r), cf)
	case x64.SHR:
		r = b.Lshr(a, count)
		cf = b.Extract(b.Lshr(a, b.Sub(count, one)), 0, 1)
		of = s.msb(a)
	case x64.SAR:
		r = b.Ashr(a, count)
		cf = b.Extract(b.Ashr(a, b.Sub(count, one)), 0, 1)
		of = b.False()
	case x64.ROL, x64.ROR:
		// Rotation distance is count mod width (widths are powers of two).
		wc := b.Const(w, uint64(w))
		c := b.And(count, b.Const(w, uint64(w-1)))
		var hiPart, loPart *bv.Term
		if in.Op == x64.ROL {
			hiPart = b.Shl(a, c)
			loPart = b.Lshr(a, b.Sub(wc, c))
		} else {
			hiPart = b.Lshr(a, c)
			loPart = b.Shl(a, b.Sub(wc, c))
		}
		rot := b.Or(hiPart, loPart)
		// A zero count must keep a unchanged (w - 0 = w shifts to zero in
		// our shift semantics, which matches).
		r = b.Ite(b.Eq(c, b.Const(w, 0)), a, rot)
		if in.Op == x64.ROL {
			cf = b.Extract(r, 0, 1)
			of = b.Xor(s.msb(r), cf)
		} else {
			cf = s.msb(r)
			of = b.Xor(s.msb(r), b.Extract(r, r.Width-2, 1))
		}
		s.setFlagUnder(nonzero, x64.FlagCF, cf)
		s.setFlagUnder(nonzero, x64.FlagOF, of)
		s.writeOp(in.Opd[1], b.Ite(nonzero, r, a))
		return
	}
	sf, zf, pf := s.szpFlags(r)
	s.setFlagUnder(nonzero, x64.FlagCF, cf)
	s.setFlagUnder(nonzero, x64.FlagOF, of)
	s.setFlagUnder(nonzero, x64.FlagSF, sf)
	s.setFlagUnder(nonzero, x64.FlagZF, zf)
	s.setFlagUnder(nonzero, x64.FlagPF, pf)
	s.writeOp(in.Opd[1], b.Ite(nonzero, r, a))
}

// execDoubleShift handles shld/shrd with immediate counts.
func (s *symState) execDoubleShift(in *x64.Inst) {
	b := s.b
	w := w8(in.Opd[2].Width)
	countMask := uint64(31)
	if w == 64 {
		countMask = 63
	}
	cnt := uint64(in.Opd[0].Imm) & countMask
	src := s.readOp(in.Opd[1])
	dst := s.readOp(in.Opd[2])
	if cnt == 0 {
		return
	}
	cTerm := b.Const(w, cnt)
	wTerm := b.Const(w, uint64(w))
	var r, cf *bv.Term
	if in.Op == x64.SHLD {
		r = b.Or(b.Shl(dst, cTerm), b.Lshr(src, b.Sub(wTerm, cTerm)))
		cf = b.Extract(b.Lshr(dst, b.Sub(wTerm, cTerm)), 0, 1)
	} else {
		r = b.Or(b.Lshr(dst, cTerm), b.Shl(src, b.Sub(wTerm, cTerm)))
		cf = b.Extract(b.Lshr(dst, b.Const(w, cnt-1)), 0, 1)
	}
	of := b.Xor(s.msb(r), s.msb(dst))
	sf, zf, pf := s.szpFlags(r)
	s.setFlag(x64.FlagCF, cf)
	s.setFlag(x64.FlagOF, of)
	s.setFlag(x64.FlagSF, sf)
	s.setFlag(x64.FlagZF, zf)
	s.setFlag(x64.FlagPF, pf)
	s.writeOp(in.Opd[2], r)
}
