package x64

import (
	"fmt"
	"strings"
)

// Inst is a single instruction: an opcode, an optional condition code and up
// to three operands in AT&T order (sources before destination). Inst is a
// plain value type so the MCMC sampler can copy and mutate candidates
// without allocating.
type Inst struct {
	Op  Opcode
	CC  Cond
	N   uint8 // operand count
	Opd [3]Operand
}

// MakeInst builds an instruction from an opcode and operands.
func MakeInst(op Opcode, operands ...Operand) Inst {
	var in Inst
	in.Op = op
	in.N = uint8(len(operands))
	copy(in.Opd[:], operands)
	return in
}

// MakeCCInst builds a condition-code-carrying instruction (jcc, setcc,
// cmovcc).
func MakeCCInst(op Opcode, cc Cond, operands ...Operand) Inst {
	in := MakeInst(op, operands...)
	in.CC = cc
	return in
}

// Unused returns the distinguished UNUSED token (§4.3), which stands for an
// empty instruction slot in a fixed-length candidate sequence.
func Unused() Inst { return Inst{Op: UNUSED} }

// Validate checks the instruction against the opcode table: its operands
// must match one of the opcode's signatures, condition codes must appear
// exactly on cc-carrying opcodes, and fixed-register constraints (shift
// counts in CL) must hold.
func (in Inst) Validate() error {
	f, slot, ctxWidth := in.check()
	switch f {
	case faultOpcode:
		return fmt.Errorf("x64: invalid opcode %d", in.Op)
	case faultNoCC:
		return fmt.Errorf("x64: %s requires a condition code", Info(in.Op).Name)
	case faultCC:
		return fmt.Errorf("x64: %s does not take a condition code", Info(in.Op).Name)
	case faultSig:
		return fmt.Errorf("x64: no signature of %s matches %s", Info(in.Op).Name, in.String())
	case faultImmWidth:
		return fmt.Errorf("x64: immediate width %d does not match context %d in %s",
			in.Opd[slot].Width, ctxWidth, in.String())
	case faultShiftCount:
		return fmt.Errorf("x64: register shift count must be cl, got %s", in.Opd[slot])
	case faultScale:
		return fmt.Errorf("x64: bad scale %d in %s", in.Opd[slot].Scale, in.String())
	case faultAbsMem:
		return fmt.Errorf("x64: absolute memory operand %s not supported", in.Opd[slot])
	case faultBase:
		return fmt.Errorf("x64: bad base register in %s", in.String())
	case faultIndex:
		return fmt.Errorf("x64: bad index register in %s", in.String())
	}
	return nil
}

// Valid reports whether Validate accepts the instruction, without building
// an error: the sampler's proposal moves reject many draws and need only
// the answer.
func (in Inst) Valid() bool {
	f, _, _ := in.check()
	return f == fine
}

// fault names the first rule check finds broken.
type fault uint8

const (
	fine fault = iota
	faultOpcode
	faultNoCC
	faultCC
	faultSig
	faultImmWidth
	faultShiftCount
	faultScale
	faultAbsMem
	faultBase
	faultIndex
)

// check applies Validate's rules in order and returns the first one
// broken, the operand slot it concerns and the signature's immediate
// context width.
func (in *Inst) check() (f fault, slot, ctxWidth uint8) {
	if in.Op == BAD || in.Op >= NumOpcodes {
		return faultOpcode, 0, 0
	}
	if Info(in.Op).HasCC {
		if in.CC == CondNone || in.CC >= NumConds {
			return faultNoCC, 0, 0
		}
	} else if in.CC != CondNone {
		return faultCC, 0, 0
	}
	s, ok := MatchSig(in.Op, in.Opd[:in.N])
	if !ok {
		return faultSig, 0, 0
	}
	// Immediate operands must carry the signature's context width (the
	// symbolic validator builds constants at that width).
	ctxWidth = 8
	for i := uint8(0); i < s.N; i++ {
		if w := TokWidth(s.Slot[i]); w != 0 && w != 16 {
			ctxWidth = w
		}
	}
	for i := uint8(0); i < in.N; i++ {
		if in.Opd[i].Kind == KindImm && in.Opd[i].Width != ctxWidth {
			return faultImmWidth, i, ctxWidth
		}
	}
	// Shift-by-register forms require the count in CL.
	if IsShift(in.Op) && in.N == 2 && in.Opd[0].Kind == KindReg && in.Opd[0].Width == 1 {
		if in.Opd[0].Reg != RCX {
			return faultShiftCount, 0, ctxWidth
		}
	}
	// Memory operands must have sane scale and 64-bit base/index.
	for i := uint8(0); i < in.N; i++ {
		o := &in.Opd[i]
		if o.Kind != KindMem {
			continue
		}
		switch o.Scale {
		case 1, 2, 4, 8:
		default:
			return faultScale, i, ctxWidth
		}
		if o.Base == NoReg && o.Index == NoReg {
			return faultAbsMem, i, ctxWidth
		}
		if o.Base != NoReg && o.Base >= NumGPR {
			return faultBase, i, ctxWidth
		}
		if o.Index != NoReg && (o.Index >= NumGPR || o.Index == RSP) {
			return faultIndex, i, ctxWidth
		}
	}
	return fine, 0, ctxWidth
}

// IsShift reports whether op is one of the single shifts and rotates
// (SHL, SHR, SAR, ROL, ROR): the opcodes with a one-operand implicit-1 form
// and a CL count form. The double shifts SHLD/SHRD have neither.
func IsShift(op Opcode) bool {
	switch op {
	case SHL, SHR, SAR, ROL, ROR:
		return true
	}
	return false
}

// Effects describes the dataflow footprint of one instruction: the register,
// flag and memory locations it reads and writes. Partial-width register
// writes (8- and 16-bit destinations merge into the old value, and 32-bit
// writes zero the upper half but still target the full register) count the
// destination as read where hardware semantics require the old value.
type Effects struct {
	GPRRead   RegSet
	GPRWrite  RegSet
	XMMRead   uint16
	XMMWrite  uint16
	FlagsRead FlagSet
	FlagsWrit FlagSet
	MemRead   bool
	MemWrite  bool
}

// addOperandReads folds the registers an operand mentions for addressing or
// as a source into e.
func (e *Effects) addOperandReads(o Operand) {
	switch o.Kind {
	case KindReg:
		e.GPRRead = e.GPRRead.With(o.Reg)
	case KindXmm:
		e.XMMRead |= 1 << o.Reg
	case KindMem:
		if o.Base != NoReg {
			e.GPRRead = e.GPRRead.With(o.Base)
		}
		if o.Index != NoReg {
			e.GPRRead = e.GPRRead.With(o.Index)
		}
	}
}

// EffectsOf computes the dataflow footprint of in.
func EffectsOf(in Inst) Effects {
	var e Effects
	info := Info(in.Op)
	if in.Op == UNUSED || in.Op == LABEL || in.Op == RET {
		return e
	}
	e.GPRRead = info.ImplReads
	e.GPRWrite = info.ImplWrites
	e.FlagsRead = info.FlagsRead
	e.FlagsWrit = info.FlagsWrite
	if info.HasCC {
		e.FlagsRead |= FlagsReadByCond(in.CC)
	}
	if info.ImplMem {
		e.MemRead = in.Op == POP
		e.MemWrite = in.Op == PUSH
	}
	for i := int8(0); i < int8(in.N); i++ {
		o := in.Opd[i]
		isDst := i == info.DstSlot
		if info.BothRW {
			isDst = true
		}
		if !isDst || info.DstRead || info.BothRW {
			e.addOperandReads(o)
			if o.Kind == KindMem && (!isDst || info.DstRead) {
				e.MemRead = true
			}
		}
		if isDst {
			switch o.Kind {
			case KindReg:
				e.GPRWrite = e.GPRWrite.With(o.Reg)
				// Narrow writes merge with the old register value.
				if o.Width < 4 {
					e.GPRRead = e.GPRRead.With(o.Reg)
				}
			case KindXmm:
				e.XMMWrite |= 1 << o.Reg
			case KindMem:
				// Address registers are reads even for a pure store.
				if o.Base != NoReg {
					e.GPRRead = e.GPRRead.With(o.Base)
				}
				if o.Index != NoReg {
					e.GPRRead = e.GPRRead.With(o.Index)
				}
				e.MemWrite = true
			}
		}
	}
	// LEA only computes an address: it reads no memory.
	if in.Op == LEA {
		e.MemRead = false
	}
	return e
}

// widthSuffix returns the AT&T mnemonic suffix for a width in bytes.
func widthSuffix(w uint8) string {
	switch w {
	case 1:
		return "b"
	case 2:
		return "w"
	case 4:
		return "l"
	case 8:
		return "q"
	}
	return ""
}

// String renders the instruction in the paper's AT&T-flavoured syntax, e.g.
// "movq rsi, r9", "adcq 0, rdx", "jae .L2", ".L0:".
func (in Inst) String() string {
	info := Info(in.Op)
	switch in.Op {
	case UNUSED:
		return "# unused"
	case LABEL:
		return fmt.Sprintf(".L%d:", in.Opd[0].Label)
	case RET:
		return "retq"
	case BAD:
		return "# bad"
	}
	var b strings.Builder
	b.WriteString(info.Name)
	if info.HasCC {
		b.WriteString(in.CC.String())
	}
	b.WriteString(mnemonicSuffix(in))
	for i := uint8(0); i < in.N; i++ {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(in.Opd[i].String())
	}
	return b.String()
}

// mnemonicSuffix picks the width suffix to print for an instruction. SSE
// opcodes, label-only opcodes and opcodes whose register operands already
// determine the width print no suffix except where the paper's style always
// carries one (plain integer ALU ops).
func mnemonicSuffix(in Inst) string {
	info := Info(in.Op)
	switch in.Op {
	case MOVZX, MOVSX:
		// AT&T encodes both widths: movzbl, movswq, ...
		return widthSuffix(in.Opd[0].Width) + widthSuffix(in.Opd[1].Width)
	case JMP, Jcc, SETcc, MOVABS, BSWAP,
		MOVD, MOVQX, MOVUPS, MOVAPS, SHUFPS, PSHUFD,
		PADDW, PADDD, PADDQ, PSUBW, PSUBD, PMULLW, PMULLD,
		PAND, POR, PXOR, PSLLD, PSRLD, PSLLQ, PSRLQ:
		return ""
	}
	// Use the width of the destination (or sole/last operand).
	slot := info.DstSlot
	if slot < 0 {
		slot = int8(in.N) - 1
	}
	if slot < 0 || slot >= int8(in.N) {
		return ""
	}
	o := in.Opd[slot]
	if o.Kind == KindXmm {
		return ""
	}
	return widthSuffix(o.Width)
}
