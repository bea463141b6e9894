package x64

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads assembly text in the paper's AT&T-flavoured listing style and
// returns the program. Accepted syntax, matching Figures 1/13/14/15:
//
//	# comment                      (also "//" comments)
//	.set name value                constant definition
//	.L0    or    .L0:              label definition
//	movq rsi, r9                   source, destination order
//	shlq 32, rcx                   immediates without $ (also accepted with)
//	movl (rsi,rcx,4), eax          disp(base,index,scale) memory operands
//	jae .L2                        forward branches
//
// Register names may carry an optional %. Mnemonic width suffixes (b/w/l/q)
// are optional whenever register operands determine the width.
func Parse(src string) (*Program, error) {
	p := &parser{
		consts: map[string]int64{},
		labels: map[string]int32{},
	}
	prog := &Program{}
	for lineno, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		insts, err := p.parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %q: %w", lineno+1, strings.TrimSpace(raw), err)
		}
		prog.Insts = append(prog.Insts, insts...)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse, panicking on error. Intended for statically-known
// kernel listings.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic("x64.MustParse: " + err.Error())
	}
	return p
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	return line
}

type parser struct {
	consts map[string]int64
	labels map[string]int32
}

func (p *parser) labelID(name string) int32 {
	if id, ok := p.labels[name]; ok {
		return id
	}
	id := int32(len(p.labels))
	p.labels[name] = id
	return id
}

func (p *parser) parseLine(line string) ([]Inst, error) {
	// Directives.
	if strings.HasPrefix(line, ".set ") {
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("malformed .set")
		}
		v, err := parseInt(fields[2])
		if err != nil {
			return nil, fmt.Errorf(".set value: %w", err)
		}
		p.consts[fields[1]] = v
		return nil, nil
	}
	// Label definitions: ".L0" or ".L0:".
	if strings.HasPrefix(line, ".") && !strings.ContainsAny(line, " \t") {
		name := strings.TrimSuffix(line, ":")
		return []Inst{MakeInst(LABEL, LabelRef(p.labelID(name)))}, nil
	}

	// Instruction: mnemonic then comma-separated operands.
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	var rawOpds []string
	if rest != "" {
		rawOpds = splitOperands(rest)
	}

	cands, ccParsed, err := p.resolveMnemonic(strings.ToLower(mnemonic))
	if err != nil {
		return nil, err
	}

	operands := make([]Operand, 0, 3)
	for _, ro := range rawOpds {
		o, err := p.parseOperand(ro)
		if err != nil {
			return nil, fmt.Errorf("operand %q: %w", ro, err)
		}
		operands = append(operands, o)
	}

	var lastErr error
	for _, c := range cands {
		in, err := finalize(c.op, c.cc, ccParsed, c.widths, operands)
		if err != nil {
			lastErr = err
			continue
		}
		return []Inst{in}, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	return nil, lastErr
}

// candidate is one possible reading of a mnemonic.
type candidate struct {
	op     Opcode
	cc     Cond
	widths [2]uint8 // src/dst widths implied by suffixes (0 = unknown)
}

// baseMnemonics maps a base name (no suffix, no cc) to opcode candidates.
var baseMnemonics = map[string][]Opcode{
	"mov": {MOV, MOVQX}, "movabs": {MOVABS},
	"lea": {LEA}, "xchg": {XCHG}, "push": {PUSH}, "pop": {POP},
	"add": {ADD}, "adc": {ADC}, "sub": {SUB}, "sbb": {SBB},
	"cmp": {CMP}, "test": {TEST}, "neg": {NEG}, "inc": {INC}, "dec": {DEC},
	"imul": {IMUL, IMUL3, IMUL1}, "mul": {MUL}, "div": {DIV}, "idiv": {IDIV},
	"and": {AND}, "or": {OR}, "xor": {XOR}, "not": {NOT},
	"shl": {SHL}, "sal": {SHL}, "shr": {SHR}, "sar": {SAR},
	"rol": {ROL}, "ror": {ROR}, "shld": {SHLD}, "shrd": {SHRD},
	"popcnt": {POPCNT}, "bsf": {BSF}, "bsr": {BSR}, "bswap": {BSWAP}, "bt": {BT},
	"jmp": {JMP}, "ret": {RET},
	"movd": {MOVD}, "movups": {MOVUPS}, "movdqu": {MOVUPS}, "movaps": {MOVAPS},
	"movdqa": {MOVAPS},
	"shufps": {SHUFPS}, "pshufd": {PSHUFD},
	"paddw": {PADDW}, "paddd": {PADDD}, "paddq": {PADDQ},
	"psubw": {PSUBW}, "psubd": {PSUBD},
	"pmullw": {PMULLW}, "pmulld": {PMULLD},
	"pand": {PAND}, "por": {POR}, "pxor": {PXOR},
	"pslld": {PSLLD}, "psrld": {PSRLD}, "psllq": {PSLLQ}, "psrlq": {PSRLQ},
	"nop": {UNUSED},
}

func suffixWidth(c byte) uint8 {
	switch c {
	case 'b':
		return 1
	case 'w':
		return 2
	case 'l':
		return 4
	case 'q':
		return 8
	}
	return 0
}

// resolveMnemonic decodes a full mnemonic (possibly with width suffix and/or
// condition code) into opcode candidates.
func (p *parser) resolveMnemonic(m string) ([]candidate, bool, error) {
	var cands []candidate

	add := func(ops []Opcode, cc Cond, w0, w1 uint8) {
		for _, op := range ops {
			cands = append(cands, candidate{op: op, cc: cc, widths: [2]uint8{w0, w1}})
		}
	}

	// Exact base name (movups, shufps, jmp, ...).
	if ops, ok := baseMnemonics[m]; ok {
		add(ops, CondNone, 0, 0)
	}
	// Base name with one width suffix (movq, addl, ...).
	if n := len(m); n > 1 {
		if w := suffixWidth(m[n-1]); w != 0 {
			if ops, ok := baseMnemonics[m[:n-1]]; ok {
				add(ops, CondNone, 0, w)
			}
		}
	}
	// movz/movs with two width suffixes (movzbl, movslq, ...).
	if len(m) == 6 && (strings.HasPrefix(m, "movz") || strings.HasPrefix(m, "movs")) {
		w0, w1 := suffixWidth(m[4]), suffixWidth(m[5])
		if w0 != 0 && w1 != 0 && w0 < w1 {
			op := MOVZX
			if m[3] == 's' {
				op = MOVSX
			}
			add([]Opcode{op}, CondNone, w0, w1)
		}
	}

	// Condition-code families: cmovXX[w], setXX, jXX.
	ccParsed := false
	for _, fam := range []struct {
		prefix string
		op     Opcode
	}{{"cmov", CMOVcc}, {"set", SETcc}, {"j", Jcc}} {
		if !strings.HasPrefix(m, fam.prefix) || len(m) <= len(fam.prefix) {
			continue
		}
		rest := m[len(fam.prefix):]
		// Longest condition spelling first, optionally followed by one
		// width suffix (cmovel = cmove + l).
		for k := min(3, len(rest)); k >= 1; k-- {
			cc, ok := LookupCond(rest[:k])
			if !ok {
				continue
			}
			rem := rest[k:]
			switch {
			case rem == "":
				add([]Opcode{fam.op}, cc, 0, 0)
				ccParsed = true
			case len(rem) == 1 && suffixWidth(rem[0]) != 0 && fam.op == CMOVcc:
				add([]Opcode{fam.op}, cc, 0, suffixWidth(rem[0]))
				ccParsed = true
			}
			if ccParsed {
				break
			}
		}
	}

	if len(cands) == 0 {
		return nil, false, fmt.Errorf("unknown mnemonic %q", m)
	}
	return cands, ccParsed, nil
}

// finalize fixes unknown operand widths from suffix hints and neighbouring
// operands, then validates the instruction against the opcode table.
func finalize(op Opcode, cc Cond, _ bool, widths [2]uint8, operands []Operand) (Inst, error) {
	opds := make([]Operand, len(operands))
	copy(opds, operands)

	// AT&T one-operand shift forms ("sall (rdi)") shift by an implicit 1.
	if IsShift(op) && len(opds) == 1 {
		opds = append([]Operand{Imm(1, 0)}, opds...)
	}

	suffix := widths[1]
	// movz/movs carry explicit src and dst widths.
	if (op == MOVZX || op == MOVSX) && widths[0] != 0 {
		if len(opds) == 2 {
			if opds[0].Kind == KindMem {
				opds[0].Width = widths[0]
			}
		}
		suffix = widths[1]
	}

	// Resolve unknown widths (imm and mem operands default to a GPR
	// operand's width, else to the suffix width). XMM operands give an
	// 8-byte context: SSE immediates are lane selectors and shift counts,
	// not 128-bit values.
	known := suffix
	sawXmm := false
	for _, o := range opds {
		if o.Kind == KindReg {
			known = o.Width
		}
		if o.Kind == KindXmm {
			sawXmm = true
		}
	}
	// SETcc writes a byte; shift counts are byte-sized immediates but take
	// the destination's width for signature purposes.
	if op == SETcc {
		known = 1
	}
	for i := range opds {
		if opds[i].Kind == KindLabel || opds[i].Kind == KindNone {
			continue
		}
		if opds[i].Width == 0 {
			w := suffix
			if w == 0 {
				w = known
			}
			if w == 0 && sawXmm {
				if opds[i].Kind == KindMem {
					// Memory beside an XMM register is a 128-bit access,
					// except for the explicit 32/64-bit lane moves.
					switch op {
					case MOVD:
						w = 4
					case MOVQX:
						w = 8
					default:
						w = 16
					}
				} else {
					// SSE immediates are lane selectors / shift counts.
					w = 8
				}
			}
			if w == 0 {
				// Bare push/jmp of an immediate has a natural default.
				if op == PUSH {
					w = 8
				} else {
					return Inst{}, fmt.Errorf("cannot infer operand width")
				}
			}
			opds[i].Width = w
		}
	}
	// A width suffix on the mnemonic must agree with the destination
	// register width for plain GPR forms (catches "movq eax, ebx").
	if suffix != 0 && op != MOVZX && op != MOVSX && op != MOVQX {
		info := Info(op)
		slot := info.DstSlot
		if slot >= 0 && int(slot) < len(opds) && opds[slot].Kind == KindReg &&
			opds[slot].Width != suffix {
			return Inst{}, fmt.Errorf("suffix width %d disagrees with %s",
				suffix*8, opds[slot])
		}
	}

	in := MakeCCInst(op, cc, opds...)
	if !Info(op).HasCC {
		in.CC = CondNone
	}
	if err := in.Validate(); err != nil {
		return Inst{}, err
	}
	return in, nil
}

// splitOperands splits "a, b, c" at top-level commas (commas inside
// parentheses belong to memory operands).
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func (p *parser) parseOperand(s string) (Operand, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Operand{}, fmt.Errorf("empty operand")
	}
	// Label reference.
	if strings.HasPrefix(s, ".") {
		return LabelRef(p.labelID(strings.TrimSuffix(s, ":"))), nil
	}
	// Register (with optional %).
	name := strings.TrimPrefix(s, "%")
	if r, w, xmm, ok := LookupReg(name); ok {
		if xmm {
			return X(r), nil
		}
		return R(r, w), nil
	}
	// Memory operand: [disp](base[,index[,scale]]).
	if i := strings.IndexByte(s, '('); i >= 0 && strings.HasSuffix(s, ")") {
		return p.parseMem(s, i)
	}
	// Immediate (optional $), possibly a .set constant.
	imm := strings.TrimPrefix(s, "$")
	if v, ok := p.consts[imm]; ok {
		return Imm(v, 0), nil
	}
	v, err := parseInt(imm)
	if err != nil {
		return Operand{}, err
	}
	return Imm(v, 0), nil
}

func (p *parser) parseMem(s string, open int) (Operand, error) {
	disp := int64(0)
	if open > 0 {
		d := s[:open]
		if v, ok := p.consts[d]; ok {
			disp = v
		} else {
			v, err := parseInt(d)
			if err != nil {
				return Operand{}, fmt.Errorf("displacement %q: %w", d, err)
			}
			disp = v
		}
	}
	inner := s[open+1 : len(s)-1]
	parts := strings.Split(inner, ",")
	o := Operand{Kind: KindMem, Base: NoReg, Index: NoReg, Scale: 1, Disp: int32(disp)}
	if disp != int64(int32(disp)) {
		return Operand{}, fmt.Errorf("displacement %d out of 32-bit range", disp)
	}
	reg := func(t string) (Reg, error) {
		t = strings.TrimPrefix(strings.TrimSpace(t), "%")
		r, w, xmm, ok := LookupReg(t)
		if !ok || xmm || w != 8 {
			return NoReg, fmt.Errorf("bad address register %q", t)
		}
		return r, nil
	}
	var err error
	if len(parts) >= 1 && strings.TrimSpace(parts[0]) != "" {
		if o.Base, err = reg(parts[0]); err != nil {
			return Operand{}, err
		}
	}
	if len(parts) >= 2 && strings.TrimSpace(parts[1]) != "" {
		if o.Index, err = reg(parts[1]); err != nil {
			return Operand{}, err
		}
	}
	if len(parts) >= 3 {
		sc, err := parseInt(strings.TrimSpace(parts[2]))
		if err != nil {
			return Operand{}, fmt.Errorf("scale: %w", err)
		}
		o.Scale = uint8(sc)
	}
	if len(parts) > 3 {
		return Operand{}, fmt.Errorf("malformed memory operand %q", s)
	}
	return o, nil
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}
