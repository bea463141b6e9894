package testgen

// Fuzz-case decoding for the emulator's differential fuzz targets
// (FuzzCompiledVsInterpreted, FuzzPatchVsFreshCompile in internal/emu).
//
// Any byte string decodes — deterministically and totally — into a
// differential scenario: a program drawn from a menu weighted toward the
// instructions whose compiled lowering is newest and trickiest (the divide
// family and the fixed-point SSE subset), an initial machine state built
// from a special-value table (zeros, sign boundaries, INT_MIN, all-ones),
// and a patch script of slot replacements and swaps. The fuzzer mutates raw
// bytes; this decoder turns every mutation into a valid scenario, so there
// are no rejected inputs to waste the search on.
//
// Layout (a cursor that reads zero once the input is exhausted, so short
// inputs are legal):
//
//	[0]         program length: 1 + b%12 slots
//	per slot    5 bytes: menu selector + 4 argument bytes (fixed width, so
//	            the encoder in SeedCorpus cannot drift from the decoder)
//	snapshot    fixed-size block: 16 GPRs (2 bytes each: value-table index,
//	            tweak), RegDef, 16 XMMs (4 bytes: 2 per lane), XmmDef,
//	            flags, flags-def, memory seed + def/valid stripe masks,
//	            and RDI/RSI segment offsets
//	edits       6 bytes each while input remains: slot selector + a menu
//	            instruction (or a swap when the selector's high bit is set)
//
// To extend the corpus when adding an opcode to the compiled pipeline: add
// a menu entry for it (a new Fz* constant and a decodeFuzzInst case), and a
// named seed in SeedCorpus exercising its edge cases; the checked-in
// corpus files under internal/emu/testdata/fuzz are regenerated with
// `go test ./internal/emu -run TestFuzzSeedCorpusFiles -update-fuzz-corpus`.

import (
	"repro/internal/emu"
	"repro/internal/x64"
)

// FuzzSegBase and FuzzSegSize locate the one memory segment of every fuzz
// snapshot; decoded pointer values and RDI/RSI offsets land inside it.
const (
	FuzzSegBase = 0x10000
	FuzzSegSize = 128
)

// maxFuzzEdits bounds the patch script so adversarial input lengths cannot
// make one fuzz execution arbitrarily slow.
const maxFuzzEdits = 128

// FuzzEdit is one step of a patch script: replace Slot with With, or (when
// Swap is set) exchange Slot and Other — the two mutation shapes the MCMC
// sampler patches compiled programs with.
type FuzzEdit struct {
	Slot  int
	With  x64.Inst
	Swap  bool
	Other int
}

// FuzzCase is a decoded differential scenario.
type FuzzCase struct {
	Prog  *x64.Program
	Snap  *emu.Snapshot
	Edits []FuzzEdit
}

// Menu selectors, one per instruction family. Exported so seeds (and tests
// over them) name slots symbolically instead of by magic number.
const (
	FzUnused byte = iota
	FzDiv
	FzIdiv
	FzMulWide
	FzMovGX
	FzMovups
	FzShuffle
	FzPacked
	FzPackedShift
	FzALU
	FzShift
	FzMovScalar
	FzCmpTest
	FzJcc
	FzLabel
	FzJmp
	FzRet
	FzIncDec      // inc/dec/neg/not: the partial- and no-flag-write unary family
	FzRegLiveness // width-varied writes over a small register set: deadness edges
	FzMemOp       // memory-operand forms: read-modify-write destinations, memory sources, setcc
	fzMenuLen
)

// fuzzVals is the special-value table machine state is sampled from: the
// zero/one neighbourhood, per-width sign boundaries (the denormal-free
// fixed-point edges of the SSE lanes), INT_MIN, and all-ones — the values
// the divide faults and packed wraparounds hinge on.
var fuzzVals = [16]uint64{
	0, 1, 2, 3,
	0x7f, 0x80, 0xff, 0x7fff,
	0x8000, 0x7fffffff, 0x80000000, 0xffffffff,
	1<<63 - 1, 1 << 63, ^uint64(0), ^uint64(0) - 1,
}

// Value-table indices for seed construction, named after their role.
const (
	fvZero     byte = 0
	fvOne      byte = 1
	fvTwo      byte = 2
	fvThree    byte = 3
	fvInt32Max byte = 9
	fvInt32Min byte = 10
	fvU32Max   byte = 11
	fvInt64Min byte = 13
	fvAllOnes  byte = 14
)

// fuzzVal maps two bytes to a 64-bit value: a table entry, optionally
// xor-perturbed by the tweak byte at a table-index-selected lane, or (high
// bit) a pointer into the fuzz segment.
func fuzzVal(idx, tweak byte) uint64 {
	if idx&0x80 != 0 {
		return FuzzSegBase + uint64(tweak)%FuzzSegSize
	}
	v := fuzzVals[idx%16]
	if tweak != 0 {
		v ^= uint64(tweak) << (8 * ((idx >> 4) & 7))
	}
	return v
}

type fuzzCursor struct {
	data []byte
	i    int
}

func (c *fuzzCursor) byte() byte {
	if c.i >= len(c.data) {
		return 0
	}
	b := c.data[c.i]
	c.i++
	return b
}

func (c *fuzzCursor) remaining() int { return len(c.data) - c.i }

// Decoding helpers shared by the menu cases.
func fzR(b byte) x64.Reg    { return x64.Reg(b % x64.NumGPR) }
func fzX(b byte) x64.Reg    { return x64.Reg(b % x64.NumXMM) }
func fzW(b byte) uint8      { return []uint8{8, 4}[b&1] }
func fzWAll(b byte) uint8   { return []uint8{1, 2, 4, 8}[b%4] }
func fzW16(b byte) uint8    { return []uint8{2, 4, 8}[b%3] }
func fzDisp(b byte) int32   { return int32(int8(b)) }
func fzBase(b byte) x64.Reg { return []x64.Reg{x64.RDI, x64.RSI}[b&1] }
func fzCC(b byte) x64.Cond  { return x64.Cond(1 + int(b)%(int(x64.NumConds)-1)) }

// decodeFuzzInst turns a menu selector and its four argument bytes into an
// instruction. Every path yields something both execution engines define;
// UNUSED is the explicit padding token (and the fallthrough for the
// selector's modulo spill).
func decodeFuzzInst(menu byte, a [4]byte) x64.Inst {
	switch menu % fzMenuLen {
	case FzDiv, FzIdiv:
		op := x64.DIV
		if menu%fzMenuLen == FzIdiv {
			op = x64.IDIV
		}
		w := fzW(a[0])
		if a[1]&0x80 != 0 {
			return x64.MakeInst(op, x64.Mem(fzBase(a[2]), fzDisp(a[3]), w))
		}
		return x64.MakeInst(op, x64.R(fzR(a[1]), w))
	case FzMulWide:
		op := x64.MUL
		if a[0]&1 != 0 {
			op = x64.IMUL1
		}
		return x64.MakeInst(op, x64.R(fzR(a[2]), fzW(a[1])))
	case FzMovGX:
		w := fzW(a[1])
		op := x64.MOVQX
		if w == 4 {
			op = x64.MOVD
		}
		switch a[0] % 4 {
		case 0:
			return x64.MakeInst(op, x64.R(fzR(a[2]), w), x64.X(fzX(a[3])))
		case 1:
			return x64.MakeInst(op, x64.X(fzX(a[3])), x64.R(fzR(a[2]), w))
		case 2:
			return x64.MakeInst(op, x64.Mem(fzBase(a[2]), fzDisp(a[3]), w), x64.X(fzX(a[2]>>1)))
		default:
			return x64.MakeInst(op, x64.X(fzX(a[2]>>1)), x64.Mem(fzBase(a[2]), fzDisp(a[3]), w))
		}
	case FzMovups:
		switch a[0] % 3 {
		case 0:
			op := x64.MOVAPS
			if a[0]&4 != 0 {
				op = x64.MOVUPS
			}
			return x64.MakeInst(op, x64.X(fzX(a[2])), x64.X(fzX(a[3])))
		case 1:
			return x64.MakeInst(x64.MOVUPS, x64.Mem(fzBase(a[2]), fzDisp(a[3]), 16), x64.X(fzX(a[2]>>1)))
		default:
			return x64.MakeInst(x64.MOVUPS, x64.X(fzX(a[2]>>1)), x64.Mem(fzBase(a[2]), fzDisp(a[3]), 16))
		}
	case FzShuffle:
		op := x64.SHUFPS
		if a[0]&1 != 0 {
			op = x64.PSHUFD
		}
		return x64.MakeInst(op, x64.Imm(int64(a[1]), 8), x64.X(fzX(a[2])), x64.X(fzX(a[3])))
	case FzPacked:
		ops := [10]x64.Opcode{
			x64.PADDW, x64.PSUBW, x64.PMULLW,
			x64.PADDD, x64.PSUBD, x64.PMULLD, x64.PADDQ,
			x64.PAND, x64.POR, x64.PXOR,
		}
		op := ops[a[0]%10]
		if a[1]&0x80 != 0 {
			return x64.MakeInst(op, x64.Mem(fzBase(a[3]), fzDisp(a[3]>>1), 16), x64.X(fzX(a[2])))
		}
		return x64.MakeInst(op, x64.X(fzX(a[1])), x64.X(fzX(a[2])))
	case FzPackedShift:
		ops := [4]x64.Opcode{x64.PSLLD, x64.PSRLD, x64.PSLLQ, x64.PSRLQ}
		return x64.MakeInst(ops[a[0]%4], x64.Imm(int64(a[1]), 8), x64.X(fzX(a[2])))
	case FzALU:
		ops := [7]x64.Opcode{x64.ADD, x64.SUB, x64.AND, x64.OR, x64.XOR, x64.ADC, x64.SBB}
		op := ops[a[0]%7]
		w := fzWAll(a[1])
		dst := x64.R(fzR(a[2]), w)
		if a[3]&0x80 != 0 {
			return x64.MakeInst(op, x64.Imm(int64(fuzzVal(a[3]&0x7f, 0)), w), dst)
		}
		return x64.MakeInst(op, x64.R(fzR(a[3]), w), dst)
	case FzShift:
		ops := [5]x64.Opcode{x64.SHL, x64.SHR, x64.SAR, x64.ROL, x64.ROR}
		op := ops[a[0]%5]
		w := fzWAll(a[1])
		dst := x64.R(fzR(a[2]), w)
		if a[3]&0x80 != 0 {
			return x64.MakeInst(op, x64.R(x64.RCX, 1), dst)
		}
		return x64.MakeInst(op, x64.Imm(int64(a[3]), w), dst)
	case FzMovScalar:
		w := fzWAll(a[1])
		switch a[0] % 4 {
		case 0:
			return x64.MakeInst(x64.MOV, x64.R(fzR(a[2]), w), x64.R(fzR(a[3]), w))
		case 1:
			return x64.MakeInst(x64.MOV, x64.Imm(int64(fuzzVal(a[3], 0)), w), x64.R(fzR(a[2]), w))
		case 2:
			return x64.MakeInst(x64.MOV, x64.Mem(fzBase(a[2]), fzDisp(a[3]), w), x64.R(fzR(a[2]>>1), w))
		default:
			return x64.MakeInst(x64.MOV, x64.R(fzR(a[2]>>1), w), x64.Mem(fzBase(a[2]), fzDisp(a[3]), w))
		}
	case FzCmpTest:
		w := fzW(a[1])
		switch a[0] % 4 {
		case 0:
			return x64.MakeInst(x64.CMP, x64.R(fzR(a[2]), w), x64.R(fzR(a[3]), w))
		case 1:
			return x64.MakeInst(x64.TEST, x64.R(fzR(a[2]), w), x64.R(fzR(a[3]), w))
		case 2:
			in := x64.MakeInst(x64.SETcc, x64.R(fzR(a[2]), 1))
			in.CC = fzCC(a[3])
			return in
		default:
			in := x64.MakeInst(x64.CMOVcc, x64.R(fzR(a[2]), w), x64.R(fzR(a[3]), w))
			in.CC = fzCC(a[1])
			return in
		}
	case FzJcc:
		in := x64.MakeInst(x64.Jcc, x64.LabelRef(int32(a[1]%4)))
		in.CC = fzCC(a[0])
		return in
	case FzLabel:
		return x64.MakeInst(x64.LABEL, x64.LabelRef(int32(a[0]%4)))
	case FzJmp:
		return x64.MakeInst(x64.JMP, x64.LabelRef(int32(a[0]%4)))
	case FzRet:
		return x64.MakeInst(x64.RET)
	case FzIncDec:
		// The unary family with partial flag writes (inc/dec preserve CF)
		// and none at all (not) — the kill-set edges of the compiled
		// pipeline's flag-liveness pass.
		ops := [4]x64.Opcode{x64.INC, x64.DEC, x64.NEG, x64.NOT}
		return x64.MakeInst(ops[a[0]%4], x64.R(fzR(a[2]), fzWAll(a[1])))
	case FzRegLiveness:
		// Register-deadness edges for the liveness pass: width-varied
		// writes over a deliberately small destination set, so random
		// programs overwrite each other's results and real kills occur —
		// narrow writes that merge into untouched bytes, 32-bit writes
		// whose zero-extension kills the full register, the dependency-
		// breaking zero idioms, the divide family's implicit RAX:RDX
		// defs, and cross-file GPR↔XMM moves.
		dst := []x64.Reg{x64.RAX, x64.RCX, x64.RDX, x64.RBX}[a[1]%4]
		switch a[0] % 8 {
		case 0: // 1-byte write: merges, killable only by a later wide write
			return x64.MakeInst(x64.MOV, x64.Imm(int64(a[3]), 1), x64.R(dst, 1))
		case 1: // 2-byte write: the same merge semantics one width up
			return x64.MakeInst(x64.MOV, x64.Imm(int64(fuzzVal(a[3], 0)), 2), x64.R(dst, 2))
		case 2: // 32-bit move: zero-extension makes it a full kill
			return x64.MakeInst(x64.MOV, x64.R(fzR(a[3]), 4), x64.R(dst, 4))
		case 3: // full-width kill
			return x64.MakeInst(x64.MOV, x64.R(fzR(a[3]), 8), x64.R(dst, 8))
		case 4: // zero idiom: kills its destination without reading it
			return x64.MakeInst(x64.XOR, x64.R(dst, fzW(a[3])), x64.R(dst, fzW(a[3])))
		case 5: // the divide family's implicit RAX:RDX uses and defs
			op := x64.DIV
			if a[3]&1 != 0 {
				op = x64.IDIV
			}
			return x64.MakeInst(op, x64.R(fzR(a[2]), fzW(a[3]>>1)))
		case 6: // xmm zero idiom: a full 128-bit kill
			return x64.MakeInst(x64.PXOR, x64.X(fzX(a[3])), x64.X(fzX(a[3])))
		default: // cross-file copies: deadness crossing the GPR/XMM boundary
			if a[3]&1 != 0 {
				return x64.MakeInst(x64.MOVD, x64.X(fzX(a[2])), x64.R(dst, 4))
			}
			return x64.MakeInst(x64.MOVD, x64.R(dst, 4), x64.X(fzX(a[2])))
		}
	case FzMemOp:
		return decodeFuzzMemOp(a)
	}
	return x64.Unused()
}

// decodeFuzzMemOp decodes the FzMemOp family: every memory-operand shape
// the proposal pools emit. a[0]%8 picks the shape class and a[0]>>3 the
// opcode within it; a[1] carries the width (low bits), the register/
// immediate (or CL) choice (0x80) and the condition code; the memory
// operand is Mem(fzBase(a[2]), fzDisp(a[3])) and a[2]>>1 supplies the
// register, immediate or shift count.
func decodeFuzzMemOp(a [4]byte) x64.Inst {
	sub := a[0] >> 3
	mem := func(w uint8) x64.Operand { return x64.Mem(fzBase(a[2]), fzDisp(a[3]), w) }
	reg := func(w uint8) x64.Operand { return x64.R(fzR(a[2]>>1), w) }
	imm := func(w uint8) x64.Operand { return x64.Imm(int64(fuzzVal((a[2]>>1)&0x0f, 0)), w) }
	switch a[0] % 8 {
	case 0: // read-modify-write ALU destination
		ops := [7]x64.Opcode{x64.ADD, x64.SUB, x64.AND, x64.OR, x64.XOR, x64.ADC, x64.SBB}
		w := fzWAll(a[1])
		if a[1]&0x80 != 0 {
			return x64.MakeInst(ops[sub%7], imm(w), mem(w))
		}
		return x64.MakeInst(ops[sub%7], reg(w), mem(w))
	case 1: // unary read-modify-write
		ops := [4]x64.Opcode{x64.INC, x64.DEC, x64.NEG, x64.NOT}
		return x64.MakeInst(ops[sub%4], mem(fzWAll(a[1])))
	case 2: // shifts and rotates of memory, by CL or an immediate (zero included)
		ops := [5]x64.Opcode{x64.SHL, x64.SHR, x64.SAR, x64.ROL, x64.ROR}
		w := fzWAll(a[1])
		if a[1]&0x80 != 0 {
			return x64.MakeInst(ops[sub%5], x64.R(x64.RCX, 1), mem(w))
		}
		return x64.MakeInst(ops[sub%5], x64.Imm(int64(a[2]>>1), w), mem(w))
	case 3: // setcc to memory
		return x64.MakeCCInst(x64.SETcc, fzCC(a[1]), mem(1))
	case 4: // compares reading memory: cmp/test against it, cmp from it
		w := fzWAll(a[1])
		switch sub % 3 {
		case 0:
			if a[1]&0x80 != 0 {
				return x64.MakeInst(x64.CMP, imm(w), mem(w))
			}
			return x64.MakeInst(x64.CMP, reg(w), mem(w))
		case 1:
			if a[1]&0x80 != 0 {
				return x64.MakeInst(x64.TEST, imm(w), mem(w))
			}
			return x64.MakeInst(x64.TEST, reg(w), mem(w))
		default:
			return x64.MakeInst(x64.CMP, mem(w), reg(w))
		}
	case 5: // memory-source multiplies
		switch sub % 4 {
		case 0:
			w := fzW16(a[1])
			return x64.MakeInst(x64.IMUL, mem(w), reg(w))
		case 1:
			w := fzW16(a[1])
			return x64.MakeInst(x64.IMUL3, imm(w), mem(w), reg(w))
		case 2:
			return x64.MakeInst(x64.MUL, mem(fzW(a[1])))
		default:
			return x64.MakeInst(x64.IMUL1, mem(fzW(a[1])))
		}
	case 6: // popcnt and sign extension from memory
		if sub%2 == 0 {
			w := fzW16(a[1])
			return x64.MakeInst(x64.POPCNT, mem(w), reg(w))
		}
		ext := [5][2]uint8{{1, 2}, {1, 4}, {1, 8}, {2, 4}, {4, 8}}[a[1]%5]
		return x64.MakeInst(x64.MOVSX, mem(ext[0]), reg(ext[1]))
	default: // adc/sbb from memory
		op := x64.ADC
		if sub%2 != 0 {
			op = x64.SBB
		}
		w := fzWAll(a[1])
		return x64.MakeInst(op, mem(w), reg(w))
	}
}

// DecodeFuzzCase decodes any byte string into a differential scenario (see
// the file comment for the layout).
func DecodeFuzzCase(data []byte) *FuzzCase {
	c := &fuzzCursor{data: data}

	n := 1 + int(c.byte())%12
	prog := x64.NewProgram(n)
	for i := 0; i < n; i++ {
		menu := c.byte()
		var a [4]byte
		for j := range a {
			a[j] = c.byte()
		}
		prog.Insts[i] = decodeFuzzInst(menu, a)
	}

	s := &emu.Snapshot{}
	for r := 0; r < x64.NumGPR; r++ {
		s.Regs[r] = fuzzVal(c.byte(), c.byte())
	}
	s.RegDef = uint16(c.byte()) | uint16(c.byte())<<8
	for r := 0; r < x64.NumXMM; r++ {
		s.Xmm[r] = [2]uint64{fuzzVal(c.byte(), c.byte()), fuzzVal(c.byte(), c.byte())}
	}
	s.XmmDef = uint16(c.byte()) | uint16(c.byte())<<8
	s.Flags = x64.FlagSet(c.byte() % 32)
	s.FlagsDef = x64.FlagSet(c.byte() % 32)

	seed, defMask, validMask := c.byte(), c.byte(), c.byte()
	im := emu.NewMemImage(FuzzSegBase, FuzzSegSize)
	for i := 0; i < FuzzSegSize; i++ {
		im.Data[i] = seed ^ byte(i*13)
		if defMask>>(i%8)&1 == 1 {
			im.Def.Set(i)
		}
		if validMask>>(i%8)&1 == 1 {
			im.Valid.Set(i)
		}
	}
	s.Mem = []emu.MemImage{im}

	rdi, rsi := c.byte(), c.byte()
	if rdi&0x80 == 0 {
		s.Regs[x64.RDI] = FuzzSegBase + uint64(rdi)%FuzzSegSize
		s.RegDef |= 1 << x64.RDI
	}
	if rsi&0x80 == 0 {
		s.Regs[x64.RSI] = FuzzSegBase + uint64(rsi)%FuzzSegSize
		s.RegDef |= 1 << x64.RSI
	}
	s.Regs[x64.RSP] = FuzzSegBase + FuzzSegSize/2
	s.RegDef |= 1 << x64.RSP

	fc := &FuzzCase{Prog: prog, Snap: s}
	for c.remaining() >= 6 && len(fc.Edits) < maxFuzzEdits {
		sel := c.byte()
		menu := c.byte()
		var a [4]byte
		for j := range a {
			a[j] = c.byte()
		}
		if sel&0x80 != 0 {
			fc.Edits = append(fc.Edits, FuzzEdit{
				Slot: int(sel) % n, Swap: true, Other: int(menu) % n,
			})
			continue
		}
		fc.Edits = append(fc.Edits, FuzzEdit{
			Slot: int(sel) % n, With: decodeFuzzInst(menu, a),
		})
	}
	return fc
}
