// Package x64 defines the 64-bit x86 subset ISA used throughout the
// repository: registers, operands, opcodes, instructions, programs, and an
// AT&T-flavoured parser and printer matching the listings in the STOKE paper
// (operands in source, destination order; no % or $ sigils required).
//
// The subset is large enough to express every code sequence printed in the
// paper (Figures 1, 13, 14 and 15) and every rewrite the search proposes:
// all sixteen general purpose registers with 8/16/32/64-bit views, sixteen
// 128-bit XMM registers, the five arithmetic status flags, and roughly 340
// opcode/width signatures drawn from the integer and fixed-point SSE
// instruction groups.
package x64

import "fmt"

// Reg identifies a general purpose register (0-15, hardware encoding order)
// or an XMM register (0-15 in a separate namespace selected by the operand
// kind). The zero value is RAX; use NoReg for "absent".
type Reg uint8

// General purpose registers in hardware encoding order.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// NumGPR is the number of general purpose registers.
	NumGPR = 16

	// NoReg marks an absent base or index register in a memory operand.
	NoReg Reg = 0xFF
)

// XMM registers use the same 0-15 identifiers; operand kind distinguishes
// them from GPRs.
const (
	XMM0 Reg = iota
	XMM1
	XMM2
	XMM3
	XMM4
	XMM5
	XMM6
	XMM7
	XMM8
	XMM9
	XMM10
	XMM11
	XMM12
	XMM13
	XMM14
	XMM15

	// NumXMM is the number of XMM registers.
	NumXMM = 16
)

var gprNames = [4][16]string{
	// width 1 (low byte; high-byte forms ah..bh are intentionally omitted)
	{"al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil",
		"r8b", "r9b", "r10b", "r11b", "r12b", "r13b", "r14b", "r15b"},
	// width 2
	{"ax", "cx", "dx", "bx", "sp", "bp", "si", "di",
		"r8w", "r9w", "r10w", "r11w", "r12w", "r13w", "r14w", "r15w"},
	// width 4
	{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
		"r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"},
	// width 8
	{"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
		"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"},
}

func widthIndex(width uint8) int {
	switch width {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	}
	return -1
}

// GPRName returns the assembly name of r viewed at the given width in bytes
// (1, 2, 4 or 8), e.g. GPRName(RAX, 4) == "eax".
func GPRName(r Reg, width uint8) string {
	i := widthIndex(width)
	if i < 0 || r >= NumGPR {
		return fmt.Sprintf("gpr%d/%d?", r, width)
	}
	return gprNames[i][r]
}

// XMMName returns the assembly name of XMM register r.
func XMMName(r Reg) string {
	if r >= NumXMM {
		return fmt.Sprintf("xmm%d?", r)
	}
	return fmt.Sprintf("xmm%d", r)
}

// regByName maps every register spelling to (reg, width, isXmm).
var regByName = func() map[string]struct {
	reg   Reg
	width uint8
	xmm   bool
} {
	m := make(map[string]struct {
		reg   Reg
		width uint8
		xmm   bool
	})
	widths := [4]uint8{1, 2, 4, 8}
	for wi, names := range gprNames {
		for r, name := range names {
			m[name] = struct {
				reg   Reg
				width uint8
				xmm   bool
			}{Reg(r), widths[wi], false}
		}
	}
	for r := 0; r < NumXMM; r++ {
		m[fmt.Sprintf("xmm%d", r)] = struct {
			reg   Reg
			width uint8
			xmm   bool
		}{Reg(r), 16, true}
	}
	return m
}()

// LookupReg resolves a register spelling such as "eax", "r9d" or "xmm3".
// It reports the register id, its view width in bytes, whether it is an XMM
// register, and whether the name was recognised.
func LookupReg(name string) (r Reg, width uint8, xmm bool, ok bool) {
	e, ok := regByName[name]
	return e.reg, e.width, e.xmm, ok
}

// Flag identifies one of the five arithmetic status flags tracked by the
// emulator and validator.
type Flag uint8

// Status flags, as bit positions within a FlagSet.
const (
	FlagCF Flag = iota // carry
	FlagPF             // parity (of low byte)
	FlagZF             // zero
	FlagSF             // sign
	FlagOF             // overflow
	NumFlags
)

// FlagSet is a bitset of Flags.
type FlagSet uint8

// Flag set constants.
const (
	CF FlagSet = 1 << FlagCF
	PF FlagSet = 1 << FlagPF
	ZF FlagSet = 1 << FlagZF
	SF FlagSet = 1 << FlagSF
	OF FlagSet = 1 << FlagOF

	// AllFlags is the set of every tracked status flag.
	AllFlags = CF | PF | ZF | SF | OF
)

// Has reports whether f contains flag fl.
func (f FlagSet) Has(fl Flag) bool { return f&(1<<fl) != 0 }

// With returns f with flag fl added.
func (f FlagSet) With(fl Flag) FlagSet { return f | 1<<fl }

func (f Flag) String() string {
	switch f {
	case FlagCF:
		return "CF"
	case FlagPF:
		return "PF"
	case FlagZF:
		return "ZF"
	case FlagSF:
		return "SF"
	case FlagOF:
		return "OF"
	}
	return fmt.Sprintf("Flag(%d)", uint8(f))
}

func (f FlagSet) String() string {
	s := ""
	for fl := Flag(0); fl < NumFlags; fl++ {
		if f.Has(fl) {
			if s != "" {
				s += "|"
			}
			s += fl.String()
		}
	}
	if s == "" {
		return "∅"
	}
	return s
}

// RegSet is a bitset over the sixteen general purpose registers.
type RegSet uint16

// Has reports whether the set contains r.
func (s RegSet) Has(r Reg) bool { return r < NumGPR && s&(1<<r) != 0 }

// With returns s with r added.
func (s RegSet) With(r Reg) RegSet {
	if r >= NumGPR {
		return s
	}
	return s | 1<<r
}

// Count returns the number of registers in the set.
func (s RegSet) Count() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

func (s RegSet) String() string {
	out := ""
	for r := Reg(0); r < NumGPR; r++ {
		if s.Has(r) {
			if out != "" {
				out += ","
			}
			out += GPRName(r, 8)
		}
	}
	if out == "" {
		return "{}"
	}
	return "{" + out + "}"
}
