package main

import (
	"fmt"
	"math/rand"

	"repro/internal/canon"
	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/x64"
)

// hdArgRegs carry a Hacker's Delight kernel's 32-bit parameters, in order;
// the result is eax.
var hdArgRegs = []x64.Reg{x64.RDI, x64.RSI, x64.RDX, x64.RCX}

// checkInputs is how many fresh inputs every checked rewrite runs on.
const checkInputs = 64

// identity is the register permutation of an unrenamed request.
func identity() *[x64.NumGPR]x64.Reg {
	var p [x64.NumGPR]x64.Reg
	for r := range p {
		p[r] = x64.Reg(r)
	}
	return &p
}

// randomRenaming draws a register permutation that fixes the registers p
// pins (rsp and implicit operands), so renaming p keeps its semantics.
func randomRenaming(p *x64.Program, rng *rand.Rand) *[x64.NumGPR]x64.Reg {
	pinned := canon.PinnedGPRs(p)
	var free []x64.Reg
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if !pinned.Has(r) {
			free = append(free, r)
		}
	}
	perm := identity()
	for i, j := range rng.Perm(len(free)) {
		perm[free[i]] = free[j]
	}
	return perm
}

// rename applies a register permutation to every register operand of p.
func rename(p *x64.Program, perm *[x64.NumGPR]x64.Reg) *x64.Program {
	q := p.Clone()
	for i := range q.Insts {
		in := &q.Insts[i]
		for j := uint8(0); j < in.N; j++ {
			o := &in.Opd[j]
			switch o.Kind {
			case x64.KindReg:
				o.Reg = perm[o.Reg]
			case x64.KindMem:
				if o.Base < x64.NumGPR {
					o.Base = perm[o.Base]
				}
				if o.Index < x64.NumGPR {
					o.Index = perm[o.Index]
				}
			}
		}
	}
	return q
}

// bumpConst returns p with every immediate equal to its first immediate c
// replaced by c-1 (c+1 when c ≤ 1): the same skeleton with other
// constants, which the rewrite store answers as a near miss. It reports
// false when p has no immediate.
func bumpConst(p *x64.Program) (*x64.Program, bool) {
	q := p.Clone()
	found, c := false, int64(0)
	for i := range q.Insts {
		in := &q.Insts[i]
		for j := uint8(0); j < in.N; j++ {
			o := &in.Opd[j]
			if o.Kind != x64.KindImm {
				continue
			}
			if !found {
				found, c = true, o.Imm
			}
			if o.Imm == c {
				o.Imm = c - 1
				if c <= 1 {
					o.Imm = c + 1
				}
			}
		}
	}
	return q, found
}

// checkRewrite runs rewrite on fresh inputs through the reference
// interpreter (emu.Machine.Run, never the compiled evaluator the search
// scores with) in the register space perm maps the kernel into, and
// compares its result with the kernel's reference semantics (RefHD), or
// with ref run the same way when ref is non-nil (a constant-changed
// request has no RefHD).
func checkRewrite(b *kernels.Bench, rewrite, ref *x64.Program, perm *[x64.NumGPR]x64.Reg, rng *rand.Rand) error {
	m := emu.New()
	out := perm[x64.RAX]
	for i := 0; i < checkInputs; i++ {
		orig := b.Spec.BuildInput(rng)
		in := permuteInput(orig, perm)
		var want uint32
		if ref != nil {
			v, err := runRef(m, ref, in, out)
			if err != nil {
				return fmt.Errorf("%s: reference program: %w", b.Name, err)
			}
			want = v
		} else {
			args := make([]uint32, b.Params)
			for j := range args {
				args[j] = uint32(orig.Regs[hdArgRegs[j]])
			}
			want = b.RefHD(args)
		}
		got, err := runRef(m, rewrite, in, out)
		if err != nil {
			return fmt.Errorf("%s: rewrite: %w", b.Name, err)
		}
		if got != want {
			return fmt.Errorf("%s: input %d: rewrite gives %#x, reference %#x", b.Name, i, got, want)
		}
	}
	return nil
}

// permuteInput moves every register value of s to the register perm maps
// it to, keeping the memory image.
func permuteInput(s *emu.Snapshot, perm *[x64.NumGPR]x64.Reg) *emu.Snapshot {
	t := s.Clone()
	t.RegDef = 0
	for r := 0; r < x64.NumGPR; r++ {
		t.Regs[perm[r]] = s.Regs[r]
		if s.RegDef&(1<<r) != 0 {
			t.RegDef |= 1 << perm[r]
		}
	}
	return t
}

// runRef executes p on in through the reference interpreter and returns
// the low 32 bits of out.
func runRef(m *emu.Machine, p *x64.Program, in *emu.Snapshot, out x64.Reg) (uint32, error) {
	m.LoadSnapshot(in)
	o := m.Run(p)
	if o.SigSegv > 0 || o.SigFpe > 0 || o.Exhaust {
		return 0, fmt.Errorf("faulted (segv %d, fpe %d, exhausted %v)", o.SigSegv, o.SigFpe, o.Exhaust)
	}
	return uint32(m.RegValue(out, 4)), nil
}
