// Package testgen generates testcases the way §5.1 of the paper describes:
// a user-supplied annotation (here a Spec) says which registers carry inputs
// and what memory the kernel may touch; inputs are sampled uniformly at
// random (with annotated ranges for values used as addresses); the target is
// run under instrumentation; and the addresses it dereferences define the
// sandbox inside which candidate rewrites execute. The live outputs the
// target produces on each input become the expected side effects that the
// cost function's Hamming-distance terms compare against.
package testgen

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/emu"
	"repro/internal/x64"
)

// LiveReg names one live register and the width (in bytes) at which its
// value is compared.
type LiveReg struct {
	Reg   x64.Reg
	Width uint8
}

// LiveSet declares the live outputs of a kernel with respect to the target:
// the registers (and widths), XMM registers, and flags whose final values
// constitute the function's side effects, plus which memory segments carry
// live data. Within a live segment, every byte the target writes is a live
// output; segments not listed (notably the stack, which -O0 code churns
// through but which is dead on function exit) are scratch space.
type LiveSet struct {
	GPRs  []LiveReg
	Xmms  []x64.Reg
	Flags x64.FlagSet

	// LiveSegs indexes the snapshot's memory segments whose written bytes
	// are live outputs.
	LiveSegs []int
}

func (ls LiveSet) segLive(idx int) bool {
	for _, s := range ls.LiveSegs {
		if s == idx {
			return true
		}
	}
	return false
}

// Spec is the annotated driver of Figure 9: it builds random initial
// machine states for the target and declares the live-out set.
type Spec struct {
	// BuildInput samples one random input state. All memory the kernel may
	// legally touch must be present as segments (with Valid bytes); the
	// instrumented target run narrows Valid to what is actually
	// dereferenced.
	BuildInput func(rng *rand.Rand) *emu.Snapshot

	// LiveOut declares the live outputs with respect to the target.
	LiveOut LiveSet
}

// MemCheck is one expected live memory byte.
type MemCheck struct {
	Addr uint64
	Want byte
}

// Testcase pairs an input state with the target's side effects on it.
type Testcase struct {
	In *emu.Snapshot

	// Expected live register outputs, parallel to Spec.LiveOut.GPRs.
	WantGPR []uint64
	// Expected live XMM outputs, parallel to Spec.LiveOut.Xmms.
	WantXmm [][2]uint64
	// Expected flag valuation on the flags in Spec.LiveOut.Flags.
	WantFlags x64.FlagSet
	// Expected memory bytes (every byte the target wrote).
	WantMem []MemCheck
}

// Generate produces n testcases for the target program (§5.1: STOKE
// generates 32 testcases per target by default).
func Generate(target *x64.Program, spec Spec, n int, rng *rand.Rand) ([]Testcase, error) {
	tcs := make([]Testcase, 0, n)
	m := emu.New()
	for len(tcs) < n {
		in := spec.BuildInput(rng)
		FillUndefined(in, rng)
		tc, err := FromInput(m, target, spec, in)
		if err != nil {
			return nil, err
		}
		tcs = append(tcs, tc)
	}
	return tcs, nil
}

// FillUndefined pours random junk into every register, XMM register and
// flag the spec left undefined, without marking them defined. Machine
// states are sampled uniformly at random (§5.1): undefined state still
// *has* a value on a real machine, and pinning it to zero would let
// rewrites smuggle an "always zero" guess past the testcases — exactly
// the failure mode §6.3 describes for the almost-constant kernels.
func FillUndefined(s *emu.Snapshot, rng *rand.Rand) {
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if s.RegDef&(1<<r) == 0 {
			s.Regs[r] = rng.Uint64()
		}
	}
	for r := 0; r < x64.NumXMM; r++ {
		if s.XmmDef&(1<<r) == 0 {
			s.Xmm[r] = [2]uint64{rng.Uint64(), rng.Uint64()}
		}
	}
	junkFlags := x64.FlagSet(rng.Intn(32))
	s.Flags = s.Flags&s.FlagsDef | junkFlags&^s.FlagsDef
}

// FromInput runs the target on one input under instrumentation and builds
// the corresponding testcase. It is also the path by which validator
// counterexamples are folded back into the testcase set (§4.1: "failed
// computations of eq(·) will produce a counterexample testcase that may be
// used to refine τ").
func FromInput(m *emu.Machine, target *x64.Program, spec Spec, in *emu.Snapshot) (Testcase, error) {
	if m == nil {
		m = emu.New()
	}
	trace := emu.NewTrace()
	m.LoadSnapshot(in)
	m.SetTrace(trace)
	out := m.Run(target)
	m.SetTrace(nil)
	if out.SigSegv+out.SigFpe > 0 || out.Exhaust {
		return Testcase{}, fmt.Errorf("testgen: target faulted on generated input: %+v", out)
	}

	// The sandbox for rewrites is exactly the set of addresses the target
	// dereferenced (§5.1). The run did not fault, so every dereference
	// fell inside one segment and the trace's bitsets hold all of them.
	tc := Testcase{In: cloneWithValid(in, trace)}

	// Record live outputs from the target's final state.
	for _, lr := range spec.LiveOut.GPRs {
		tc.WantGPR = append(tc.WantGPR, m.RegValue(lr.Reg, lr.Width))
	}
	for _, xr := range spec.LiveOut.Xmms {
		tc.WantXmm = append(tc.WantXmm, m.Xmm[xr])
	}
	tc.WantFlags = m.Flags & spec.LiveOut.Flags

	// Every byte the target wrote inside a live segment is a live memory
	// output, listed by segment, then by address, for determinism.
	for si := range tc.In.Mem {
		if !spec.LiveOut.segLive(si) {
			continue
		}
		base := tc.In.Mem[si].Base
		for wi, w := range trace.Writes[si] {
			for ; w != 0; w &= w - 1 {
				addr := base + uint64(wi*64+bits.TrailingZeros64(w))
				b, _, ok := m.MemByte(addr)
				if !ok {
					return Testcase{}, fmt.Errorf("testgen: written byte %#x vanished", addr)
				}
				tc.WantMem = append(tc.WantMem, MemCheck{Addr: addr, Want: b})
			}
		}
	}
	return tc, nil
}

// cloneWithValid deep-copies in with each segment's Valid plane narrowed
// to the bytes the trace saw read or written.
func cloneWithValid(in *emu.Snapshot, trace *emu.Trace) *emu.Snapshot {
	out := in.Clone()
	for si := range out.Mem {
		valid := out.Mem[si].Valid
		clear(valid)
		reads, writes := trace.Reads[si], trace.Writes[si]
		for wi := range reads {
			for w := reads[wi] | writes[wi]; w != 0; w &= w - 1 {
				valid[wi*64+bits.TrailingZeros64(w)] = true
			}
		}
	}
	return out
}

// Arena is a helper for building input snapshots: a bump allocator over a
// synthetic address space that lays out segments and points registers at
// them, mirroring the pointer-range annotations of §5.1.
type Arena struct {
	s    *emu.Snapshot
	next uint64
}

// NewArena starts an input snapshot at the given base address. Input flags
// are undefined — nothing guarantees flag state at function entry, so
// rewrites reading flags before writing them incur the undef penalty (and
// the symbolic validator, which treats input flags as free variables,
// agrees).
func NewArena(base uint64) *Arena {
	return &Arena{s: &emu.Snapshot{}, next: base}
}

// SetReg sets an input register to a defined value.
func (a *Arena) SetReg(r x64.Reg, v uint64) {
	a.s.Regs[r] = v
	a.s.RegDef |= 1 << r
}

// SetXmm sets an input XMM register to a defined value.
func (a *Arena) SetXmm(r x64.Reg, v [2]uint64) {
	a.s.Xmm[r] = v
	a.s.XmmDef |= 1 << r
}

// Alloc reserves size bytes (16-byte aligned), fills them with data, and
// returns the base address. All bytes are defined and sandbox-valid until
// the instrumented target run narrows validity.
func (a *Arena) Alloc(size int, fill func(i int) byte) uint64 {
	base := (a.next + 15) &^ 15
	a.next = base + uint64(size) + 32 // red zone between segments
	im := emu.MemImage{
		Base:  base,
		Data:  make([]byte, size),
		Def:   make([]bool, size),
		Valid: make([]bool, size),
	}
	if fill != nil {
		for i := range im.Data {
			im.Data[i] = fill(i)
		}
	}
	setAll(im.Def)
	setAll(im.Valid)
	a.s.Mem = append(a.s.Mem, im)
	return base
}

// AllocStack reserves a stack segment of the given size and points RSP at
// its midpoint, modelling the paper's rsp-relative stack discipline. Bytes
// are valid but undefined (reads before writes are flagged as undef).
func (a *Arena) AllocStack(size int) uint64 {
	base := (a.next + 15) &^ 15
	a.next = base + uint64(size) + 32
	im := emu.MemImage{
		Base:  base,
		Data:  make([]byte, size),
		Def:   make([]bool, size),
		Valid: make([]bool, size),
	}
	setAll(im.Valid)
	a.s.Mem = append(a.s.Mem, im)
	sp := base + uint64(size/2)
	a.SetReg(x64.RSP, sp)
	return sp
}

// Snapshot returns the built snapshot.
func (a *Arena) Snapshot() *emu.Snapshot { return a.s }

// setAll sets every element of b by doubling copies: a memmove per power
// of two instead of a store per byte (every input's stack is 1 KiB).
func setAll(b []bool) {
	if len(b) == 0 {
		return
	}
	b[0] = true
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}
