package stoke

import (
	"context"
	"math/rand"

	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// Program is a loop-free x86-64 instruction sequence.
type Program = x64.Program

// Kernel describes one optimization target: the -O0 style input binary, the
// annotated driver that generates inputs for it, and its live outputs.
type Kernel struct {
	Name   string
	Target *x64.Program
	Spec   testgen.Spec

	// LiveMem names the live memory ranges for the validator (the
	// testcase layer discovers live memory dynamically; the symbolic layer
	// needs the annotation).
	LiveMem []verify.MemRange

	// Pointers lists registers that carry addresses; counterexample
	// register values never override them (a counterexample pointing rdi
	// into unmapped space is not a runnable testcase).
	Pointers x64.RegSet

	// SSE enables vector opcodes in the proposal distribution.
	SSE bool
}

// Register aliases for kernel annotations.
const (
	RAX = x64.RAX
	RCX = x64.RCX
	RDX = x64.RDX
	RBX = x64.RBX
	RSP = x64.RSP
	RBP = x64.RBP
	RSI = x64.RSI
	RDI = x64.RDI
	R8  = x64.R8
	R9  = x64.R9
	R10 = x64.R10
	R11 = x64.R11
	R12 = x64.R12
	R13 = x64.R13
	R14 = x64.R14
	R15 = x64.R15
)

// Parse reads assembly in the paper's AT&T-flavoured listing syntax.
func Parse(src string) (*Program, error) { return x64.Parse(src) }

// MustParse is Parse, panicking on malformed input.
func MustParse(src string) *Program { return x64.MustParse(src) }

// KernelOption customises NewKernel.
type KernelOption func(*kernelCfg)

type kernelCfg struct {
	inputs    []x64.Reg
	inputs32  []x64.Reg
	outputs   []testgen.LiveReg
	stackSize int
	sse       bool
}

// WithInputs declares 64-bit input registers, sampled uniformly at random.
func WithInputs(regs ...x64.Reg) KernelOption {
	return func(c *kernelCfg) { c.inputs = append(c.inputs, regs...) }
}

// WithInputs32 declares 32-bit input registers (the upper halves are zero).
func WithInputs32(regs ...x64.Reg) KernelOption {
	return func(c *kernelCfg) { c.inputs32 = append(c.inputs32, regs...) }
}

// WithOutput64 declares 64-bit live output registers.
func WithOutput64(regs ...x64.Reg) KernelOption {
	return func(c *kernelCfg) {
		for _, r := range regs {
			c.outputs = append(c.outputs, testgen.LiveReg{Reg: r, Width: 8})
		}
	}
}

// WithOutput32 declares 32-bit live output registers.
func WithOutput32(regs ...x64.Reg) KernelOption {
	return func(c *kernelCfg) {
		for _, r := range regs {
			c.outputs = append(c.outputs, testgen.LiveReg{Reg: r, Width: 4})
		}
	}
}

// WithStack provides a stack segment of the given size (default 512 bytes;
// always present so rsp-relative scratch works).
func WithStack(bytes int) KernelOption {
	return func(c *kernelCfg) { c.stackSize = bytes }
}

// WithVectorOps enables vector opcodes in the proposal distribution for
// this kernel.
func WithVectorOps() KernelOption {
	return func(c *kernelCfg) { c.sse = true }
}

// NewKernel builds a register-to-register kernel description from a target
// program and annotations. Memory-rich kernels (arrays, pointers) should
// construct Kernel directly with a custom testgen.Spec — see
// internal/kernels for full examples.
func NewKernel(name string, target *Program, opts ...KernelOption) Kernel {
	cfg := kernelCfg{stackSize: 512}
	for _, o := range opts {
		o(&cfg)
	}
	spec := testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x100000)
			a.AllocStack(cfg.stackSize)
			for _, r := range cfg.inputs {
				a.SetReg(r, rng.Uint64())
			}
			for _, r := range cfg.inputs32 {
				a.SetReg(r, uint64(rng.Uint32()))
			}
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{GPRs: cfg.outputs},
	}
	return Kernel{
		Name:     name,
		Target:   target,
		Spec:     spec,
		Pointers: x64.RegSet(0).With(x64.RSP),
		SSE:      cfg.sse,
	}
}

// Equivalent asks the sound validator whether two programs agree on the
// given live output registers for every machine state (§5.2). The context
// cancels a long-running proof; a cancelled query answers Unknown.
func Equivalent(ctx context.Context, target, rewrite *Program, liveOut64 ...x64.Reg) verify.Result {
	var live verify.LiveOut
	for _, r := range liveOut64 {
		live.GPRs = append(live.GPRs, testgen.LiveReg{Reg: r, Width: 8})
	}
	return verify.Equivalent(ctx, target, rewrite, live, verify.DefaultConfig)
}
