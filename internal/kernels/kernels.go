package kernels

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/verify"
	"repro/internal/x64"
	"repro/stoke"
)

// Bench is one benchmark of §6: a STOKE kernel (the llvm -O0 style target
// plus annotations) together with the production-compiler comparators and
// the paper's markers.
type Bench struct {
	stoke.Kernel

	// GccO3 and IccO3 are the -O3 comparator sequences of Figure 10.
	GccO3 *x64.Program
	IccO3 *x64.Program

	// PaperRewrite is the rewrite the paper prints for this kernel
	// (Figures 1, 13, 14, 15), where available. It anchors the Figure 10
	// STOKE bar when a local search run does not rediscover it.
	PaperRewrite *x64.Program

	// Star marks kernels where the paper's STOKE found an algorithmically
	// distinct rewrite (Figure 10).
	Star bool

	// SynthTimeout marks kernels whose synthesis phase timed out in the
	// paper (Figure 12: p19, p20, p24).
	SynthTimeout bool

	// RefHD, for Hacker's Delight kernels, is the reference semantics
	// over uint32 arguments (nil otherwise); Params is its arity.
	RefHD  func(a []uint32) uint32
	Params int
}

// All returns the full §6 suite in the paper's order: p01..p25, mont,
// list, saxpy.
func All() []Bench {
	var out []Bench
	for _, def := range hdDefs {
		f := hdFunc(def)
		b := Bench{
			Kernel: stoke.Kernel{
				Name:   def.name,
				Target: cc.CompileO0(f),
				Spec:   hdSpec(def),
			},
			GccO3:        cc.CompileO2(f, cc.FlavorGCC),
			IccO3:        cc.CompileO2(f, cc.FlavorICC),
			Star:         def.star,
			SynthTimeout: def.synthTimeout,
			RefHD:        def.ref,
			Params:       def.params,
		}
		out = append(out, b)
	}

	out = append(out, Bench{
		Kernel: stoke.Kernel{
			Name:   "mont",
			Target: x64.MustParse(montO0),
			Spec:   montSpec(),
		},
		GccO3:        x64.MustParse(montGccO3),
		IccO3:        x64.MustParse(montGccO3), // no icc listing in the paper; Fig. 10 shows icc ≈ gcc here
		PaperRewrite: x64.MustParse(montStoke),
		Star:         true,
	})

	out = append(out, Bench{
		Kernel: stoke.Kernel{
			Name:     "list",
			Target:   x64.MustParse(listO0),
			Spec:     listSpec(),
			LiveMem:  listLiveMem(),
			Pointers: x64.RegSet(0).With(x64.RSP),
		},
		GccO3:        x64.MustParse(listGccO3),
		IccO3:        x64.MustParse(listIccO3),
		PaperRewrite: x64.MustParse(listStoke),
	})

	saxpy := saxpyFunc()
	out = append(out, Bench{
		Kernel: stoke.Kernel{
			Name:     "saxpy",
			Target:   cc.CompileO0(saxpy),
			Spec:     saxpySpec(),
			LiveMem:  []verify.MemRange{{Base: x64.RSI, Disp: 0, Len: 16}},
			Pointers: x64.RegSet(0).With(x64.RSI).With(x64.RDX).With(x64.RSP),
			SSE:      true,
		},
		GccO3:        cc.CompileO2(saxpy, cc.FlavorGCC),
		IccO3:        cc.CompileO2(saxpy, cc.FlavorICC),
		PaperRewrite: x64.MustParse(saxpyStoke),
		Star:         true,
	})
	return out
}

// ByName returns the named benchmark.
func ByName(name string) (Bench, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Bench{}, fmt.Errorf("kernels: unknown benchmark %q", name)
}
