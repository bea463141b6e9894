// SAXPY vectorization discovery (Figure 14).
//
// The target is the four-times unrolled scalar loop body the paper uses:
// x[i..i+3] = a*x[i..i+3] + y[i..i+3]. The production compilers stay
// scalar; the paper's STOKE discovers the SSE implementation (broadcast,
// packed multiply, packed add). This example runs the search with SSE
// proposals enabled and compares whatever it finds against the paper's
// vector rewrite.
//
//	go run ./examples/saxpy [-proposals N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/kernels"
	"repro/internal/pipeline"
	"repro/stoke"
)

func main() {
	proposals := flag.Int64("proposals", 200000, "optimization proposals per chain")
	flag.Parse()

	bench, err := kernels.ByName("saxpy")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("llvm -O0 target: %2d instructions, %5.1f cycles\n",
		bench.Target.InstCount(), pipeline.Cycles(bench.Target))
	fmt.Printf("gcc -O3 scalar:  %2d instructions, %5.1f cycles\n",
		bench.GccO3.InstCount(), pipeline.Cycles(bench.GccO3))
	fmt.Printf("paper's SSE:     %2d instructions, %5.1f cycles\n\n",
		bench.PaperRewrite.InstCount(), pipeline.Cycles(bench.PaperRewrite))

	report, err := stoke.Optimize(context.Background(), bench.Kernel,
		stoke.WithSeed(9),
		stoke.WithChains(1, 4),
		stoke.WithBudgets(20000, *proposals),
		stoke.WithEll(24)) // the kernel enables vector opcodes itself (Kernel.SSE)
	if err != nil {
		log.Fatal(err)
	}

	usesSSE := false
	for _, in := range report.Rewrite.Insts {
		for i := uint8(0); i < in.N; i++ {
			if in.Opd[i].IsXmm() {
				usesSSE = true
			}
		}
	}
	fmt.Printf("our search:      %2d instructions, %5.1f cycles, %.2fx over target, SSE used: %v\n",
		report.Rewrite.InstCount(), pipeline.Cycles(report.Rewrite),
		report.Speedup(), usesSSE)
	fmt.Printf("validator:       %v\n\n", report.Verdict)
	fmt.Printf("--- discovered rewrite ---\n%s\n", report.Rewrite)
	fmt.Printf("--- paper's SSE rewrite (Figure 14) ---\n%s", bench.PaperRewrite)
}
