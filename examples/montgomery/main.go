// Montgomery multiplication — the paper's headline result (Figure 1).
//
// The target is the OpenSSL big-number kernel c1:c0 := np * mh:ml + c1 + c0
// as an -O0 compiler emits it (55 instructions of stack traffic and 32-bit
// partial products). gcc -O3 compresses it to 27 instructions but keeps the
// four-multiply decomposition; the paper's STOKE discovers an 11-instruction
// kernel built around the hardware widening multiply.
//
// The -timeout flag caps wall-clock time: on expiry the run returns the
// best rewrite found so far, marked partial.
//
//	go run ./examples/montgomery [-proposals N] [-timeout 30s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/kernels"
	"repro/internal/pipeline"
	"repro/stoke"
)

func main() {
	proposals := flag.Int64("proposals", 300000, "optimization proposals per chain")
	timeout := flag.Duration("timeout", 10*time.Minute, "wall-clock cap; expiry returns a partial result")
	independent := flag.Bool("independent", false, "run the paper's independent chains: no replica exchange or shared testcase profile (stagnant chains still reseed from the shared pool)")
	progress := flag.Bool("progress", false, "stream coordination events (swaps, prunes, refinements)")
	flag.Parse()

	bench, err := kernels.ByName("mont")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("llvm -O0 target: %2d instructions, %5.1f cycles (pipeline model)\n",
		bench.Target.InstCount(), pipeline.Cycles(bench.Target))
	fmt.Printf("gcc -O3:         %2d instructions, %5.1f cycles\n",
		bench.GccO3.InstCount(), pipeline.Cycles(bench.GccO3))
	fmt.Printf("paper's STOKE:   %2d instructions, %5.1f cycles (%.2fx over gcc -O3)\n\n",
		bench.PaperRewrite.InstCount(), pipeline.Cycles(bench.PaperRewrite),
		pipeline.Cycles(bench.GccO3)/pipeline.Cycles(bench.PaperRewrite))

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	opts := []stoke.Option{
		stoke.WithSeed(7),
		// Synthesis rarely lands a 55-instruction kernel at laptop scale;
		// run a short phase and rely on optimization (§4.7: "even when
		// synthesis fails, optimization is still possible").
		stoke.WithChains(2, 4),
		stoke.WithBudgets(50000, *proposals),
		stoke.WithEll(30),
	}
	if *independent {
		opts = append(opts, stoke.WithIndependentChains())
	}
	if *progress {
		opts = append(opts, stoke.WithObserver(func(ev stoke.Event) {
			switch ev.Kind {
			case stoke.EventSwap, stoke.EventPrune, stoke.EventRefinement:
				fmt.Println(ev)
			}
		}))
	}
	report, err := stoke.Optimize(ctx, bench.Kernel, opts...)
	if err != nil {
		log.Fatal(err)
	}

	partial := ""
	if report.Partial {
		partial = " (timed out: best-so-far)"
	}
	fmt.Printf("our search:      %2d instructions, %5.1f cycles, %.2fx over the -O0 target%s\n",
		report.Rewrite.InstCount(), pipeline.Cycles(report.Rewrite), report.Speedup(), partial)
	fmt.Printf("validator:       %v (%d refinement testcases)\n", report.Verdict, report.Refinements)
	fmt.Printf("coordination:    %d replica exchanges, %d pruned chains\n\n", report.Swaps, report.Prunes)
	fmt.Printf("--- discovered rewrite ---\n%s\n", report.Rewrite)
	fmt.Printf("--- paper's rewrite (Figure 1, right) ---\n%s", bench.PaperRewrite)
}
