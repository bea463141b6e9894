// Command stoke optimizes one benchmark kernel (or an assembly file) with
// the stochastic superoptimizer and prints the discovered rewrite, its
// validation verdict, and the modelled speedup — the user-facing flow of
// Figure 9 in the paper.
//
// Interrupting a run (Ctrl-C) cancels the search and prints the best
// rewrite found so far, marked as partial.
//
// Usage:
//
//	stoke -kernel mont                  # optimize a §6 benchmark
//	stoke -kernel p01 -profile full     # spend more search budget
//	stoke -kernel p01 -progress         # stream search events
//	stoke -list                         # list available benchmarks
//	stoke -target f.s -in rdi,rsi -out rax   # optimize your own listing
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/x64"
	"repro/stoke"
)

func main() {
	var (
		kernel   = flag.String("kernel", "", "benchmark kernel to optimize (see -list)")
		list     = flag.Bool("list", false, "list benchmark kernels and exit")
		seed     = flag.Int64("seed", 1, "random seed")
		profile  = flag.String("profile", "quick", "search budget profile (quick or full)")
		progress = flag.Bool("progress", false, "stream search progress events to stderr")
		indep    = flag.Bool("independent", false, "run the paper's independent chains: no replica exchange or warm-started testcase profiles (stagnant chains still reseed from the shared pool)")
		target   = flag.String("target", "", "assembly file to optimize instead of a benchmark")
		inRegs   = flag.String("in", "", "comma-separated 64-bit input registers for -target")
		outRegs  = flag.String("out", "rax", "comma-separated 64-bit output registers for -target")
	)
	flag.Parse()

	if *list {
		for _, b := range kernels.All() {
			marks := ""
			if b.Star {
				marks += " [*distinct rewrite in paper]"
			}
			if b.SynthTimeout {
				marks += " [synthesis timeout in paper]"
			}
			fmt.Printf("%-8s %3d insts%s\n", b.Name, b.Target.InstCount(), marks)
		}
		return
	}

	prof, err := stoke.ProfileByName(*profile)
	if err != nil {
		fatal(err)
	}
	opts := []stoke.Option{
		stoke.WithProfile(prof),
		stoke.WithSeed(*seed),
	}
	if *indep {
		opts = append(opts, stoke.WithIndependentChains())
	}
	if *progress {
		opts = append(opts, stoke.WithObserver(func(ev stoke.Event) {
			fmt.Fprintln(os.Stderr, ev)
		}))
	}

	var k stoke.Kernel
	switch {
	case *target != "":
		src, err := os.ReadFile(*target)
		if err != nil {
			fatal(err)
		}
		prog, err := stoke.Parse(string(src))
		if err != nil {
			fatal(err)
		}
		ins, err := parseRegs(*inRegs)
		if err != nil {
			fatal(err)
		}
		outs, err := parseRegs(*outRegs)
		if err != nil {
			fatal(err)
		}
		k = stoke.NewKernel(*target, prog,
			stoke.WithInputs(ins...), stoke.WithOutput64(outs...))
	case *kernel != "":
		b, err := kernels.ByName(*kernel)
		if err != nil {
			fatal(err)
		}
		k = b.Kernel
	default:
		fmt.Fprintln(os.Stderr, "need -kernel <name> or -target <file>; try -list")
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	rep, err := stoke.Optimize(ctx, k, opts...)
	if err != nil {
		fatal(err)
	}

	if rep.Partial {
		fmt.Printf("interrupted: best-so-far (partial) result\n")
	}
	fmt.Printf("kernel:      %s\n", rep.Kernel)
	fmt.Printf("target:      %d instructions, H=%.1f, %.1f cycles\n",
		rep.Target.InstCount(), perf.H(rep.Target), rep.TargetCycles)
	fmt.Printf("rewrite:     %d instructions, H=%.1f, %.1f cycles\n",
		rep.Rewrite.InstCount(), perf.H(rep.Rewrite), rep.RewriteCycles)
	fmt.Printf("speedup:     %.2fx (pipeline model)\n", rep.Speedup())
	// SynthTime/OptTime are summed across chains, so the derived rate is
	// per-worker throughput.
	fmt.Printf("synthesis:   succeeded=%v (%.2fs chain time)\n", rep.SynthesisSucceeded, rep.SynthTime.Seconds())
	fmt.Printf("optimize:    %.2fs chain time over %d proposals (%.0f proposals/s/worker)\n",
		rep.OptTime.Seconds(), rep.Stats.Proposals,
		float64(rep.Stats.Proposals)/(rep.SynthTime.Seconds()+rep.OptTime.Seconds()+1e-9))
	fmt.Printf("validation:  %v (%d refinement testcases, %.2fs)\n",
		rep.Verdict, rep.Refinements, rep.VerifyTime.Seconds())
	fmt.Printf("coordinator: %d replica exchanges, %d pruned chains\n", rep.Swaps, rep.Prunes)
	fmt.Printf("\n--- rewrite ---\n%s", rep.Rewrite)
}

func parseRegs(s string) ([]x64.Reg, error) {
	var out []x64.Reg
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, w, xmm, ok := x64.LookupReg(name)
		if !ok || xmm || w != 8 {
			return nil, fmt.Errorf("bad 64-bit register %q", name)
		}
		out = append(out, r)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stoke:", err)
	os.Exit(1)
}
