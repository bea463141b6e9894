// Command stoke-bench regenerates the paper's tables and figures (§6).
//
// Usage:
//
//	stoke-bench                 # every figure, quick profile
//	stoke-bench -fig 10         # one figure
//	stoke-bench -profile full   # larger search budgets
//	stoke-bench -eval-baseline BENCH_eval.json     # evaluation throughput A/B
//	stoke-bench -check BENCH_eval.json             # fail on >35% ratio regression vs the committed baseline
//	stoke-bench -search-baseline BENCH_search.json # tempering vs independent A/B
//	stoke-bench -cache-baseline BENCH_search.json  # rewrite-store cold vs served hit
//	stoke-bench -verify-baseline BENCH_search.json # cex-bank replay + gate vs plain SAT calls
//
// Output is plain text, one section per figure, written to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure to regenerate (0 = all)")
		profile   = flag.String("profile", "quick", "search budget profile (quick or full)")
		seed      = flag.Int64("seed", 1, "random seed")
		evalOut   = flag.String("eval-baseline", "", "write the evaluation-throughput baseline JSON to this path and exit")
		evalProp  = flag.Int64("eval-proposals", 300000, "proposal budget per eval-baseline configuration")
		evalCheck = flag.String("check", "", "measure a fresh evaluation baseline and fail if its ratios regressed >35% against the committed JSON at this path")

		searchOut     = flag.String("search-baseline", "", "write the search-coordination baseline JSON (tempering vs independent chains) to this path and exit")
		searchKernels = flag.String("search-kernels", strings.Join(experiments.DefaultSearchKernels, ","), "comma-separated kernels for -search-baseline")
		searchSeeds   = flag.Int("search-seeds", 5, "seeds per search-baseline configuration")
		searchChains  = flag.Int("search-chains", 4, "synthesis chains per search-baseline run")
		searchProp    = flag.Int64("search-proposals", 150000, "per-chain proposal budget per search-baseline run")
		searchEll     = flag.Int("search-ell", 20, "sequence length for search-baseline runs")

		cacheOut     = flag.String("cache-baseline", "", "fold the rewrite-store baseline (cold search vs served cache hit) into this search-baseline JSON and exit")
		cacheKernels = flag.String("cache-kernels", strings.Join(experiments.DefaultCacheKernels, ","), "comma-separated kernels for -cache-baseline")
		cacheHits    = flag.Int("cache-hits", 20, "served resubmissions measured per -cache-baseline kernel")

		verifyOut     = flag.String("verify-baseline", "", "fold the verification-cost baseline (SAT calls vs bank replay kills and gate deferrals) into this search-baseline JSON and exit")
		verifyKernels = flag.String("verify-kernels", strings.Join(experiments.DefaultVerifyKernels, ","), "comma-separated kernels for the verification-cost rows (empty disables the -search-baseline ride-along)")
		verifySeeds   = flag.Int("verify-seeds", 2, "seeds per verification-baseline kernel and mode")
		verifyProp    = flag.Int64("verify-proposals", 60000, "optimization proposal budget per verification-baseline run")
		verifyTests   = flag.Int("verify-tests", 4, "initial testcases per verification-baseline run (small, so refinement feeds the bank)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "stoke-bench:", err)
		os.Exit(1)
	}

	// The evaluation-throughput baseline is a standalone measurement:
	// interpreted vs compiled proposals/sec, written as machine-readable
	// JSON (BENCH_eval.json) so the perf trajectory is tracked per PR.
	if *evalOut != "" {
		base, err := experiments.WriteEvalBaseline(*evalOut, *evalProp)
		if err != nil {
			fail(err)
		}
		for _, r := range base.Runs {
			fmt.Printf("%-5s ell=%-3d %-11s %12.0f proposals/s\n",
				r.Kernel, r.Ell, r.Mode, r.ProposalsPerSec)
		}
		for k, v := range base.Speedups {
			fmt.Printf("speedup %-12s %.2fx\n", k, v)
		}
		for k, v := range base.FlagFree {
			fmt.Printf("flag-free %-12s %.0f%% of flag-writing slots\n", k, 100*v)
		}
		for k, v := range base.RegFree {
			fmt.Printf("reg-free  %-12s %.0f%% of register-writing slots\n", k, 100*v)
		}
		return
	}

	// The regression guard re-measures the evaluation baseline and compares
	// its box-independent ratios (speedups and liveness coverage fractions)
	// against the committed BENCH_eval.json, failing the build on a >35%
	// regression of any tracked row.
	if *evalCheck != "" {
		fresh, err := experiments.CheckEvalBaseline(*evalCheck, *evalProp)
		if err != nil {
			fail(err)
		}
		for k, v := range fresh.Speedups {
			fmt.Printf("speedup %-12s %.2fx (within tolerance)\n", k, v)
		}
		for k, v := range fresh.FlagFree {
			fmt.Printf("flag-free %-12s %.0f%% (within tolerance)\n", k, 100*v)
		}
		for k, v := range fresh.RegFree {
			fmt.Printf("reg-free  %-12s %.0f%% (within tolerance)\n", k, 100*v)
		}
		return
	}

	// The search-coordination baseline A/Bs the cross-chain coordinator
	// (replica exchange + shared rejection profile) against the paper's
	// independent chains on synthesis hit-rate and time-to-zero-cost,
	// written as machine-readable JSON (BENCH_search.json).
	if *searchOut != "" {
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		names := strings.Split(*searchKernels, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		base, err := experiments.WriteSearchBaseline(ctx, *searchOut, names,
			*searchSeeds, *searchChains, *searchProp, *searchEll)
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.FormatSearchBaseline(base))
		// The verification-cost rows ride along in the same JSON: SAT calls
		// versus bank replay kills and gate deferrals, with proof-time
		// percentiles, bank off against on.
		if *verifyKernels != "" {
			vnames := strings.Split(*verifyKernels, ",")
			for i := range vnames {
				vnames[i] = strings.TrimSpace(vnames[i])
			}
			vruns, err := experiments.WriteVerifyBaseline(ctx, *searchOut, vnames,
				*verifySeeds, *verifyProp, *verifyTests)
			if err != nil {
				fail(err)
			}
			fmt.Print(experiments.FormatVerifyBaseline(vruns))
		}
		return
	}

	// The verification-cost baseline A/Bs the counterexample bank and
	// pre-verification gate against plain per-candidate SAT calls,
	// recorded as the verify_runs rows of BENCH_search.json.
	if *verifyOut != "" {
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		names := strings.Split(*verifyKernels, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		vruns, err := experiments.WriteVerifyBaseline(ctx, *verifyOut, names,
			*verifySeeds, *verifyProp, *verifyTests)
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.FormatVerifyBaseline(vruns))
		return
	}

	// The rewrite-store baseline measures what the content-addressed cache
	// buys: cold proving cost against served hit latency, recorded as the
	// cache_runs rows of BENCH_search.json.
	if *cacheOut != "" {
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		names := strings.Split(*cacheKernels, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		runs, err := experiments.WriteCacheBaseline(ctx, *cacheOut, names, *cacheHits)
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.FormatCacheBaseline(runs))
		return
	}

	var p experiments.Profile
	switch *profile {
	case "quick":
		p = experiments.Quick
	case "full":
		p = experiments.Full
	default:
		fail(fmt.Errorf("unknown profile %q (valid: quick, full)", *profile))
	}
	p.Seed = *seed

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	w := os.Stdout
	// Each figure ends with a section break; an interrupt stops there
	// rather than running the remaining figures to completion.
	section := func() {
		fmt.Fprintf(w, "\n\n")
		if ctx.Err() != nil {
			fail(fmt.Errorf("interrupted"))
		}
	}

	want := func(n int) bool { return *fig == 0 || *fig == n }

	// Figures 10 and 12 share one suite run, as in the paper. The suite
	// runs several kernels at a time on one shared engine pool, streaming
	// a progress line as each kernel completes.
	var runs []experiments.KernelRun
	if want(10) || want(12) {
		var err error
		fmt.Fprintf(w, "Running the benchmark suite (28 kernels)...\n")
		runs, err = experiments.RunSuite(ctx, p, w)
		if err != nil {
			fail(err)
		}
		section()
	}

	if want(1) {
		if err := experiments.Fig01Montgomery(ctx, w, p); err != nil {
			fail(err)
		}
		section()
	}
	if want(2) {
		if err := experiments.Fig02Throughput(w); err != nil {
			fail(err)
		}
		section()
	}
	if want(3) {
		if err := experiments.Fig03PredictedVsActual(w); err != nil {
			fail(err)
		}
		section()
	}
	if want(5) {
		if err := experiments.Fig05EarlyTermination(ctx, w, p); err != nil {
			fail(err)
		}
		section()
	}
	if want(6) {
		experiments.Fig06ImprovedMetric(w)
		section()
	}
	if want(7) {
		if err := experiments.Fig07CostFunctions(ctx, w, p, "mont"); err != nil {
			fail(err)
		}
		section()
	}
	if want(8) {
		if err := experiments.Fig08PercentOfFinal(ctx, w, p, "mont"); err != nil {
			fail(err)
		}
		section()
	}
	if want(10) {
		experiments.Fig10Speedups(w, runs)
		section()
	}
	if want(11) {
		experiments.Fig11Params(w)
		section()
	}
	if want(12) {
		experiments.Fig12Runtimes(w, runs)
		section()
	}
	if want(13) {
		if err := experiments.Fig13CycleThroughValues(ctx, w, p); err != nil {
			fail(err)
		}
		section()
	}
	if want(14) {
		if err := experiments.Fig14Saxpy(ctx, w, p); err != nil {
			fail(err)
		}
		section()
	}
	if want(15) {
		if err := experiments.Fig15LinkedList(ctx, w, p); err != nil {
			fail(err)
		}
		section()
	}
}
