package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/kernels"
	"repro/internal/pipeline"
	"repro/internal/verify"
	"repro/stoke"
)

// suiteCfg is a workload that optimizes a fixed kernel list one kernel at
// a time, in list order, through the stoke library API, then re-requests
// every proven kernel from the rewrite store. The kernels share the
// store, whose counterexample bank each kernel's validation replays; the
// order is fixed because it decides which banked counterexamples a kernel
// sees, and so its search.
type suiteCfg struct {
	kernels []string
	opts    []stoke.Option
}

// hitRounds is how many times each proven kernel is re-requested from the
// store after the searches. 15 rounds give a pass 240 (search) and 315
// (verify) re-requests of a millisecond or two, so hit_p50_ms is a median
// over hundreds of samples; over ten seeds its spread was 5-11% of its
// median, under half its bound.
const hitRounds = 15

// The search workload: the full pipeline (synthesis, optimization,
// validation, τ = 32) over the Hacker's Delight kernels whose proofs take
// at most half a second. The chains (emu, cost, mcmc, search) do most of
// the work.
var searchSuite = suiteCfg{
	kernels: []string{"p01", "p02", "p03", "p04", "p05", "p06", "p07", "p08",
		"p09", "p10", "p11", "p12", "p13", "p14", "p16", "p17"},
	opts: []stoke.Option{stoke.WithChains(2, 2), stoke.WithBudgets(30000, 30000), stoke.WithTests(32)},
}

// The verify workload: optimization-only runs from only τ = 4 testcases,
// so candidates pass τ, fail their proofs and drive the refinement loop.
// Proofs, replay and refinement do most of the work. p22, p23 and p25
// are left out: one proof takes from 8 s to minutes.
var verifySuite = suiteCfg{
	kernels: []string{"p01", "p02", "p03", "p04", "p05", "p06", "p07", "p08",
		"p09", "p10", "p11", "p12", "p13", "p14", "p15", "p16", "p17", "p18",
		"p19", "p20", "p21", "p24"},
	opts: []stoke.Option{stoke.WithChains(0, 2), stoke.WithBudgets(1, 30000),
		stoke.WithEll(16), stoke.WithTests(4)},
}

// suitePlan is the input of one suite run: the kernels, and the seeded
// reference-check inputs. Every search runs at the library's default
// search seed.
type suitePlan struct {
	benches []*kernels.Bench
	check   int64 // seed of the reference-check inputs
}

func (c *suiteCfg) plan(all map[string]*kernels.Bench, seed int64, limit int) (*suitePlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &suitePlan{check: rng.Int63()}
	for _, name := range c.kernels {
		b, ok := all[name]
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", name)
		}
		p.benches = append(p.benches, b)
	}
	if limit > 0 && limit < len(p.benches) {
		p.benches = p.benches[:limit]
	}
	return p, nil
}

// runSuite executes one pass of a suite workload on env's fresh engine and
// store.
func runSuite(ctx context.Context, c *suiteCfg, env *env, tr *tracer, root int, out *pass) {
	plan := env.suite
	var cur struct {
		job    int
		phases map[string]int
	}
	var observer []stoke.Option
	if tr != nil {
		observer = []stoke.Option{stoke.WithObserver(func(ev stoke.Event) {
			switch ev.Kind {
			case stoke.EventPhaseStart:
				cur.phases[ev.Phase] = tr.begin("stoke."+ev.Phase, ev.Kernel, cur.job)
			case stoke.EventPhaseEnd:
				tr.end(cur.phases[ev.Phase])
				out.add("stoke."+phaseMetric[ev.Phase]+"_wall_s", ev.Elapsed.Seconds())
			case stoke.EventVerdict:
				if ev.Verdict == verify.Unknown {
					out.add("verify.unknown_verdicts", 1)
				}
			}
		})}
	}

	opts := append(append([]stoke.Option(nil), c.opts...), stoke.WithRewriteStore(env.store))
	var proven []int
	for i, b := range plan.benches {
		cur.job = tr.begin("job", b.Name, root)
		cur.phases = map[string]int{}
		op := startOp()
		rep, err := env.engine.Optimize(ctx, b.Kernel, append(opts, observer...)...)
		out.endOp(op, opJob)
		tr.end(cur.job)
		out.attempted++
		if err != nil {
			out.fail("%s: optimize: %v", b.Name, err)
			continue
		}
		out.addReport(rep)
		out.judged++
		if rep.Verdict == verify.Equal {
			out.proven++
			proven = append(proven, i)
		}
		out.speedups = append(out.speedups, rep.Speedup())
		out.vsGcc = append(out.vsGcc, pipeline.Cycles(b.GccO3)/rep.RewriteCycles)
		out.sig = append(out.sig, fmt.Sprintf("%s %v speedup=%.6g proposals=%d sat=%d refinements=%d mismatches=%d",
			b.Name, rep.Verdict, rep.Speedup(), rep.Stats.Proposals, rep.Proofs.SATCalls, rep.Refinements,
			rep.Proofs.ModelMismatches))
		out.finals = append(out.finals, final{b: b, target: b.Target, rewrite: rep.Rewrite, tests: rep.Tests})

		sp := tr.begin("check", b.Name, root)
		if err := checkRewrite(b, rep.Rewrite, nil, identity(), rand.New(rand.NewSource(plan.check+int64(i)))); err != nil {
			out.fail("%v", err)
		}
		tr.end(sp)
	}

	// Re-request every proven kernel: the store answers each with the
	// proven rewrite after revalidating it, without a search. A rewrite the
	// store cannot carry into its canonical register space is not stored,
	// so its re-requests miss by design; they count as misses, not hits.
	hitOpts := append(append([]stoke.Option(nil), opts...), stoke.WithCacheOnly())
	for round := 0; round < hitRounds; round++ {
		for _, i := range proven {
			b := plan.benches[i]
			sp := tr.begin("hit", b.Name, root)
			op := startOp()
			rep, err := env.engine.Optimize(ctx, b.Kernel, hitOpts...)
			miss := errors.Is(err, stoke.ErrCacheMiss)
			if miss {
				out.endOp(op, opMiss)
			} else {
				out.endOp(op, opHit)
			}
			tr.end(sp)
			out.attempted++
			switch {
			case miss:
				out.rerequestMisses++
				continue
			case err != nil:
				out.fail("%s: re-request %d: %v", b.Name, round, err)
				continue
			case !rep.CacheHit || rep.Verdict != verify.Equal:
				out.fail("%s: re-request %d was not a proven hit", b.Name, round)
				continue
			}
			sp = tr.begin("check", b.Name, root)
			if err := checkRewrite(b, rep.Rewrite, nil, identity(), rand.New(rand.NewSource(plan.check-int64(i)))); err != nil {
				out.fail("served %v", err)
			}
			tr.end(sp)
		}
	}
	st := env.store.Stats()
	out.addStoreStats(st)
	out.sig = append(out.sig, fmt.Sprintf("store hits=%d misses=%d near=%d puts=%d re-request misses=%d",
		st.Hits, st.Misses, st.NearHits, st.Puts, out.rerequestMisses))
}

// phaseMetric names the per-layer wall metric of each stoke phase.
var phaseMetric = map[string]string{"synthesis": "synth", "optimization": "opt", "validation": "validate"}
