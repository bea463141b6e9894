// The system driver of Figure 9: it wires together testcase generation,
// coordinated synthesis and optimization chain groups (replica exchange,
// shared best-cost pruning, warm-started testcase profiles), the 20%
// re-ranking window, and the validator-in-the-loop testcase refinement —
// both mid-search, where counterexamples broadcast to every live chain,
// and between rounds — and returns the best verified rewrite for a
// kernel.

package stoke

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/canon"
	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/mcmc"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// midValidateEvery is how many coordinator rounds pass between mid-search
// validation attempts on the global best candidate. Validation runs at a
// barrier (chains paused, deterministic schedule point), so the cadence
// trades SAT time against how early counterexamples reach live chains.
const midValidateEvery = 8

// optimize executes the full STOKE pipeline on one kernel.
func (e *Engine) optimize(ctx context.Context, k Kernel, st settings) (*Report, error) {
	rng := rand.New(rand.NewSource(st.seed))

	tests, err := testgen.Generate(k.Target, k.Spec, st.tests, rng)
	if err != nil {
		return nil, fmt.Errorf("stoke: %s: %w", k.Name, err)
	}
	generated := len(tests)

	rep := &Report{Kernel: k.Name, Target: k.Target, Tests: len(tests)}

	// --- Rewrite-store probe (before any search): an exact fingerprint
	// hit revalidates against the fresh testcases and serves immediately;
	// a fingerprint-class near-miss yields warm-start material. ---
	// The canonical form also carries counterexamples between this
	// kernel's register space and the bank's canonical space, so it is
	// computed even without a store.
	form := canon.Canonicalize(k.Target, liveOutFor(k))
	var warm *cacheWarm
	if st.store != nil {
		probeStart := time.Now()
		rep.Fingerprint = form.FP.Hex()
		var hit *x64.Program
		hit, warm = e.cacheProbe(k, &st, form, tests, rng)
		if hit != nil {
			return e.serveHit(k, &st, rep, hit, time.Since(probeStart)), nil
		}
	}
	if st.cacheOnly {
		return nil, fmt.Errorf("stoke: %s: %w", k.Name, ErrCacheMiss)
	}
	e.searches.Add(1)

	// Proposal pools are built only once a search is certain: a hit never
	// proposes.
	pools := mcmc.PoolsFor(k.Target, k.SSE)

	// The verifier is built before any chain runs, because a near miss
	// proves its substituted start before deciding whether to synthesize.
	live := liveOutFor(k)
	m := emu.New()

	// incumbentH is the modelled cost (Equation 13 latency sum — what an
	// eq-zero pool entry's search cost reduces to in the optimization
	// phase, whose chains run at perfWeight 1; the gate below is only
	// wired for that phase) of the best candidate proven Equal so far;
	// the target, correct by construction, seeds it, and a proven
	// near-miss start may lower it before any chain runs. The coordinator's
	// cost-aware validation gate only spends SAT time on pool heads that
	// strictly beat it: a tie is gated deliberately — equal-cost
	// candidates cannot displace the incumbent in the final re-ranking,
	// and proving them mid-search is exactly the SAT waste the gate
	// exists to avoid. Their verdicts (and any counterexample broadcast
	// they would have triggered) wait for the end-of-round validation
	// loop, which is gated only by the verdict cache.
	incumbentH := perf.H(k.Target)

	// vrf is the verification pipeline in front of the solver: a verdict
	// memo shared by the near-miss start proof, the mid-search validator
	// and the end-of-round validation loop (a candidate proven Equal once
	// never pays for a second proof; budget-exhausted Unknowns are NOT
	// memoized, so later rounds can retry), banked-counterexample replay
	// before any SAT call, the pre-verification gate, and per-query
	// proof-cost samples.
	bank := e.bank
	if st.store != nil {
		bank = st.store // a persistent store doubles as the bank
	}
	vrf := &verifier{
		e: e, st: &st, k: k, m: m, rng: rng, rep: rep,
		form:       form,
		bank:       bank,
		bankRng:    rand.New(rand.NewSource(st.seed + 424243)),
		validated:  map[string]verify.Verdict{},
		defers:     map[string]int{},
		targetOps:  opcodeSet(k.Target),
		curTests:   func() []testgen.Testcase { return tests },
		incumbentH: func() float64 { return incumbentH },
		prove: func(cand *x64.Program) (verify.Result, time.Duration) {
			var res verify.Result
			var vdur time.Duration
			e.runTask(ctx, func() {
				vStart := time.Now()
				res = verify.Equivalent(ctx, k.Target, cand, live, st.verify)
				vdur = time.Since(vStart)
			})
			rep.VerifyTime += vdur
			return res, vdur
		},
	}

	// A near-miss seeds τ with the cached entry's replayed counterexample
	// set before any chain starts, so the search begins with the
	// discriminating inputs a previous search had to discover. Its
	// constant-substituted rewrite is proven against the target first:
	// proven Equal, it is the correct starting point random synthesis
	// exists to find, so synthesis is skipped and it becomes the proven
	// incumbent. Anything else runs the full search.
	warmProven := false
	if warm != nil {
		tests = append(tests[:len(tests):len(tests)], warm.tests...)
		vd := vrf.proveStart(warm.start)
		if vd == verify.Equal {
			warmProven = true
			if h := perf.H(warm.start); h < incumbentH {
				incumbentH = h
			}
		}
		e.emit(&st, Event{Kind: EventWarmStart, Kernel: k.Name,
			Cost: warm.costH, Tests: len(tests), Verdict: vd})
	}

	// The kernel-wide rejection profile: every chain's early terminations
	// feed it, and every later chain (optimization chains after synthesis,
	// refinement rounds after round 0) warm-starts its testcase order from
	// it instead of re-learning which testcases discriminate. A near-miss
	// restores the counters a previous search learned for this fingerprint
	// class.
	var prof *cost.SharedProfile
	if !st.independent {
		if warm != nil && len(warm.profile) > 0 {
			prof = cost.NewSharedProfileFromCounts(warm.profile, len(tests))
		} else {
			prof = cost.NewSharedProfile(len(tests))
		}
	}
	newCost := func(perfWeight float64) *cost.Fn {
		// The three-index slice keeps each chain's AddTest append from
		// sharing growth room with its siblings or with the run's own
		// refinement appends. Candidates compile against the kernel's
		// live-out set, so register liveness suppresses their writes to
		// registers outside it.
		ts := tests[:len(tests):len(tests)]
		f := cost.NewLive(ts, k.Spec.LiveOut, cost.Improved, perfWeight)
		f.Shared = prof
		return f
	}

	// finish stamps the cycle-model fields on the way out; every return
	// path below funnels through it.
	finish := func(best *x64.Program, verdict verify.Verdict, partial bool) *Report {
		if best == nil {
			best = k.Target.Clone()
		}
		rep.Verdict = verdict
		rep.Rewrite = best.Packed()
		rep.Partial = partial
		rep.Tests = len(tests)
		rep.TargetCycles = pipeline.Cycles(k.Target)
		rep.RewriteCycles = pipeline.Cycles(rep.Rewrite)
		return rep
	}

	// --- Synthesis phase (§4.4): correctness only, random starts, the
	// chain group coordinated over a β ladder. A proven near-miss start
	// skips it. ---
	var synthResults []mcmc.Result
	if !warmProven {
		e.emit(&st, Event{Kind: EventPhaseStart, Kernel: k.Name, Phase: "synthesis"})
		start := time.Now()
		synthRuns := make([]*mcmc.Run, st.synthChains)
		synthLadder := st.betaLadder(DefaultSynthBeta, st.synthChains)
		for i := range synthRuns {
			i := i
			params := mcmc.PaperParams
			params.Ell = st.ell
			params.Beta = synthLadder[i]
			s := &mcmc.Sampler{
				Params: params,
				Pools:  pools,
				Cost:   newCost(0),
				Rng:    rand.New(rand.NewSource(st.seed + 1000 + int64(i))),
			}
			s.OnImprove = func(iter int64, c float64, p *x64.Program) {
				e.emit(&st, Event{Kind: EventChainImproved, Kernel: k.Name,
					Phase: "synthesis", Chain: i, Proposal: iter, Cost: c})
			}
			synthRuns[i] = s.Begin(s.RandomProgram(), st.synthProposals)
		}
		synthCoord := search.New(search.Config{
			Seed:     st.seed + 71,
			Exchange: !st.independent,
			Tests:    len(tests),
			Profile:  prof,
			OnSwap: func(i, j int, ci, cj float64) {
				e.emit(&st, Event{Kind: EventSwap, Kernel: k.Name,
					Phase: "synthesis", Chain: i, Partner: j, Cost: ci})
			},
		}, synthRuns)
		// Aggregate chain-execution time, not wall-clock: on a shared pool a
		// kernel's wall-clock includes every other kernel's queueing.
		synthCoord.Drive(ctx, func(bodies []func()) {
			rep.SynthTime += e.runBatch(ctx, bodies)
		})
		rep.Swaps += synthCoord.Swaps()
		synthResults = synthCoord.Results()
		e.emit(&st, Event{Kind: EventPhaseEnd, Kernel: k.Name, Phase: "synthesis",
			Elapsed: time.Since(start), RegFree: regFreeFraction(synthResults)})
	}

	// Candidate starting points for optimization: the target, any
	// near-miss warm start from the rewrite store (proven above, or
	// possibly incorrect for the new constants — chains funnel every
	// candidate through eval and the validator, so an unproven start can
	// only help, never mislead), plus every synthesized zero-cost rewrite.
	starts := []*x64.Program{k.Target}
	if warm != nil {
		starts = append(starts, warm.start)
	}
	for _, r := range synthResults {
		rep.Stats.Proposals += r.Stats.Proposals
		rep.Stats.Accepts += r.Stats.Accepts
		rep.Stats.TestsEvaluated += r.Stats.TestsEvaluated
		rep.Stats.RegFreeSlots += r.Stats.RegFreeSlots
		rep.Stats.RegWritingSlots += r.Stats.RegWritingSlots
		if r.ZeroCost && r.BestCorrect != nil {
			rep.SynthesisSucceeded = true
			starts = append(starts, r.BestCorrect)
		}
	}

	if ctx.Err() != nil {
		// Cancelled before optimization explored anything: hand back the
		// fastest of the target and any synthesized zero-cost rewrites,
		// matching the mid-optimization cancel path below. The target
		// always survives (correct by construction), so best is non-nil.
		best := fastestSurvivor(starts, tests, k, 1e30)
		if best == nil || best == k.Target {
			return finish(nil, verify.Equal, true), nil
		}
		return finish(best, verify.Unknown, true), nil
	}

	// --- Optimization phase (§4.4) with validator-driven testcase
	// refinement (§4.1): run the chains, validate the fastest surviving
	// candidate, and on a genuine counterexample fold it into τ and run
	// the optimization again over the refined search space. ---
	chainSeed := st.seed + 2000
	var best *x64.Program
	verdict := verify.Equal

	// verifyCancelled marks a proof attempt cut short by ctx: the only way
	// a run that reaches the final return below was truncated. (Chains cut
	// short mid-optimization take the early-return path instead.)
	verifyCancelled := false

	// allCandidates accumulates every round's testcase-correct programs so
	// a cancellation during a refinement round can still fall back on
	// earlier rounds' work (fastestSurvivor re-filters against the refined
	// testcases, so stale candidates are safe to carry).
	var allCandidates []*x64.Program

	for round := 0; ; round++ {
		e.emit(&st, Event{Kind: EventPhaseStart, Kernel: k.Name,
			Phase: "optimization", Round: round})
		start := time.Now()
		budget := st.optProposals
		if round > 0 {
			budget /= 2 // refinement rounds re-optimize with a lighter budget
		}

		// midValidate is the coordinator's validator-in-the-loop hook: at
		// a barrier cadence it proves or refutes the ensemble's best
		// correct candidate, and a genuine counterexample comes back as a
		// testcase the coordinator broadcasts to every live chain — not
		// just the chain that found the candidate.
		vrf.round = round
		midValidate := func(cand *x64.Program) []testgen.Testcase {
			if ctx.Err() != nil {
				return nil
			}
			out := vrf.check(cand)
			if out.cached {
				return nil
			}
			if out.verdict == verify.Unknown && ctx.Err() != nil {
				return nil // truncated proof, not a verdict
			}
			if !out.replayKill {
				e.emit(&st, Event{Kind: EventVerdict, Kernel: k.Name,
					Round: round, Verdict: out.verdict})
			}
			if out.verdict == verify.Equal {
				if h := perf.H(cand); h < incumbentH {
					incumbentH = h
				}
			}
			if !out.refined {
				return nil
			}
			tests = append(tests[:len(tests):len(tests)], out.tc)
			rep.Refinements++
			e.emit(&st, Event{Kind: EventRefinement, Kernel: k.Name,
				Round: round, Tests: len(tests)})
			return []testgen.Testcase{out.tc}
		}

		nChains := st.optChains * len(starts)
		optRuns := make([]*mcmc.Run, nChains)
		optLadder := st.betaLadder(DefaultOptBeta, nChains)
		for i := range optRuns {
			i := i
			params := mcmc.PaperParams
			params.Ell = st.ell
			params.Beta = optLadder[i]
			s := &mcmc.Sampler{
				Params:       params,
				Pools:        pools,
				Cost:         newCost(1),
				Rng:          rand.New(rand.NewSource(chainSeed + int64(i))),
				RestartAfter: DefaultRestartAfter,
			}
			s.OnImprove = func(iter int64, c float64, p *x64.Program) {
				e.emit(&st, Event{Kind: EventChainImproved, Kernel: k.Name,
					Phase: "optimization", Round: round, Chain: i,
					Proposal: iter, Cost: c})
			}
			optRuns[i] = s.Begin(starts[i%len(starts)], budget)
		}
		optCoord := search.New(search.Config{
			Seed:          chainSeed + 503,
			Exchange:      !st.independent,
			PruneAfter:    DefaultRestartAfter,
			Tests:         len(tests),
			Profile:       prof,
			ValidateEvery: midValidateEvery,
			Validate:      midValidate,
			IncumbentCost: func() float64 { return incumbentH },
			Defer:         vrf.shouldDefer,
			OnSwap: func(i, j int, ci, cj float64) {
				e.emit(&st, Event{Kind: EventSwap, Kernel: k.Name,
					Phase: "optimization", Round: round, Chain: i, Partner: j, Cost: ci})
			},
			OnPrune: func(i int, adopted float64) {
				e.emit(&st, Event{Kind: EventPrune, Kernel: k.Name,
					Phase: "optimization", Round: round, Chain: i, Cost: adopted})
			},
		}, optRuns)
		optCoord.Drive(ctx, func(bodies []func()) {
			rep.OptTime += e.runBatch(ctx, bodies)
		})
		rep.Swaps += optCoord.Swaps()
		rep.Prunes += optCoord.Prunes()
		rep.SkippedValidations += optCoord.SkippedValidations()
		optResults := optCoord.Results()
		poolCands := optCoord.Pool()
		chainSeed += int64(nChains) + 7
		e.emit(&st, Event{Kind: EventPhaseEnd, Kernel: k.Name,
			Phase: "optimization", Round: round, Elapsed: time.Since(start),
			RegFree: regFreeFraction(optResults)})

		// Candidates: the coordinator's global pool (chains' bests
		// harvested at every barrier, so a line later abandoned by a swap
		// or prune still competes) plus each chain's final best.
		candidates := make([]*x64.Program, 0, len(poolCands))
		bestCost := 1e30
		for _, pc := range poolCands {
			candidates = append(candidates, pc.Prog)
			if pc.Cost < bestCost {
				bestCost = pc.Cost
			}
		}
		for _, r := range optResults {
			rep.Stats.Proposals += r.Stats.Proposals
			rep.Stats.Accepts += r.Stats.Accepts
			rep.Stats.TestsEvaluated += r.Stats.TestsEvaluated
			rep.Stats.RegFreeSlots += r.Stats.RegFreeSlots
			rep.Stats.RegWritingSlots += r.Stats.RegWritingSlots
			if r.BestCorrect != nil {
				candidates = append(candidates, r.BestCorrect)
				if r.BestCorrectCost < bestCost {
					bestCost = r.BestCorrectCost
				}
			}
		}
		allCandidates = append(allCandidates, candidates...)

		if ctx.Err() != nil {
			// Cancelled mid-optimization: hand back the fastest
			// testcase-correct program without spending time on a proof.
			// Earlier rounds' candidates and starts join the pool — chains
			// that never got scheduled must not cost us the target, a
			// synthesized zero-cost rewrite, or a prior round's find — and
			// the cost window is disabled (correctness only).
			best = fastestSurvivor(append(allCandidates, starts...), tests, k, 1e30)
			if best == nil || best == k.Target {
				return finish(nil, verify.Equal, true), nil
			}
			return finish(best, verify.Unknown, true), nil
		}

		// Re-ranking (Figure 9, step 6) and validation: pick the fastest
		// candidate within 20% of the minimum cost that passes every
		// (possibly refined) testcase; genuine counterexamples shrink the
		// candidate pool without re-searching, and trigger a re-search
		// while refinement rounds remain.
		e.emit(&st, Event{Kind: EventPhaseStart, Kernel: k.Name,
			Phase: "validation", Round: round})
		vPhase := time.Now()
		reSearch := false
		for {
			best = fastestSurvivor(candidates, tests, k, bestCost)
			if best == nil {
				// Nothing survives the refined testcases; the target is
				// correct by construction.
				best = k.Target.Clone()
				verdict = verify.Equal
				break
			}

			// The verification pipeline: memo (a candidate the mid-search
			// validator already concluded on skips the proof), bank
			// replay, then SAT. The end-of-round loop never consults the
			// gate — every final verdict is replay- or SAT-backed. Proof
			// time lands in VerifyTime via the prove closure: like
			// SynthTime/OptTime it excludes time queued behind other runs
			// on the shared pool.
			out := vrf.check(best)
			if out.verdict == verify.Unknown && !out.cached && ctx.Err() != nil {
				verifyCancelled = true
			}
			verdict = out.verdict
			e.emit(&st, Event{Kind: EventVerdict, Kernel: k.Name,
				Round: round, Verdict: out.verdict})
			if out.verdict != verify.NotEqual {
				if out.verdict == verify.Equal {
					if h := perf.H(best); h < incumbentH {
						incumbentH = h
					}
				}
				break
			}
			if !out.refined {
				// A cached NotEqual has its counterexample folded into τ
				// already, so it cannot survive fastestSurvivor and reach
				// here; defensively treat it as inconclusive rather than
				// refining with a zero testcase.
				verdict = verify.Unknown
				break
			}
			tests = append(tests[:len(tests):len(tests)], out.tc)
			// Keep the shared profile's counters covering the refined τ,
			// so the next round's chains can learn (and warm-start on)
			// the new testcase's discriminating power.
			prof.Grow(len(tests))
			rep.Refinements++
			e.emit(&st, Event{Kind: EventRefinement, Kernel: k.Name,
				Round: round, Tests: len(tests)})
			if round < DefaultMaxRefinements {
				reSearch = true
				break
			}
			// Out of search budget: keep filtering the existing pool
			// against the refined testcases.
		}
		e.emit(&st, Event{Kind: EventPhaseEnd, Kernel: k.Name,
			Phase: "validation", Round: round, Elapsed: time.Since(vPhase)})
		if !reSearch {
			break
		}
	}

	out := finish(best, verdict, verifyCancelled)
	// Write the proven outcome back to the rewrite store — including
	// no-improvement results (rewrite == target), which dedupe repeated
	// fruitless searches for the same kernel into one.
	if st.store != nil && !out.Partial && out.Verdict == verify.Equal {
		cachePut(k, &st, form, out, tests, generated, prof)
	}
	return out, nil
}

// regFreeFraction is the fraction of register-writing slots whose writes
// the register-liveness pass suppressed across a phase's chains, by the
// dynamic per-proposal counts. Zero when the pass is off or nothing wrote
// a register.
func regFreeFraction(results []mcmc.Result) float64 {
	var free, writing int64
	for _, r := range results {
		free += r.Stats.RegFreeSlots
		writing += r.Stats.RegWritingSlots
	}
	if writing == 0 {
		return 0
	}
	return float64(free) / float64(writing)
}

// fastestSurvivor re-ranks candidates (Figure 9, step 6): the fastest
// program under the pipeline model among those within 20% of the minimum
// cost that pass every (possibly refined) testcase. Nil when none survive.
func fastestSurvivor(candidates []*x64.Program, tests []testgen.Testcase, k Kernel, bestCost float64) *x64.Program {
	evalCost := cost.New(tests, k.Spec.LiveOut, cost.Improved, 1)
	var best *x64.Program
	bestCycles := 1e30
	for _, c := range candidates {
		res := evalCost.Eval(c, cost.MaxBudget)
		if res.EqCost != 0 || res.Cost > bestCost*1.2 {
			continue
		}
		if cy := pipeline.Cycles(c); cy < bestCycles {
			bestCycles = cy
			best = c
		}
	}
	return best
}

// cexTestcase converts a validator counterexample into a testcase the way
// a stored one is replayed (replayCex), reporting whether it concretely
// distinguishes the target and rewrite.
func cexTestcase(k Kernel, m *emu.Machine, rng *rand.Rand, cex *verify.Counterexample,
	rewrite *x64.Program) (testgen.Testcase, bool) {

	tc, ok := replayCex(k, m, rng, store.Cex{Regs: cex.Regs, Xmm: cex.Xmm, Flags: uint8(cex.Flags)})
	if !ok {
		return testgen.Testcase{}, false
	}
	f := cost.New([]testgen.Testcase{tc}, k.Spec.LiveOut, cost.Strict, 0)
	return tc, f.Eval(rewrite, cost.MaxBudget).Cost != 0
}
