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

	// A near-miss seeds τ with the cached entry's replayed counterexample
	// set before any chain starts, so the search begins with the
	// discriminating inputs a previous search had to discover.
	if warm != nil {
		tests = append(tests[:len(tests):len(tests)], warm.tests...)
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

	// vrf is the run's proof policy and the verification pipeline in front
	// of the solver. It owns τ from here on, the proven incumbent (seeded
	// by the target, correct by construction), and a verdict memo shared
	// by the near-miss start proof, the mid-search validator and the
	// end-of-round validation loop (a candidate proven Equal once never
	// pays for a second proof; budget-exhausted Unknowns are NOT memoized,
	// so later rounds can retry). In front of the solver sit
	// banked-counterexample replay and the pre-verification gate, and each
	// query leaves a proof-cost sample.
	bank := e.bank
	if st.store != nil {
		bank = st.store // a persistent store doubles as the bank
	}
	live := liveOutFor(k)
	vrf := &verifier{
		e: e, st: &st, k: k, m: emu.New(), rng: rng, rep: rep, ctx: ctx,
		form:       form,
		bank:       bank,
		bankRng:    rand.New(rand.NewSource(st.seed + 424243)),
		validated:  map[string]verify.Verdict{},
		defers:     map[string]int{},
		targetOps:  opcodeSet(k.Target),
		tests:      tests,
		prof:       prof,
		incumbentH: perf.H(k.Target),
		prove: func(cand *x64.Program) (res verify.Result, dur time.Duration) {
			e.runTask(ctx, func() {
				start := time.Now()
				res = verify.Equivalent(ctx, k.Target, cand, live, st.verify)
				dur = time.Since(start)
			})
			return res, dur
		},
	}

	// A near miss's constant-substituted rewrite is proven against the
	// target before any chain runs: proven Equal, it is the correct
	// starting point random synthesis exists to find, so synthesis is
	// skipped and it becomes the proven incumbent. Anything else runs the
	// full search.
	warmProven := false
	if warm != nil {
		vd := vrf.proveStart(warm.start)
		warmProven = vd == verify.Equal
		e.emit(&st, Event{Kind: EventWarmStart, Kernel: k.Name,
			Cost: warm.costH, Tests: len(vrf.tests), Verdict: vd})
	}

	// runPhase runs one coordinated chain group — the synthesis phase or
	// one optimization round — on the engine's pool: its samplers on the
	// β ladder, scoring against the current τ and sharing the rejection
	// profile, and the coordinator driving them. The chains' stats and
	// coordination counters land in the report, and the time workers
	// spent on the chains in *ph.busy: aggregate chain-execution time,
	// not wall-clock, which on a shared pool includes every other
	// kernel's queueing.
	runPhase := func(ph phase) ([]mcmc.Result, []search.Candidate) {
		emit := func(ev Event) {
			ev.Kernel, ev.Phase, ev.Round = k.Name, ph.name, ph.round
			e.emit(&st, ev)
		}
		emit(Event{Kind: EventPhaseStart})
		start := time.Now()
		runs := make([]*mcmc.Run, ph.chains)
		ladder := st.betaLadder(ph.beta, ph.chains)
		for i := range runs {
			params := mcmc.PaperParams
			params.Ell = st.ell
			params.Beta = ladder[i]
			// The three-index slice keeps each chain's AddTest append from
			// sharing growth room with its siblings or with τ's own
			// refinement appends. Candidates compile against the kernel's
			// live-out set, so register liveness suppresses their writes
			// to registers outside it.
			ts := vrf.tests[:len(vrf.tests):len(vrf.tests)]
			f := cost.NewLive(ts, k.Spec.LiveOut, cost.Improved, ph.perfWeight)
			f.Shared = prof
			s := &mcmc.Sampler{
				Params:       params,
				Pools:        pools,
				Cost:         f,
				Rng:          rand.New(rand.NewSource(ph.seed + int64(i))),
				RestartAfter: ph.restartAfter,
			}
			s.OnImprove = func(iter int64, c float64, p *x64.Program) {
				emit(Event{Kind: EventChainImproved, Chain: i, Proposal: iter, Cost: c})
			}
			runs[i] = s.Begin(ph.start(i, s), ph.budget)
		}
		coord := search.New(search.Config{
			Seed:          ph.coordSeed,
			Exchange:      !st.independent,
			PruneAfter:    ph.restartAfter,
			ValidateEvery: midValidateEvery,
			Validate:      ph.validate,
			OnSwap: func(i, j int, ci, cj float64) {
				emit(Event{Kind: EventSwap, Chain: i, Partner: j, Cost: ci})
			},
			OnPrune: func(i int, adopted float64) {
				emit(Event{Kind: EventPrune, Chain: i, Cost: adopted})
			},
		}, runs)
		coord.Drive(ctx, func(bodies []func()) {
			*ph.busy += e.runBatch(ctx, bodies)
		})
		rep.Swaps += coord.Swaps()
		rep.Prunes += coord.Prunes()
		results := coord.Results()
		var stats mcmc.Stats
		for _, r := range results {
			stats.Add(r.Stats)
		}
		rep.Stats.Add(stats)
		emit(Event{Kind: EventPhaseEnd, Elapsed: time.Since(start), RegFree: stats.RegFreeFraction()})
		return results, coord.Pool()
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
		rep.Tests = len(vrf.tests)
		rep.TargetCycles = pipeline.Cycles(k.Target)
		rep.RewriteCycles = pipeline.Cycles(rep.Rewrite)
		return rep
	}

	// cancelled is the report of a cancelled run: the fastest
	// testcase-correct program among cands, without spending time on a
	// proof and with the cost window disabled (correctness only). The
	// target is correct by construction, so a run that found nothing
	// faster reports it as Equal.
	cancelled := func(cands []*x64.Program) *Report {
		best := fastestSurvivor(cands, vrf.tests, k, 1e30)
		if best == nil || best == k.Target {
			return finish(nil, verify.Equal, true)
		}
		return finish(best, verify.Unknown, true)
	}

	// --- Synthesis phase (§4.4): correctness only, random starts, the
	// chain group coordinated over a β ladder. A proven near-miss start
	// skips it. ---
	var synthResults []mcmc.Result
	if !warmProven {
		synthResults, _ = runPhase(phase{
			name:      "synthesis",
			chains:    st.synthChains,
			beta:      DefaultSynthBeta,
			budget:    st.synthProposals,
			seed:      st.seed + 1000,
			coordSeed: st.seed + 71,
			start:     func(_ int, s *mcmc.Sampler) *x64.Program { return s.RandomProgram() },
			busy:      &rep.SynthTime,
		})
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
		if r.ZeroCost && r.BestCorrect != nil {
			rep.SynthesisSucceeded = true
			starts = append(starts, r.BestCorrect)
		}
	}

	if ctx.Err() != nil {
		// Cancelled before optimization explored anything: the fastest of
		// the target and any synthesized zero-cost rewrites.
		return cancelled(starts), nil
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
		budget := st.optProposals
		if round > 0 {
			budget /= 2 // refinement rounds re-optimize with a lighter budget
		}
		vrf.round = round
		nChains := st.optChains * len(starts)
		optResults, poolCands := runPhase(phase{
			name:         "optimization",
			round:        round,
			chains:       nChains,
			beta:         DefaultOptBeta,
			perfWeight:   1,
			budget:       budget,
			seed:         chainSeed,
			coordSeed:    chainSeed + 503,
			restartAfter: DefaultRestartAfter,
			start:        func(i int, _ *mcmc.Sampler) *x64.Program { return starts[i%len(starts)] },
			validate:     vrf.validate,
			busy:         &rep.OptTime,
		})
		chainSeed += int64(nChains) + 7

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
			if r.BestCorrect != nil {
				candidates = append(candidates, r.BestCorrect)
				if r.BestCorrectCost < bestCost {
					bestCost = r.BestCorrectCost
				}
			}
		}
		allCandidates = append(allCandidates, candidates...)

		if ctx.Err() != nil {
			// Cancelled mid-optimization: earlier rounds' candidates and
			// the starts join the pool — chains that never got scheduled
			// must not cost us the target, a synthesized zero-cost
			// rewrite, or a prior round's find.
			return cancelled(append(allCandidates, starts...)), nil
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
			best = fastestSurvivor(candidates, vrf.tests, k, bestCost)
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
			// time lands in VerifyTime: like SynthTime/OptTime it excludes
			// time queued behind other runs on the shared pool.
			out := vrf.check(best)
			if out.verdict == verify.Unknown && !out.cached && ctx.Err() != nil {
				verifyCancelled = true
			}
			verdict = out.verdict
			e.emit(&st, Event{Kind: EventVerdict, Kernel: k.Name,
				Round: round, Verdict: out.verdict})
			if out.verdict != verify.NotEqual {
				break
			}
			if out.cached {
				// A cached NotEqual has its counterexample folded into τ
				// already, so it cannot survive fastestSurvivor and reach
				// here; defensively treat it as inconclusive rather than
				// refining with a zero testcase.
				verdict = verify.Unknown
				break
			}
			vrf.refine(out.tc)
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
		cachePut(k, &st, form, out, vrf.tests, generated, prof)
	}
	return out, nil
}

// phase describes one coordinated chain group of a run for runPhase.
type phase struct {
	name   string // "synthesis" or "optimization"
	round  int    // the refinement round of an optimization phase
	chains int
	beta   float64 // the base β of the phase's ladder

	// perfWeight weighs the performance term of the chains' cost: 0 in
	// synthesis (correctness only), 1 in optimization.
	perfWeight float64
	budget     int64

	// seed+i seeds chain i; coordSeed seeds the coordinator's swap coins.
	seed, coordSeed int64

	// restartAfter is the chains' restart cadence and the coordinator's
	// pruning threshold (zero disables both).
	restartAfter int64

	start    func(i int, s *mcmc.Sampler) *x64.Program
	validate func(search.Candidate) []testgen.Testcase // nil: no mid-search proofs
	busy     *time.Duration
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
