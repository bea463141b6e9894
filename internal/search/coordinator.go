// Package search coordinates the MCMC chains of one kernel phase. The
// paper runs chains independently (§5.3), which wastes everything a chain
// learns: β is fixed per phase, a chain stuck in a local minimum never
// escapes it, and every chain rediscovers the same discriminating
// testcases. The Coordinator turns the chain set into a communicating
// ensemble while keeping fixed-seed runs bit-for-bit reproducible:
//
//   - Replica exchange (parallel tempering): chains occupy a β ladder and
//     adjacent replicas swap their current programs under the standard
//     Metropolis swap criterion, so hot chains explore the landscape and
//     cold chains exploit the best basins found anywhere in the ensemble.
//   - Shared best-so-far broadcast: every chain's best testcase-correct
//     program feeds a global bounded pool; the final re-ranking draws from
//     the pool instead of per-chain bests, and chains whose own best is
//     hopeless (outside the re-rank window) and stagnant abandon their
//     line and reseed from the global best.
//   - Counterexample broadcast: a counterexample the Validate hook returns
//     for the pool head refines every live chain's testcase set, not just
//     the finder's.
//
// The coordinator is a pure chain scheduler: whether a pool head is worth
// a proof, and what a counterexample does to τ and the shared rejection
// profile, is the Validate hook's business.
//
// Chains run in cadenced segments scheduled as independent tasks on the
// engine's worker pool, with a barrier between rounds. All coordination —
// swaps, pruning, validation — happens at barriers on the driving
// goroutine, so the outcome is a pure function of the configuration and
// seeds: the swap schedule is fixed (adjacent pairs, alternating parity,
// one seeded coin per pair per round), and every read of cross-chain state
// happens at a schedule point rather than a thread-timing-dependent one.
// The barrier design also makes cancellation trivially deadlock-free:
// segments poll the context themselves, and the driver never blocks on
// anything but the completion of tasks it has already scheduled.
package search

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mcmc"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// DefaultCadence is the proposal count a chain runs between check-ins:
// large enough that barrier synchronisation is invisible next to
// evaluation work, small enough that swaps and broadcasts propagate many
// times per phase at the default budgets.
const DefaultCadence = 4096

// DefaultPoolSize bounds the global best-correct candidate pool.
const DefaultPoolSize = 16

// DefaultPruneWindow matches the paper's 20% re-ranking window (Figure 9,
// step 6): a chain whose best correct program costs more than 1.2x the
// global best can no longer influence the final answer through its own
// line, so restarting it there is hopeless.
const DefaultPruneWindow = 1.2

// Config describes one coordinated chain group. Chains, cadence and seeds
// fixed, a group's outcome is deterministic however its segments are
// scheduled.
type Config struct {
	// Cadence is the per-chain proposal count between barriers (0 takes
	// DefaultCadence).
	Cadence int64

	// Seed drives the swap coins. Runs with equal seeds draw identical
	// swap schedules.
	Seed int64

	// Exchange enables replica exchange between adjacent chains. The β
	// ladder itself lives on the samplers (mcmc.Run.Beta).
	Exchange bool

	// PruneAfter reseeds a chain from the global best correct program
	// once its own best has not improved for this many proposals while
	// sitting outside DefaultPruneWindow times the global best cost. Zero
	// disables pruning.
	PruneAfter int64

	// Validate, when set, is called at barriers every ValidateEvery
	// rounds with the pool head: the global best correct candidate and its
	// pool cost. It decides whether the head is worth a proof now, and
	// returns counterexample testcases to broadcast to every live chain
	// (nil when it skipped or deferred the proof, the candidate verified
	// or was seen before, or no genuine counterexample came back). It runs
	// on the driving goroutine with every chain paused, so broadcast
	// points are deterministic.
	ValidateEvery int
	Validate      func(head Candidate) []testgen.Testcase

	// OnSwap and OnPrune observe coordination decisions (event streams).
	OnSwap  func(i, j int, ci, cj float64)
	OnPrune func(i int, adopted float64)
}

// Candidate is one pool entry: a testcase-correct program and its cost.
type Candidate struct {
	Prog *x64.Program
	Cost float64
}

// Coordinator drives one group of chains to completion. It is
// single-goroutine: only Drive touches the runs, and only between the
// segment batches it schedules itself.
type Coordinator struct {
	cfg  Config
	runs []*mcmc.Run
	rng  *rand.Rand

	pool     []Candidate
	poolKeys map[string]bool

	// Per-chain stagnation tracking for pruning, observed at barriers
	// (the chains' own restart bookkeeping resets on every restart, which
	// is exactly the hopeless loop pruning exists to break).
	lastBest []float64
	stale    []int64

	round  int64
	swaps  int
	prunes int
}

// New builds a coordinator over already-begun runs. All runs must share
// one sequence length ℓ and score against identical testcase sets.
func New(cfg Config, runs []*mcmc.Run) *Coordinator {
	if cfg.Cadence <= 0 {
		cfg.Cadence = DefaultCadence
	}
	c := &Coordinator{
		cfg:      cfg,
		runs:     runs,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		poolKeys: make(map[string]bool),
		lastBest: make([]float64, len(runs)),
		stale:    make([]int64, len(runs)),
	}
	for i := range c.lastBest {
		c.lastBest[i] = math.Inf(1)
	}
	return c
}

// Drive runs every chain to completion in cadenced rounds. batch must
// execute all submitted bodies (concurrently or not) and return once they
// finish; the coordinator performs its barrier work between batches. A
// context cancellation stops after the in-flight batch without running
// further coordination, leaving best-so-far results harvestable.
func (c *Coordinator) Drive(ctx context.Context, batch func(bodies []func())) {
	for ctx.Err() == nil {
		var bodies []func()
		for _, r := range c.runs {
			if r.Finished() {
				continue
			}
			r := r
			bodies = append(bodies, func() { r.Step(ctx, c.cfg.Cadence) })
		}
		if len(bodies) == 0 {
			break
		}
		batch(bodies)
		if ctx.Err() != nil {
			break
		}
		c.barrier()
	}
	c.harvest()
}

// barrier performs one round of coordination: replica exchange, pool
// harvest, pruning, and scheduled validation with counterexample
// broadcast.
func (c *Coordinator) barrier() {
	c.round++
	c.exchange()
	c.harvest()
	c.prune()
	if c.cfg.Validate != nil && c.cfg.ValidateEvery > 0 &&
		c.round%int64(c.cfg.ValidateEvery) == 0 && len(c.pool) > 0 {
		if tcs := c.cfg.Validate(c.pool[0]); len(tcs) > 0 {
			c.broadcast(tcs)
		}
	}
}

// exchange attempts one swap per adjacent replica pair, alternating pair
// parity per round (the standard even-odd schedule). The coin is drawn for
// every pair on every round — even pairs with finished chains — so the
// swap schedule is a fixed function of the seed, independent of when
// individual chains exhaust their budgets.
func (c *Coordinator) exchange() {
	if !c.cfg.Exchange || len(c.runs) < 2 {
		return
	}
	for i := int((c.round - 1) % 2); i+1 < len(c.runs); i += 2 {
		coin := c.rng.Float64()
		ri, rj := c.runs[i], c.runs[i+1]
		if ri.Finished() || rj.Finished() {
			continue
		}
		bi, bj := ri.Beta(), rj.Beta()
		ci, cj := ri.CurrentCost(), rj.CurrentCost()
		// Metropolis swap criterion: accept with min(1, exp((βi−βj)(ci−cj))).
		// Equal-temperature pairs always accept; on the mostly-cold default
		// ladder those swaps are the transport layer, rotating cold
		// programs through the rung adjacent to the hot explorer so every
		// cold chain communicates with it over time. (Suppressing them was
		// measured to cost synthesis hit-rate: 1/3 kernels beating
		// independent chains instead of 3/3 on the BENCH_search suite.)
		if coin >= math.Exp((bi-bj)*(ci-cj)) {
			continue
		}
		pi, pj := ri.Current().Clone(), rj.Current().Clone()
		ri.Adopt(pj)
		rj.Adopt(pi)
		c.swaps++
		if c.cfg.OnSwap != nil {
			c.cfg.OnSwap(i, i+1, ci, cj)
		}
	}
}

// harvest folds every chain's best correct program into the global pool.
func (c *Coordinator) harvest() {
	for _, r := range c.runs {
		if bc, bcCost := r.BestCorrect(); bc != nil {
			c.offer(bc, bcCost)
		}
	}
}

// offer inserts a candidate into the bounded pool, deduplicated by
// listing. The pool stays sorted by cost with stable ties, so its order —
// and therefore everything decided from it — is deterministic.
func (c *Coordinator) offer(p *x64.Program, cst float64) {
	key := p.String()
	if c.poolKeys[key] {
		return
	}
	c.poolKeys[key] = true
	c.pool = append(c.pool, Candidate{Prog: p.Clone(), Cost: cst})
	sort.SliceStable(c.pool, func(a, b int) bool { return c.pool[a].Cost < c.pool[b].Cost })
	if len(c.pool) > DefaultPoolSize {
		c.pool = c.pool[:DefaultPoolSize]
	}
}

// prune reseeds chains whose own best correct program is both stagnant
// (no improvement for PruneAfter proposals of barrier-observed history)
// and hopeless (outside DefaultPruneWindow of the global best, or
// absent): their restarts could only ever rewind to a program the final
// re-ranking will discard, so they adopt the global best instead and
// explore from there.
func (c *Coordinator) prune() {
	if c.cfg.PruneAfter <= 0 || len(c.pool) == 0 {
		return
	}
	gbest := c.pool[0]
	for i, r := range c.runs {
		if r.Finished() {
			continue
		}
		_, bcCost := r.BestCorrect()
		if bcCost < c.lastBest[i] {
			c.stale[i] = 0
		} else {
			c.stale[i] += c.cfg.Cadence
		}
		c.lastBest[i] = bcCost
		if c.stale[i] < c.cfg.PruneAfter || bcCost <= gbest.Cost*DefaultPruneWindow {
			continue
		}
		r.Adopt(gbest.Prog)
		c.stale[i] = 0
		c.lastBest[i] = gbest.Cost
		c.prunes++
		if c.cfg.OnPrune != nil {
			c.cfg.OnPrune(i, gbest.Cost)
		}
	}
}

// broadcast folds counterexample testcases into every chain, then
// rebuilds the pool: entries predating the refined τ
// may no longer be correct, and the surviving ones re-enter from the
// chains' re-checked bests at the harvest that follows. Finished chains
// fold too — they take no more proposals, but AddTests re-scores their
// best against the refined τ, so a refuted program cannot re-enter the
// pool at a stale cost and become a poisoned prune/re-rank source.
func (c *Coordinator) broadcast(tcs []testgen.Testcase) {
	for _, r := range c.runs {
		r.AddTests(tcs)
	}
	c.pool = nil
	c.poolKeys = make(map[string]bool)
	c.harvest()
}

// Results returns every chain's outcome, indexed by chain.
func (c *Coordinator) Results() []mcmc.Result {
	out := make([]mcmc.Result, len(c.runs))
	for i, r := range c.runs {
		out[i] = r.Result()
	}
	return out
}

// Pool returns the global best-correct candidates, best first. The
// programs are private clones, safe to hold after the chains move on.
func (c *Coordinator) Pool() []Candidate {
	return append([]Candidate(nil), c.pool...)
}

// Swaps reports accepted replica exchanges.
func (c *Coordinator) Swaps() int { return c.swaps }

// Prunes reports shared-best reseeds of stagnant chains.
func (c *Coordinator) Prunes() int { return c.prunes }

// Ladder builds the default β ladder for n replicas: a mostly-cold shape
// with the leading replicas at the phase's base β (matching the paper's
// tuned temperature, which the previously independent chains all ran at)
// and a hot tail — one replica per four, at least one — descending
// geometrically to base/span. An A/B sweep over ladder shapes on the
// p09/p13/p14 synthesis problems showed uniformly hotter ladders strictly
// hurt hit-rate (hot chains random-walk instead of converging), while
// keeping the ensemble cold and dedicating a single explorer beat
// independent chains on both hit-rate and time-to-zero; see
// BENCH_search.json.
func Ladder(base float64, n int, span float64) []float64 {
	out := make([]float64, n)
	hot := n / 4
	if hot < 1 && n > 1 {
		hot = 1
	}
	cold := n - hot
	for i := 0; i < cold; i++ {
		out[i] = base
	}
	for i := cold; i < n; i++ {
		out[i] = base * math.Pow(span, -float64(i-cold+1)/float64(hot))
	}
	return out
}

// DefaultLadderSpan is the hottest-to-coldest β ratio of the default
// ladder: the hottest replica runs 2x hotter (β/2) than the base.
const DefaultLadderSpan = 2.0
