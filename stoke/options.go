package stoke

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/verify"
)

// Default values applied before options; exported so external harnesses
// and presets derive half-specified configurations from the same source of
// truth.
const (
	DefaultSynthChains    = 4
	DefaultOptChains      = 4
	DefaultSynthProposals = 400000
	DefaultOptProposals   = 200000
	DefaultTests          = 32
	DefaultEll            = 24
	DefaultSynthBeta      = 0.1
	DefaultOptBeta        = 1.0
	DefaultRestartAfter   = 20000
	DefaultMaxRefinements = 4
)

// settings is the resolved configuration of one run. It is private: callers
// configure runs exclusively through functional options, which — unlike the
// old zero-value-defaulted struct — can explicitly set a knob to zero
// (disable restarts, run a zero-temperature optimization phase, ...).
type settings struct {
	seed           int64
	synthChains    int
	optChains      int
	synthProposals int64
	optProposals   int64
	tests          int
	ell            int
	synthBeta      float64
	optBeta        float64
	restartAfter   int64
	maxRefinements int
	verify         verify.Config
	observer       func(Event)
	sse            *bool
	interpreted    bool
	batched        bool
	regLiveness    bool
	tempering      bool
	ladder         []float64
	sharedProfile  bool
	store          *store.Store
	cacheOnly      bool
	cexBank        bool
	verifyGate     bool

	// emitMu serializes this run's observer callbacks. It is per-resolve
	// (shared by OptimizeAll's per-kernel copies, distinct across runs),
	// so a slow observer on one run never stalls another run's chains.
	emitMu *sync.Mutex
}

// defaultSettings are laptop-scale budgets that finish a kernel in seconds.
// The paper ran 40 machines for 30 minutes per phase.
func defaultSettings() settings {
	return settings{
		seed:           1,
		synthChains:    DefaultSynthChains,
		optChains:      DefaultOptChains,
		synthProposals: DefaultSynthProposals,
		optProposals:   DefaultOptProposals,
		tests:          DefaultTests,
		ell:            DefaultEll,
		synthBeta:      DefaultSynthBeta,
		optBeta:        DefaultOptBeta,
		restartAfter:   DefaultRestartAfter,
		maxRefinements: DefaultMaxRefinements,
		verify:         verify.DefaultConfig,
		tempering:      true,
		sharedProfile:  true,
		batched:        false,
		regLiveness:    true,
		cexBank:        true,
		verifyGate:     true,
	}
}

func resolve(opts []Option) settings {
	st := defaultSettings()
	for _, o := range opts {
		o(&st)
	}
	// A non-positive ℓ is meaningless (and would trip the mcmc layer's
	// zero-value Params fallback, silently discarding the configured
	// betas); normalize it here so every sampler sees a usable length.
	if st.ell <= 0 {
		st.ell = DefaultEll
	}
	// Likewise zero testcases: an empty τ scores every program as correct,
	// so the search would hand back arbitrary garbage.
	if st.tests <= 0 {
		st.tests = DefaultTests
	}
	// Chain counts: zero is a documented explicit choice (skip the phase);
	// negatives are meaningless and clamp to zero rather than panicking in
	// the scheduler.
	if st.synthChains < 0 {
		st.synthChains = 0
	}
	if st.optChains < 0 {
		st.optChains = 0
	}
	st.emitMu = &sync.Mutex{}
	return st
}

// Option configures one Optimize or OptimizeAll run.
type Option func(*settings)

// WithSeed sets the random seed. Runs with equal seeds and settings are
// deterministic regardless of worker-pool scheduling: every chain derives
// its own generator from the seed and its chain index.
func WithSeed(seed int64) Option {
	return func(st *settings) { st.seed = seed }
}

// WithBudgets sets the per-chain proposal budgets of the synthesis and
// optimization phases.
func WithBudgets(synthProposals, optProposals int64) Option {
	return func(st *settings) {
		st.synthProposals = synthProposals
		st.optProposals = optProposals
	}
}

// WithChains sets how many synthesis and optimization chains run. Zero
// synthesis chains skip the synthesis phase entirely and optimize from the
// target alone; negative values clamp to zero.
func WithChains(synth, opt int) Option {
	return func(st *settings) {
		st.synthChains = synth
		st.optChains = opt
	}
}

// WithTests sets the number of generated testcases per target (§5.1: 32).
// Values below 1 are meaningless and take the default.
func WithTests(n int) Option {
	return func(st *settings) { st.tests = n }
}

// WithEll sets the fixed sequence length ℓ of candidate rewrites. Values
// below 1 are meaningless and take the default.
func WithEll(n int) Option {
	return func(st *settings) { st.ell = n }
}

// WithBetas sets the inverse temperatures of the two phases: synthesis runs
// hot over the Hamming cost scale (Figure 11: 0.1), optimization cold at
// the perf-term scale. Zero is a legal, explicit choice (accept every
// proposal).
func WithBetas(synth, opt float64) Option {
	return func(st *settings) {
		st.synthBeta = synth
		st.optBeta = opt
	}
}

// WithRestartAfter resets a wandering optimization chain to its best
// correct program after n proposals without improvement (an extension over
// the paper). Zero disables restarts.
func WithRestartAfter(n int64) Option {
	return func(st *settings) { st.restartAfter = n }
}

// WithMaxRefinements bounds validator-driven testcase refinement rounds.
func WithMaxRefinements(n int) Option {
	return func(st *settings) { st.maxRefinements = n }
}

// WithVerify sets the validator configuration (SAT conflict budget, formula
// size cap, exact multiplication encoding).
func WithVerify(cfg verify.Config) Option {
	return func(st *settings) { st.verify = cfg }
}

// WithTempering enables or disables replica exchange (parallel
// tempering): a phase's chains occupy a mostly-cold β ladder — the
// leading replicas at the phase temperature, a hot tail (one replica per
// four) down to half of it — and adjacent replicas exchange their current
// programs under the Metropolis swap criterion at a fixed proposal
// cadence, so the hot explorers feed whatever basins they find into the
// cold exploiting rungs. Enabled by default; disabling it reverts to
// fully independent chains at the phase temperature (the paper's §5.3
// discipline). The swap schedule is seeded: fixed-seed runs are
// bit-for-bit reproducible either way.
func WithTempering(enabled bool) Option {
	return func(st *settings) { st.tempering = enabled }
}

// WithLadder replaces the default geometric β ladder with explicit
// multipliers: replica i of a phase runs at the phase β times
// mults[i%len(mults)]. Implies WithTempering(true).
func WithLadder(mults ...float64) Option {
	return func(st *settings) {
		st.ladder = append([]float64(nil), mults...)
		st.tempering = true
	}
}

// WithSharedProfile enables or disables the kernel-wide testcase
// rejection profile: every chain's early terminations feed one atomic
// counter set, and new chains (including every refinement round's) warm
// start their adaptive testcase order from what sibling chains already
// learned instead of rediscovering the discriminating testcases. Enabled
// by default; it never changes accept/reject decisions, only how early
// bad proposals are rejected.
func WithSharedProfile(enabled bool) Option {
	return func(st *settings) { st.sharedProfile = enabled }
}

// WithRewriteStore attaches a content-addressed rewrite cache to the run.
// Before searching, Optimize canonicalises the kernel (internal/canon) and
// probes the store: an exact fingerprint+constants hit returns the proven
// rewrite immediately — after replaying the stored counterexample set and
// this run's freshly generated testcases through the compiled evaluator as
// revalidation — without launching a search; a fingerprint-class near-miss
// (same canonical skeleton, different constants) warm-starts the
// optimization chains, τ and the rejection profile from the cached entry.
// Every successfully verified run is written back. The same store may
// serve any number of engines and runs concurrently.
func WithRewriteStore(s *store.Store) Option {
	return func(st *settings) { st.store = s }
}

// WithCacheOnly makes Optimize answer exclusively from the rewrite store:
// an exact hit returns as usual, anything else fails with ErrCacheMiss
// instead of searching. This is the synchronous fast path a serving
// front-end probes before enqueueing an async search job. Requires
// WithRewriteStore.
func WithCacheOnly() Option {
	return func(st *settings) { st.cacheOnly = true }
}

// WithCexBank toggles the global cross-kernel counterexample bank
// (default on): every genuine counterexample discovered by any run is
// canonicalised into the bank (on the attached rewrite store when one is
// configured, otherwise on the engine's private in-memory bank), and every
// candidate reaching validation first replays the banked counterexamples
// through the compiled evaluator — a replayed divergence is a NotEqual
// without a SAT call. Replay is sound by construction: the refuting
// testcase is re-derived by running the *target* concretely, so a stale or
// poisoned bank entry can never refute a correct candidate — it just falls
// through to the SAT proof.
func WithCexBank(enabled bool) Option {
	return func(st *settings) { st.cexBank = enabled }
}

// WithVerifyGate toggles the feature-based pre-verification gate (default
// on): before a scheduled mid-search proof, the candidate is scored on
// observed-output agreement breadth, Eq.13 cost margin over the incumbent,
// and opcode-set distance from the target; low scorers have their proof
// deferred to a later validation round. Deferral is bounded per candidate
// and end-of-round validation never consults the gate, so every reported
// verdict is still SAT-backed — the gate shifts proof attempts toward
// candidates likely to survive them, it never skips a proof.
func WithVerifyGate(enabled bool) Option {
	return func(st *settings) { st.verifyGate = enabled }
}

// betaLadder resolves a phase's per-replica inverse temperatures: the
// explicit WithLadder multipliers when given, the default geometric
// ladder under tempering, or a flat ladder (independent chains at the
// phase temperature) otherwise.
func (st *settings) betaLadder(base float64, n int) []float64 {
	if st.tempering && len(st.ladder) > 0 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base * st.ladder[i%len(st.ladder)]
		}
		return out
	}
	if st.tempering {
		return search.Ladder(base, n, search.DefaultLadderSpan)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = base
	}
	return out
}

// WithInterpretedEval makes every search chain evaluate candidates through
// the reference interpreter (re-decoding each instruction on every run)
// instead of the default decode-once compiled pipeline. The two paths agree
// on every accept/reject decision; this switch exists for differential
// debugging and A/B benchmarking of the evaluation substrate.
func WithInterpretedEval() Option {
	return func(st *settings) { st.interpreted = true }
}

// WithBatchedEval toggles batched lockstep evaluation on the compiled
// pipeline (default off): the tail of each candidate evaluation runs all
// remaining testcases through one emu.Batch sweep — dispatch and operand
// decode paid once per instruction slot instead of once per (slot,
// testcase) — with diverging testcases peeling off to the scalar path at
// conditional jumps. Decision-identical to the scalar compiled pipeline,
// but slower end to end: a batch runs its whole chunk even when a
// testcase mid-chunk already pushed the candidate over its rejection
// budget, work the per-testcase walk skips. Pass true to A/B against the
// default. Ignored under WithInterpretedEval.
func WithBatchedEval(enabled bool) Option {
	return func(st *settings) { st.batched = enabled }
}

// WithRegLiveness toggles register-liveness write suppression on the
// compiled pipeline (default on): every chain's cost function threads the
// kernel's live-out register sets into the compiled form, so candidate
// writes to GPRs and XMM registers the kernel cannot observe are
// suppressed (reads, flags, faults and undefined-read accounting are
// unchanged). Accept/reject decisions on correct rewrites are identical;
// the Improved metric's heuristic misplacement credit may differ on
// incorrect intermediates because its rival scan reads non-live registers.
// Pass false to A/B the search trajectory against the unsuppressed
// pipeline. Ignored under WithInterpretedEval.
func WithRegLiveness(enabled bool) Option {
	return func(st *settings) { st.regLiveness = enabled }
}

// WithSSE forces vector opcodes on or off in the proposal distribution,
// overriding the kernel's own SSE annotation.
func WithSSE(enabled bool) Option {
	return func(st *settings) { st.sse = &enabled }
}

// WithObserver streams typed progress events to fn: phase transitions,
// per-chain best-cost improvements, refinement testcases, and validator
// verdicts. Calls are serialized (fn needs no locking) but arrive from
// worker goroutines, so fn should return quickly; a slow observer
// backpressures the search.
func WithObserver(fn func(Event)) Option {
	return func(st *settings) { st.observer = fn }
}

// WithProfile applies a budget preset; later options still override
// individual knobs. Zero-valued profile fields are left at their defaults
// (a Profile is a preset, not a carrier for explicit zeros — use the
// individual options for those).
func WithProfile(p Profile) Option {
	return func(st *settings) {
		if p.SynthChains > 0 {
			st.synthChains = p.SynthChains
		}
		if p.OptChains > 0 {
			st.optChains = p.OptChains
		}
		if p.SynthProposals > 0 {
			st.synthProposals = p.SynthProposals
		}
		if p.OptProposals > 0 {
			st.optProposals = p.OptProposals
		}
		if p.Ell > 0 {
			st.ell = p.Ell
		}
		if p.VerifyBudget > 0 {
			st.verify.Budget = p.VerifyBudget
		}
		if p.VerifyMaxTerms > 0 {
			st.verify.MaxTerms = p.VerifyMaxTerms
		}
	}
}

// Profile is a named budget preset.
type Profile struct {
	Name                         string
	SynthChains, OptChains       int
	SynthProposals, OptProposals int64
	Ell                          int

	// VerifyBudget and VerifyMaxTerms, when positive, cap the validator's
	// SAT conflicts and formula size (hard proofs answer Unknown instead
	// of running for minutes).
	VerifyBudget   int64
	VerifyMaxTerms int
}

// Quick is the default profile: seconds per kernel on a laptop.
var Quick = Profile{
	Name:        "quick",
	SynthChains: DefaultSynthChains, OptChains: DefaultOptChains,
	SynthProposals: DefaultSynthProposals, OptProposals: DefaultOptProposals,
	Ell: DefaultEll,
}

// Full spends roughly a minute per kernel.
var Full = Profile{
	Name:        "full",
	SynthChains: 4, OptChains: 4,
	SynthProposals: 500000, OptProposals: 600000,
	Ell: 30,
}

// Profiles lists the named presets.
func Profiles() []Profile { return []Profile{Quick, Full} }

// ProfileByName resolves a preset by name; unknown names error, listing the
// valid ones.
func ProfileByName(name string) (Profile, error) {
	var names []string
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return Profile{}, fmt.Errorf("stoke: unknown profile %q (valid: %s)",
		name, strings.Join(names, ", "))
}
