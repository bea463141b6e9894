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
// truth. The phase temperatures, restart cadence and refinement bound are
// fixed, as in the paper's Figure 11; no option changes them.
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
// configure runs exclusively through functional options, which can
// explicitly set a knob to zero (skip the synthesis phase, ...).
type settings struct {
	seed           int64
	synthChains    int
	optChains      int
	synthProposals int64
	optProposals   int64
	tests          int
	ell            int
	verify         verify.Config
	observer       func(Event)
	independent    bool
	store          *store.Store
	cacheOnly      bool

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
		verify:         verify.DefaultConfig,
	}
}

func resolve(opts []Option) settings {
	st := defaultSettings()
	for _, o := range opts {
		o(&st)
	}
	// A non-positive ℓ is meaningless (and would trip the mcmc layer's
	// zero-value Params fallback, silently discarding the phase betas);
	// normalize it here so every sampler sees a usable length.
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

// WithIndependentChains runs each phase's chains as the paper's §5.3
// independent chains at the phase temperature, instead of the default
// coordinated ensemble. It turns off two kinds of cooperation:
//
//   - replica exchange (parallel tempering), where a phase's chains
//     occupy a mostly-cold β ladder and adjacent replicas trade their
//     current programs under the Metropolis swap criterion at a fixed,
//     seeded proposal cadence;
//   - the kernel-wide testcase rejection profile, from which new chains
//     (including every refinement round's) warm-start their adaptive
//     testcase order.
//
// Chains still meet at the coordinator's barriers: an optimization chain
// stagnant for DefaultRestartAfter proposals, its own best outside the
// re-ranking window, is still reseeded from the global pool's best
// correct program; mid-search validation still broadcasts
// counterexamples; and re-ranking still draws on every chain's bests.
// Fixed-seed runs are bit-for-bit reproducible either way.
func WithIndependentChains() Option {
	return func(st *settings) { st.independent = true }
}

// WithRewriteStore attaches a content-addressed rewrite cache to the run.
// Before searching, Optimize canonicalises the kernel (internal/canon) and
// probes the store: an exact fingerprint+constants hit returns the proven
// rewrite immediately — after replaying the stored counterexample set and
// this run's freshly generated testcases through the compiled evaluator as
// revalidation — without launching a search. A fingerprint-class near-miss
// (same canonical skeleton, different constants) warm-starts the
// optimization chains, τ and the rejection profile from the cached entry;
// its constant-substituted rewrite is proven against the target first, and
// a proven Equal skips the synthesis phase.
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

// betaLadder resolves a phase's per-replica inverse temperatures: the
// default geometric ladder for coordinated chains, or a flat ladder
// (independent chains at the phase temperature).
func (st *settings) betaLadder(base float64, n int) []float64 {
	if !st.independent {
		return search.Ladder(base, n, search.DefaultLadderSpan)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = base
	}
	return out
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
