package stoke

import (
	"math"
	"sort"
	"time"

	"repro/internal/mcmc"
	"repro/internal/verify"
	"repro/internal/x64"
)

// Report is the outcome of one kernel run.
type Report struct {
	Kernel  string
	Target  *x64.Program
	Rewrite *x64.Program // best correct rewrite (possibly the target itself)

	// Partial marks a run cut short by context cancellation: Rewrite is
	// the best candidate seen so far (the target when nothing better was
	// found) and Verdict reflects however far validation got.
	Partial bool

	// SynthesisSucceeded reports whether any synthesis chain reached a
	// zero-cost rewrite from a random start (Figure 12's starred kernels
	// are the failures).
	SynthesisSucceeded bool

	// Verdict is the validator's word on the final rewrite.
	Verdict verify.Verdict

	// Cycle estimates for target and rewrite under the pipeline model
	// (the static Equation 13 estimate is available via internal/perf.H).
	TargetCycles, RewriteCycles float64

	// SynthTime and OptTime are the aggregate time workers spent running
	// this kernel's chains (summed across chains, excluding time queued
	// behind other kernels on a shared pool); VerifyTime is validator
	// wall-clock.
	SynthTime, OptTime, VerifyTime time.Duration

	// Refinements counts counterexample testcases folded back into τ
	// across the whole run — mid-search broadcasts that refined every
	// live chain as well as end-of-round validation folds — so it always
	// equals the final Tests minus the generated testcase count.
	Refinements int

	// Swaps counts accepted replica exchanges across all phases and
	// rounds; Prunes counts stagnant chains reseeded from the kernel's
	// global best. Swaps is zero under WithIndependentChains; Prunes is
	// not, since stagnant independent chains still reseed.
	Swaps, Prunes int

	// SkippedValidations counts scheduled mid-search validation rounds
	// the verifier skipped because the candidate pool's head could not
	// beat the proven incumbent's modelled cost — SAT time the run did
	// not spend. Rounds the pre-verification gate deferred count in
	// Proofs.GateDeferrals instead.
	SkippedValidations int

	// CacheHit marks a run served from the rewrite store without
	// launching a search: the fingerprint matched a proven entry whose
	// rewrite revalidated against fresh testcases and the stored
	// counterexample set. Fingerprint is the kernel's canonical
	// fingerprint whenever a store was configured, hit or miss.
	CacheHit    bool
	Fingerprint string

	// Proofs profiles the run's verification pipeline: how many candidates
	// were killed by banked-counterexample replay or deferred by the
	// pre-verification gate before any SAT call, how many queries actually
	// reached the solver, and the per-query wall-clock and clause-count
	// samples behind perfbench's verify.proof_* metrics.
	Proofs ProofProfile

	Stats mcmc.Stats
	Tests int
}

// ProofProfile aggregates verification-pipeline observability for one run.
type ProofProfile struct {
	// SATCalls counts queries that reached verify.Equivalent's solver
	// (including the structural fast path — every call to the prover).
	SATCalls int

	// Structural counts the SATCalls that closed without a SAT call:
	// Equal verdicts whose live outputs matched term for term, up to
	// commutative operand order (verify.ReasonStructural).
	Structural int

	// ReplayKills counts candidates refuted by replaying a banked
	// counterexample through the compiled evaluator: NotEqual verdicts
	// established without a SAT call.
	ReplayKills int

	// GateDeferrals counts scheduled validation rounds the feature gate
	// postponed (each deferral is bounded per candidate — a deferred proof
	// always runs eventually).
	GateDeferrals int

	// ModelMismatches counts symbolic NotEqual verdicts whose extracted
	// counterexample failed to reproduce divergence on the emulator — a
	// latent symbolic-model/emulator disagreement. Must stay zero on the
	// tracked kernels.
	ModelMismatches int

	// Times and Clauses are per-query samples: wall-clock spent in
	// verify.Equivalent and the encoded problem's clause count. Times
	// samples every query; Clauses samples only the queries encoded for
	// SAT, so its percentiles rise when more queries close structurally.
	Times   []time.Duration
	Clauses []int
}

// TimeP returns the q-quantile (0 ≤ q ≤ 1, nearest-rank) of the per-query
// proof times, or zero with no samples.
func (p *ProofProfile) TimeP(q float64) time.Duration {
	i, ok := rankIndex(len(p.Times), q)
	if !ok {
		return 0
	}
	sorted := append([]time.Duration(nil), p.Times...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return sorted[i]
}

// ClausesP returns the q-quantile (nearest-rank) of the per-query clause
// counts, or zero with no samples.
func (p *ProofProfile) ClausesP(q float64) int {
	i, ok := rankIndex(len(p.Clauses), q)
	if !ok {
		return 0
	}
	sorted := append([]int(nil), p.Clauses...)
	sort.Ints(sorted)
	return sorted[i]
}

// rankIndex maps a quantile onto a nearest-rank index into n sorted
// samples.
func rankIndex(n int, q float64) (int, bool) {
	if n == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i, true
}

// RegFreeFraction is the dynamic fraction of register-writing slots whose
// writes the register-liveness pass suppressed across the run's chains
// (mcmc.Stats.RegFreeFraction).
func (r *Report) RegFreeFraction() float64 { return r.Stats.RegFreeFraction() }

// Speedup is the modelled speedup of the rewrite over the target.
func (r *Report) Speedup() float64 {
	if r.RewriteCycles == 0 {
		return 1
	}
	return r.TargetCycles / r.RewriteCycles
}
