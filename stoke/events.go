package stoke

import (
	"fmt"
	"time"

	"repro/internal/verify"
)

// EventKind discriminates progress events.
type EventKind int

// Event kinds.
const (
	// EventPhaseStart and EventPhaseEnd bracket the "synthesis",
	// "optimization" and "validation" phases of a run; optimization and
	// validation repeat once per refinement round.
	EventPhaseStart EventKind = iota
	EventPhaseEnd
	// EventChainImproved reports a chain's best cost dropping.
	EventChainImproved
	// EventRefinement reports a counterexample testcase folded into τ —
	// at the end-of-round validation, or mid-search, where the coordinator
	// broadcasts it to every live chain of the kernel.
	EventRefinement
	// EventVerdict reports one validator query's outcome.
	EventVerdict
	// EventSwap reports an accepted replica exchange: the programs of
	// chains Chain and Partner (adjacent rungs of the β ladder) traded
	// places.
	EventSwap
	// EventPrune reports a stagnant chain abandoning its own hopeless
	// best and reseeding from the kernel's global best-so-far program.
	EventPrune
	// EventCacheHit reports a run served entirely from the rewrite store:
	// the cached rewrite revalidated against fresh testcases and the
	// stored counterexample set, so no search was launched.
	EventCacheHit
	// EventWarmStart reports a fingerprint-class near-miss: a cached
	// rewrite for the same canonical skeleton (different constants)
	// seeded the optimization chains, τ and the rejection profile. Its
	// Verdict is the SAT proof of the constant-substituted rewrite against
	// the target; when it is Equal, the run skips synthesis and emits no
	// synthesis phase events.
	EventWarmStart
	// EventReplayKill reports a candidate refuted by replaying a banked
	// counterexample through the compiled evaluator — a NotEqual
	// established without a SAT call.
	EventReplayKill
	// EventGateDefer reports the pre-verification gate postponing a
	// low-scoring candidate's proof to a later validation round (never
	// skipping it: deferral is bounded per candidate).
	EventGateDefer
	// EventModelMismatch reports a symbolic-model/emulator disagreement: a
	// SAT NotEqual whose extracted counterexample fails to reproduce any
	// divergence on the emulator. It is a latent soundness signal, not a
	// non-verdict; tracked kernels must never produce one.
	EventModelMismatch
)

func (k EventKind) String() string {
	switch k {
	case EventPhaseStart:
		return "phase-start"
	case EventPhaseEnd:
		return "phase-end"
	case EventChainImproved:
		return "chain-improved"
	case EventRefinement:
		return "refinement"
	case EventVerdict:
		return "verdict"
	case EventSwap:
		return "swap"
	case EventPrune:
		return "prune"
	case EventCacheHit:
		return "cache-hit"
	case EventWarmStart:
		return "warm-start"
	case EventReplayKill:
		return "replay-kill"
	case EventGateDefer:
		return "gate-defer"
	case EventModelMismatch:
		return "model-mismatch"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one typed progress report from a running optimization. Fields
// beyond Kind and Kernel are populated per kind, as documented.
type Event struct {
	Kind   EventKind
	Kernel string

	// Phase is "synthesis", "optimization" or "validation" (phase and
	// chain events).
	Phase string

	// Round is the refinement round, starting at 0 (optimization and
	// validation events).
	Round int

	// Chain identifies the reporting chain within its phase
	// (EventChainImproved, EventSwap, EventPrune).
	Chain int

	// Partner is the other replica of an accepted exchange (EventSwap).
	Partner int

	// Proposal is the chain-local proposal index at which the improvement
	// occurred (EventChainImproved).
	Proposal int64

	// Cost is the chain's new best cost (EventChainImproved), the colder
	// replica's pre-swap cost (EventSwap), or the adopted global best
	// cost (EventPrune).
	Cost float64

	// Tests is the testcase count after refinement (EventRefinement).
	Tests int

	// Verdict is the validator's answer (EventVerdict), or the proof of
	// a near miss's substituted start (EventWarmStart).
	Verdict verify.Verdict

	// Elapsed is the phase duration (EventPhaseEnd).
	Elapsed time.Duration

	// RegFree is the fraction of register-writing slots whose writes the
	// register-liveness pass suppressed across the phase's chains, by the
	// dynamic per-proposal counts (EventPhaseEnd of the synthesis and
	// optimization phases; zero when the pass is off).
	RegFree float64
}

// String renders the event as a single log-friendly line.
func (e Event) String() string {
	switch e.Kind {
	case EventPhaseStart:
		return fmt.Sprintf("[%s] %s round %d: start", e.Kernel, e.Phase, e.Round)
	case EventPhaseEnd:
		if e.RegFree > 0 {
			return fmt.Sprintf("[%s] %s round %d: done in %v (reg-free %.0f%%)",
				e.Kernel, e.Phase, e.Round, e.Elapsed, 100*e.RegFree)
		}
		return fmt.Sprintf("[%s] %s round %d: done in %v", e.Kernel, e.Phase, e.Round, e.Elapsed)
	case EventChainImproved:
		return fmt.Sprintf("[%s] %s chain %d: cost %.1f at proposal %d",
			e.Kernel, e.Phase, e.Chain, e.Cost, e.Proposal)
	case EventRefinement:
		return fmt.Sprintf("[%s] refinement: counterexample folded in, %d testcases", e.Kernel, e.Tests)
	case EventVerdict:
		return fmt.Sprintf("[%s] validator: %v", e.Kernel, e.Verdict)
	case EventSwap:
		return fmt.Sprintf("[%s] %s: replicas %d and %d exchanged programs (cost %.1f)",
			e.Kernel, e.Phase, e.Chain, e.Partner, e.Cost)
	case EventPrune:
		return fmt.Sprintf("[%s] %s chain %d: pruned to the global best (cost %.1f)",
			e.Kernel, e.Phase, e.Chain, e.Cost)
	case EventCacheHit:
		return fmt.Sprintf("[%s] cache hit: proven rewrite served from the store", e.Kernel)
	case EventWarmStart:
		return fmt.Sprintf("[%s] near-miss warm start from the store (cost %.1f, substitution %v)",
			e.Kernel, e.Cost, e.Verdict)
	case EventReplayKill:
		return fmt.Sprintf("[%s] replay kill: banked counterexample refuted the candidate without a proof", e.Kernel)
	case EventGateDefer:
		return fmt.Sprintf("[%s] gate: proof deferred to a later validation round", e.Kernel)
	case EventModelMismatch:
		return fmt.Sprintf("[%s] MODEL MISMATCH: symbolic NotEqual but the counterexample does not reproduce on the emulator", e.Kernel)
	}
	return fmt.Sprintf("[%s] %v", e.Kernel, e.Kind)
}
