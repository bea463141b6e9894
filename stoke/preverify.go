// The proof policy of a run and the verification-cost reduction layer in
// front of verify.Equivalent: the cost-aware skip of mid-search pool heads
// that cannot beat the proven incumbent, banked-counterexample replay (a
// candidate refuted by a concrete replayed divergence never reaches the
// solver), the feature-based pre-verification gate (low-scoring
// candidates have their mid-search proof deferred — and only deferred — to
// a later validation round), and per-query proof-cost accounting.
// Mid-search the ordering is skip → gate → replay → SAT; the end-of-round
// validation loop runs replay → SAT. Every shortcut is
// soundness-preserving by construction:
//
//   - The skip only *waits*. A skipped head is never reported; it reaches
//     a verdict, if it is ever the final candidate, in the end-of-round
//     validation loop.
//   - Replay can only *refute*. A bank testcase is materialised by running
//     the target concretely (testgen.FromInput), so a candidate failing it
//     diverges from the target on a real input — the same evidence a
//     SAT-extracted counterexample yields. A stale, foreign or poisoned
//     bank entry either fails to materialise or produces a testcase the
//     candidate passes; both degrade to the SAT call, never a wrong kill.
//   - The gate only *defers*. Deferral is bounded per candidate and the
//     end-of-round validation loop never consults the gate, so no verdict
//     is ever reported on the gate's word: anything served or reported as
//     proven is still backed by a SAT Equal.

package stoke

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/canon"
	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/perf"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// maxGateDefers bounds how many scheduled validation rounds the gate may
// postpone one candidate's proof: after this many deferrals the proof runs
// regardless of score.
const maxGateDefers = 2

// gatePassScore is the score at or above which a candidate's proof runs
// immediately.
const gatePassScore = 0.6

// checkOutcome is one candidate's trip through the verification pipeline.
type checkOutcome struct {
	verdict verify.Verdict

	// tc is the refining testcase of an uncached NotEqual outcome: a
	// concrete input on which the candidate diverges from the target.
	tc testgen.Testcase

	// cached marks a verdict answered from the memo without any work this
	// call (no event was emitted, nothing changed).
	cached bool

	// replayKill marks a NotEqual established by bank replay, without a
	// SAT call.
	replayKill bool
}

// verifier is a run's proof policy: it decides when a candidate is worth
// a proof, runs it through replay → SAT, and folds counterexamples into τ.
// It owns τ, the proven incumbent and the verdict memo shared by the
// near-miss start proof, the mid-search validator and the end-of-round
// validation loop. It is driven from one goroutine at a time (coordinator
// barriers and the end-of-round loop are sequential), so its state needs
// no locking.
type verifier struct {
	e   *Engine
	st  *settings
	k   Kernel
	m   *emu.Machine
	rng *rand.Rand
	rep *Report
	ctx context.Context

	// prove runs one SAT equivalence query on the engine's pool and
	// reports its wall-clock. It is the seam tests stub.
	prove func(cand *x64.Program) (verify.Result, time.Duration)

	// tests is τ, the run's live testcase set: generated testcases, a near
	// miss's replayed counterexamples, and every refinement since. prof is
	// the kernel-wide rejection profile (nil under independent chains),
	// grown with τ.
	tests []testgen.Testcase
	prof  *cost.SharedProfile

	// incumbentH is the modelled cost (Equation 13 latency sum — what an
	// eq-zero pool entry's search cost reduces to in the optimization
	// phase, whose chains run at perfWeight 1) of the best candidate
	// proven Equal so far. The target, correct by construction, seeds it;
	// a proven near-miss start may lower it before any chain runs.
	incumbentH float64

	// bank is the counterexample bank (the attached rewrite store, or the
	// engine's private in-memory store).
	// form carries states between this kernel's register space and the
	// bank's canonical space.
	bank *store.Store
	form *canon.Form

	// bankRng materialises bank replays on its own stream, so the number
	// of banked counterexamples (which varies with what other runs have
	// discovered) never shifts the run's main rng stream.
	bankRng *rand.Rand

	// bankIdx tracks how much of the bank is already materialised into
	// bankTests (kernel-space replay testcases).
	bankIdx   int
	bankTests []testgen.Testcase

	// validated caches concluded verdicts per candidate listing. Equal,
	// Unsupported and NotEqual conclude; budget-exhausted Unknowns are
	// deliberately NOT memoized — a later round (larger τ, different
	// schedule) may afford the proof, and caching them would permanently
	// block it. Model-mismatch Unknowns are memoized: the disagreement is
	// deterministic, re-proving cannot change it.
	validated map[string]verify.Verdict

	// defers counts gate deferrals per candidate listing.
	defers map[string]int

	targetOps map[x64.Opcode]bool
	round     int
}

// canonCex carries a kernel-space machine state into canonical register
// space under form's bijections: the canonical register GPRToCanon(r)
// holds original r's value, so α-renamed siblings read their own registers
// back out via the same mapping.
func canonCex(form *canon.Form, in *emu.Snapshot) store.Cex {
	var cx store.Cex
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		cx.Regs[form.GPRToCanon(r)] = in.Regs[r]
	}
	for r := x64.Reg(0); r < x64.NumXMM; r++ {
		cx.Xmm[form.XMMToCanon(r)] = in.Xmm[r]
	}
	cx.Flags = uint8(in.Flags)
	return cx
}

// kernelCex is the inverse: a canonical-space counterexample mapped into
// this kernel's register space.
func kernelCex(form *canon.Form, cx store.Cex) store.Cex {
	var out store.Cex
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		out.Regs[r] = cx.Regs[form.GPRToCanon(r)]
	}
	for r := x64.Reg(0); r < x64.NumXMM; r++ {
		out.Xmm[r] = cx.Xmm[form.XMMToCanon(r)]
	}
	out.Flags = cx.Flags
	return out
}

// check runs one candidate through the pipeline: memo → bank replay → SAT,
// with verdict-specific memoization and proof-cost accounting. NotEqual
// outcomes always carry a refining testcase; a symbolic NotEqual whose
// counterexample does not reproduce concretely comes back Unknown with a
// model-mismatch recorded (never a silent downgrade).
func (v *verifier) check(cand *x64.Program) checkOutcome {
	key := cand.String()
	if vd, seen := v.validated[key]; seen {
		return checkOutcome{verdict: vd, cached: true}
	}

	// --- Bank replay: a concrete divergence on a banked input is a
	// NotEqual with SAT-grade evidence, at compiled-evaluator cost. ---
	if tc, ok := v.replayKill(cand); ok {
		v.validated[key] = verify.NotEqual
		v.rep.Proofs.ReplayKills++
		v.e.emit(v.st, Event{Kind: EventReplayKill, Kernel: v.k.Name, Round: v.round})
		return checkOutcome{verdict: verify.NotEqual, tc: tc, replayKill: true}
	}

	// --- SAT proof. ---
	res := v.sat(cand)
	switch res.Verdict {
	case verify.Equal, verify.Unsupported:
		v.validated[key] = res.Verdict
		return checkOutcome{verdict: res.Verdict}
	case verify.Unknown:
		// Truncated (cancelled) or budget-exhausted: inconclusive either
		// way, and deliberately not memoized — a later validation round
		// must be free to retry the proof.
		return checkOutcome{verdict: verify.Unknown}
	}

	// NotEqual: re-derive the divergence concretely.
	tc, genuine := cexTestcase(v.k, v.m, v.rng, res.Cex, cand)
	if !genuine {
		// The symbolic model refuted the candidate but its counterexample
		// does not distinguish the programs on the emulator — a
		// symbolic-model/emulator disagreement (typically an
		// uninterpreted-function artefact), surfaced as its own event and
		// counter rather than silently downgraded. Operationally the
		// query is inconclusive; memoized because the disagreement is
		// deterministic.
		v.validated[key] = verify.Unknown
		v.rep.Proofs.ModelMismatches++
		v.e.emit(v.st, Event{Kind: EventModelMismatch, Kernel: v.k.Name, Round: v.round})
		return checkOutcome{verdict: verify.Unknown}
	}
	v.validated[key] = verify.NotEqual
	v.bankCex(tc)
	return checkOutcome{verdict: verify.NotEqual, tc: tc}
}

// sat runs one SAT equivalence query and records it in the proof profile.
// An Equal lowers the incumbent: every proof the run spends — the near
// miss's start, mid-search and end of round — goes through here.
func (v *verifier) sat(cand *x64.Program) verify.Result {
	res, dur := v.prove(cand)
	v.rep.VerifyTime += dur
	if res.Verdict == verify.Equal {
		v.incumbentH = min(v.incumbentH, perf.H(cand))
	}
	v.rep.Proofs.SATCalls++
	v.rep.Proofs.Times = append(v.rep.Proofs.Times, dur)
	if res.Reason == verify.ReasonStructural {
		v.rep.Proofs.Structural++
	}
	if res.Clauses > 0 {
		v.rep.Proofs.Clauses = append(v.rep.Proofs.Clauses, res.Clauses)
	}
	return res
}

// proveStart proves a near miss's substituted start before any chain runs.
// It goes straight to SAT: bank replay would draw from bankRng and shift
// every later replay. Only an Equal is memoized — a NotEqual folds no
// counterexample into τ, so the candidate must stay free to be checked
// (and refined on) like any other.
func (v *verifier) proveStart(cand *x64.Program) verify.Verdict {
	vd := v.sat(cand).Verdict
	if vd == verify.Equal {
		v.validated[cand.String()] = vd
	}
	return vd
}

// bankCex canonicalises a genuine counterexample input and merges it into
// the global bank, where every later run — on this kernel or any α-renamed
// sibling — replays it before proving.
func (v *verifier) bankCex(tc testgen.Testcase) {
	if v.bank == nil {
		return
	}
	// Persistence failure degrades to a forgetful bank, never fails a run.
	_ = v.bank.AddCexs([]store.Cex{canonCex(v.form, tc.In)})
}

// refreshBank materialises any bank entries that arrived since the last
// call: canonical-space states are mapped into this kernel's registers and
// run through the target (replayCex) to rebuild expected outputs. States
// the target cannot run (foreign or poisoned entries) are dropped here —
// which is the poisoned-cex degradation path: they simply never join the
// replay set.
func (v *verifier) refreshBank() {
	if v.bank == nil {
		return
	}
	cexs := v.bank.BankCexs()
	for ; v.bankIdx < len(cexs); v.bankIdx++ {
		kcx := kernelCex(v.form, cexs[v.bankIdx])
		if tc, ok := replayCex(v.k, v.m, v.bankRng, kcx); ok {
			v.bankTests = append(v.bankTests, tc)
		}
	}
}

// replayKill replays the banked counterexamples against cand through the
// compiled evaluator (strict mode — exact agreement or divergence). On
// divergence it returns the specific refuting testcase, which the caller
// folds into τ exactly like a SAT-extracted counterexample.
func (v *verifier) replayKill(cand *x64.Program) (testgen.Testcase, bool) {
	v.refreshBank()
	if len(v.bankTests) == 0 {
		return testgen.Testcase{}, false
	}
	f := cost.New(v.bankTests[:len(v.bankTests):len(v.bankTests)],
		v.k.Spec.LiveOut, cost.Strict, 0)
	if f.Eval(cand, cost.MaxBudget).Cost == 0 {
		return testgen.Testcase{}, false // agrees on the whole bank
	}
	for i := range v.bankTests {
		f1 := cost.New(v.bankTests[i:i+1:i+1], v.k.Spec.LiveOut, cost.Strict, 0)
		if f1.Eval(cand, cost.MaxBudget).Cost != 0 {
			return v.bankTests[i], true
		}
	}
	return testgen.Testcase{}, false
}

// validate is the optimization coordinator's Validate hook: at a barrier
// cadence it decides whether the pool head is worth a proof now, proves or
// refutes it, and hands a genuine counterexample back as a testcase the
// coordinator broadcasts to every live chain — not just the chain that
// found the candidate.
//
// A head whose modelled cost does not beat the incumbent is skipped and
// counted (Report.SkippedValidations): it cannot displace the incumbent in
// the final re-ranking, so a proof would be wasted SAT time. A tie is
// skipped deliberately; its verdict (and any counterexample) waits for the
// end-of-round validation loop, which is gated only by the verdict memo.
// Behind the skip, the pre-verification gate may defer the proof.
func (v *verifier) validate(head search.Candidate) []testgen.Testcase {
	if head.Cost >= v.incumbentH {
		v.rep.SkippedValidations++
		return nil
	}
	if v.shouldDefer(head.Prog) || v.ctx.Err() != nil {
		return nil
	}
	out := v.check(head.Prog)
	if out.cached {
		return nil
	}
	if out.verdict == verify.Unknown && v.ctx.Err() != nil {
		return nil // truncated proof, not a verdict
	}
	if !out.replayKill {
		v.e.emit(v.st, Event{Kind: EventVerdict, Kernel: v.k.Name,
			Round: v.round, Verdict: out.verdict})
	}
	if out.verdict != verify.NotEqual {
		return nil
	}
	v.refine(out.tc)
	return []testgen.Testcase{out.tc}
}

// refine folds a counterexample testcase into τ and keeps the shared
// profile's counters covering it, so chains can learn (and later rounds
// warm-start on) the new testcase's discriminating power.
func (v *verifier) refine(tc testgen.Testcase) {
	v.tests = append(v.tests[:len(v.tests):len(v.tests)], tc)
	v.prof.Grow(len(v.tests))
	v.rep.Refinements++
	v.e.emit(v.st, Event{Kind: EventRefinement, Kernel: v.k.Name,
		Round: v.round, Tests: len(v.tests)})
}

// shouldDefer is the pre-verification gate, consulted by validate: true
// postpones the pool head's mid-search proof to a later scheduled round. Already-concluded candidates and candidates at their
// deferral bound always proceed, and the end-of-round validation loop
// never consults the gate — deferral trades *when* a proof runs, never
// whether.
func (v *verifier) shouldDefer(cand *x64.Program) bool {
	key := cand.String()
	if _, seen := v.validated[key]; seen {
		return false // memo answers for free; nothing to defer
	}
	if v.defers[key] >= maxGateDefers {
		return false
	}
	if v.gateScore(cand) >= gatePassScore {
		return false
	}
	v.defers[key]++
	v.rep.Proofs.GateDeferrals++
	v.e.emit(v.st, Event{Kind: EventGateDefer, Kernel: v.k.Name, Round: v.round})
	return true
}

// gateScore estimates how likely cand is to survive verification, in
// [0, 1]: observed-output agreement breadth over the current τ (weight
// 0.45), opcode-set similarity to the target (0.30), and Eq.13 cost-margin
// plausibility against the incumbent (0.25) — a candidate claiming to be
// drastically cheaper than anything proven so far usually owes the claim
// to a τ gap, the PrediPrune observation that implausible wins predict
// failed verification.
func (v *verifier) gateScore(cand *x64.Program) float64 {
	breadth := 1.0
	if n := len(v.tests); n > 0 {
		f := cost.New(v.tests[:n:n], v.k.Spec.LiveOut, cost.Strict, 0)
		breadth = float64(f.Agreement(cand)) / float64(n)
	}

	sim := 1 - opcodeDistance(v.targetOps, opcodeSet(cand))

	plaus := 1.0
	if inc := v.incumbentH; inc > 0 {
		mr := (inc - perf.H(cand)) / inc // fraction of the incumbent shaved off
		if mr > 0.5 {
			// Up to half off is an ordinary superoptimization win; beyond
			// that, plausibility decays linearly to zero at "free".
			plaus = 1 - (mr-0.5)/0.5
			if plaus < 0 {
				plaus = 0
			}
		}
	}

	return 0.45*breadth + 0.30*sim + 0.25*plaus
}

// opcodeSet collects the opcodes of p, ignoring padding and labels.
func opcodeSet(p *x64.Program) map[x64.Opcode]bool {
	ops := make(map[x64.Opcode]bool)
	for _, in := range p.Insts {
		if in.Op == x64.UNUSED || in.Op == x64.LABEL {
			continue
		}
		ops[in.Op] = true
	}
	return ops
}

// opcodeDistance is the Jaccard distance between two opcode sets (0 =
// identical, 1 = disjoint; two empty sets count as identical).
func opcodeDistance(a, b map[x64.Opcode]bool) float64 {
	union := len(a)
	inter := 0
	for op := range b {
		if a[op] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}
