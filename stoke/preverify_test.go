package stoke

import (
	"context"
	"math/rand"
	"testing"
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

// leanAddKernel is rax := rdi + rsi without the stack traffic — a target
// whose α-renamed sibling (r8/r9 → rbx) shares a canonical form, used to
// exercise canonical-space counterexample replay.
func leanAddKernel() Kernel {
	return Kernel{
		Name: "lean-add",
		Target: x64.MustParse(`
  movq rdi, rax
  addq rsi, rax
`),
		Spec: testgen.Spec{
			BuildInput: func(rng *rand.Rand) *emu.Snapshot {
				a := testgen.NewArena(0x10000)
				a.AllocStack(256)
				a.SetReg(x64.RDI, rng.Uint64())
				a.SetReg(x64.RSI, rng.Uint64())
				return a.Snapshot()
			},
			LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}},
		},
		Pointers: x64.RegSet(0).With(x64.RSP),
	}
}

// leanAddRenamed is leanAddKernel under rdi→r8, rsi→r9, rax→rbx.
func leanAddRenamed() Kernel {
	return Kernel{
		Name: "lean-add-renamed",
		Target: x64.MustParse(`
  movq r8, rbx
  addq r9, rbx
`),
		Spec: testgen.Spec{
			BuildInput: func(rng *rand.Rand) *emu.Snapshot {
				a := testgen.NewArena(0x10000)
				a.AllocStack(256)
				a.SetReg(x64.R8, rng.Uint64())
				a.SetReg(x64.R9, rng.Uint64())
				return a.Snapshot()
			},
			LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RBX, Width: 8}}},
		},
		Pointers: x64.RegSet(0).With(x64.RSP),
	}
}

// newTestVerifier assembles a verifier over k the way optimize does, with a
// stubbed prover.
func newTestVerifier(t *testing.T, k Kernel, bank *store.Store,
	prove func(*x64.Program) (verify.Result, time.Duration), obs func(Event)) (*verifier, *Report) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tests, err := testgen.Generate(k.Target, k.Spec, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	var opts []Option
	if obs != nil {
		opts = append(opts, WithObserver(obs))
	}
	st := resolve(opts)
	e := NewEngine(EngineConfig{Workers: 1})
	t.Cleanup(e.Close)
	rep := &Report{Kernel: k.Name}
	v := &verifier{
		e: e, st: &st, k: k, m: emu.New(), rng: rng, rep: rep, ctx: context.Background(),
		form:       canon.Canonicalize(k.Target, liveOutFor(k)),
		bank:       bank,
		bankRng:    rand.New(rand.NewSource(99)),
		validated:  map[string]verify.Verdict{},
		defers:     map[string]int{},
		targetOps:  opcodeSet(k.Target),
		tests:      tests,
		prof:       cost.NewSharedProfile(len(tests)),
		incumbentH: perf.H(k.Target),
		prove:      prove,
	}
	return v, rep
}

// TestUnknownVerdictNotMemoized is the stale-verdict regression test: a
// candidate whose first proof exhausts the budget (Unknown) must be
// re-verified at the next scheduled validation, not permanently blocked by
// the verdict memo. Only conclusive verdicts memoize.
func TestUnknownVerdictNotMemoized(t *testing.T) {
	calls := 0
	prove := func(*x64.Program) (verify.Result, time.Duration) {
		calls++
		if calls == 1 {
			return verify.Result{Verdict: verify.Unknown, Reason: "conflict budget exhausted"}, 0
		}
		return verify.Result{Verdict: verify.Equal}, 0
	}
	v, _ := newTestVerifier(t, leanAddKernel(), nil, prove, nil)
	cand := x64.MustParse("leaq (rdi,rsi), rax")

	if out := v.check(cand); out.verdict != verify.Unknown || out.cached {
		t.Fatalf("first check: verdict %v cached %v, want fresh Unknown", out.verdict, out.cached)
	}
	// Next scheduled round: the Unknown must not have been memoized.
	if out := v.check(cand); out.verdict != verify.Equal || out.cached {
		t.Fatalf("second check: verdict %v cached %v, want fresh Equal (Unknown was memoized)",
			out.verdict, out.cached)
	}
	if calls != 2 {
		t.Fatalf("prover ran %d times, want 2 (budget-exhausted Unknown must allow a retry)", calls)
	}
	// The Equal, by contrast, concludes: a third check answers from memo.
	if out := v.check(cand); !out.cached || out.verdict != verify.Equal {
		t.Fatalf("third check: verdict %v cached %v, want memoized Equal", out.verdict, out.cached)
	}
	if calls != 2 {
		t.Fatalf("prover ran %d times after a concluded verdict, want still 2", calls)
	}
}

// TestStructuralProofsCounted: a candidate equal to the target up to
// commutative operand order closes without SAT and counts as Structural,
// with no clause sample; a candidate that needs the solver counts as a
// SAT call only and contributes its clause count.
func TestStructuralProofsCounted(t *testing.T) {
	k := leanAddKernel()
	live := verify.LiveOut{GPRs: k.Spec.LiveOut.GPRs}
	prove := func(cand *x64.Program) (verify.Result, time.Duration) {
		return verify.Equivalent(context.Background(), k.Target, cand, live, verify.DefaultConfig), 0
	}
	v, rep := newTestVerifier(t, k, nil, prove, nil)
	for _, src := range []string{
		"movq rsi, rax\naddq rdi, rax",
		"movq rsi, rcx\nnegq rcx\nmovq rdi, rax\nsubq rcx, rax",
	} {
		if out := v.check(x64.MustParse(src)); out.verdict != verify.Equal {
			t.Fatalf("%q: verdict %v, want equal", src, out.verdict)
		}
	}
	p := rep.Proofs
	if p.SATCalls != 2 || p.Structural != 1 || len(p.Times) != 2 || len(p.Clauses) != 1 {
		t.Fatalf("SATCalls %d, Structural %d, %d time samples, %d clause samples; want 2, 1, 2, 1",
			p.SATCalls, p.Structural, len(p.Times), len(p.Clauses))
	}
}

// TestModelMismatchSurfaced: a symbolic NotEqual whose counterexample does
// not reproduce on the emulator is a model/emulator disagreement — it must
// come back Unknown (inconclusive, memoized), bump the mismatch counter
// and emit EventModelMismatch, never silently refute or pass.
func TestModelMismatchSurfaced(t *testing.T) {
	// A candidate genuinely equal to the target, "refuted" by a stub
	// prover with an arbitrary counterexample: the concrete re-derivation
	// cannot distinguish the programs, which is exactly the mismatch shape.
	cand := x64.MustParse("leaq (rdi,rsi), rax")
	calls := 0
	prove := func(*x64.Program) (verify.Result, time.Duration) {
		calls++
		cex := &verify.Counterexample{Mem: map[uint64]byte{}}
		cex.Regs[x64.RDI] = 3
		cex.Regs[x64.RSI] = 5
		return verify.Result{Verdict: verify.NotEqual, Cex: cex}, 0
	}
	var events []Event
	v, rep := newTestVerifier(t, leanAddKernel(), nil, prove, func(ev Event) {
		events = append(events, ev)
	})

	out := v.check(cand)
	if out.verdict != verify.Unknown || out.cached {
		t.Fatalf("mismatch outcome: verdict %v cached %v, want a fresh Unknown", out.verdict, out.cached)
	}
	if rep.Proofs.ModelMismatches != 1 {
		t.Fatalf("ModelMismatches = %d, want 1", rep.Proofs.ModelMismatches)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == EventModelMismatch {
			found = true
		}
	}
	if !found {
		t.Fatal("no EventModelMismatch emitted")
	}
	// Deterministic disagreement: memoized, the prover does not rerun.
	if out := v.check(cand); !out.cached || out.verdict != verify.Unknown {
		t.Fatalf("second check: verdict %v cached %v, want memoized Unknown", out.verdict, out.cached)
	}
	if calls != 1 {
		t.Fatalf("prover ran %d times, want 1 (mismatch memoizes)", calls)
	}
}

// TestBankReplayAcrossRenamedKernels: a counterexample banked while
// verifying one kernel refutes a candidate of its α-renamed sibling —
// through the canonical register space — without any SAT call.
func TestBankReplayAcrossRenamedKernels(t *testing.T) {
	bank, _ := store.Open("", 0)
	kA, kB := leanAddKernel(), leanAddRenamed()

	// Bank, from kernel A's space, the input that separates 64-bit from
	// 32-bit addition: rdi with a high bit set.
	rng := rand.New(rand.NewSource(3))
	in := kA.Spec.BuildInput(rng)
	testgen.FillUndefined(in, rng)
	in.Regs[x64.RDI] = 1 << 40
	in.Regs[x64.RSI] = 1
	formA := canon.Canonicalize(kA.Target, liveOutFor(kA))
	if err := bank.AddCexs([]store.Cex{canonCex(formA, in)}); err != nil {
		t.Fatal(err)
	}

	// Kernel B's verifier must kill the 32-bit impostor by replay alone.
	prove := func(*x64.Program) (verify.Result, time.Duration) {
		t.Fatal("SAT prover called: the banked counterexample should have killed the candidate")
		return verify.Result{}, 0
	}
	v, rep := newTestVerifier(t, kB, bank, prove, nil)
	impostor := x64.MustParse(`
  movl r8d, ebx
  addl r9d, ebx
`)
	out := v.check(impostor)
	if out.verdict != verify.NotEqual || !out.replayKill || out.cached {
		t.Fatalf("outcome verdict %v replayKill %v cached %v, want a fresh replay-killed NotEqual",
			out.verdict, out.replayKill, out.cached)
	}
	if rep.Proofs.ReplayKills != 1 || rep.Proofs.SATCalls != 0 {
		t.Fatalf("ReplayKills %d SATCalls %d, want 1 and 0", rep.Proofs.ReplayKills, rep.Proofs.SATCalls)
	}
	// The refining testcase must concretely separate B's target from the
	// impostor (the soundness invariant behind replay kills).
	f := cost.New([]testgen.Testcase{out.tc}, kB.Spec.LiveOut, cost.Strict, 0)
	if f.Eval(impostor, cost.MaxBudget).Cost == 0 {
		t.Fatal("replay-kill testcase does not separate the programs")
	}
	if f.Eval(kB.Target, cost.MaxBudget).Cost != 0 {
		t.Fatal("replay-kill testcase rejects the target itself")
	}
}

// TestPoisonedBankEntryDegradesToSAT: bank entries that cannot refute the
// candidate — junk states, foreign kernels' inputs — must fall through to
// the plain SAT call, never produce a wrong kill.
func TestPoisonedBankEntryDegradesToSAT(t *testing.T) {
	bank, _ := store.Open("", 0)
	// Poison: an all-zero state (runs fine on the target, kills nothing)
	// and a junk state with garbage in every register slot.
	junk := store.Cex{}
	for r := range junk.Regs {
		junk.Regs[r] = 0xdeadbeefcafe + uint64(r)
	}
	if err := bank.AddCexs([]store.Cex{{}, junk}); err != nil {
		t.Fatal(err)
	}

	calls := 0
	prove := func(*x64.Program) (verify.Result, time.Duration) {
		calls++
		return verify.Result{Verdict: verify.Equal}, 0
	}
	v, rep := newTestVerifier(t, leanAddKernel(), bank, prove, nil)
	correct := x64.MustParse("leaq (rdi,rsi), rax")
	out := v.check(correct)
	if out.verdict != verify.Equal || out.replayKill {
		t.Fatalf("outcome verdict %v replayKill %v, want SAT Equal", out.verdict, out.replayKill)
	}
	if rep.Proofs.ReplayKills != 0 {
		t.Fatalf("poisoned bank produced %d replay kills on a correct candidate", rep.Proofs.ReplayKills)
	}
	if calls != 1 || rep.Proofs.SATCalls != 1 {
		t.Fatalf("prover calls %d SATCalls %d, want 1 and 1 (degrade to plain SAT)", calls, rep.Proofs.SATCalls)
	}
}

// TestGateDefersBoundedThenProves: the pre-verification gate postpones a
// low-scoring candidate at most maxGateDefers times, after which the proof
// runs regardless — deferral can never become a permanent skip.
func TestGateDefersBoundedThenProves(t *testing.T) {
	calls := 0
	prove := func(*x64.Program) (verify.Result, time.Duration) {
		calls++
		return verify.Result{Verdict: verify.Equal}, 0
	}
	v, rep := newTestVerifier(t, leanAddKernel(), nil, prove, nil)
	// Disjoint opcode set, wrong outputs (zero agreement breadth), and an
	// Eq.13 cost far under the incumbent: scores well below the bar.
	alien := x64.MustParse("xorq rax, rax")

	for i := 0; i < maxGateDefers; i++ {
		if !v.shouldDefer(alien) {
			t.Fatalf("deferral %d: gate let a minimal-score candidate through early", i+1)
		}
	}
	if v.shouldDefer(alien) {
		t.Fatal("gate deferred beyond its bound")
	}
	if rep.Proofs.GateDeferrals != maxGateDefers {
		t.Fatalf("GateDeferrals = %d, want %d", rep.Proofs.GateDeferrals, maxGateDefers)
	}
	// And once a verdict is memoized the gate steps aside entirely.
	if out := v.check(alien); out.verdict != verify.Equal {
		t.Fatalf("post-deferral proof verdict %v, want Equal", out.verdict)
	}
	if v.shouldDefer(alien) {
		t.Fatal("gate deferred a candidate with a concluded verdict")
	}
	// A τ-correct candidate structurally close to the target passes the
	// gate immediately.
	good := x64.MustParse("movq rdi, rax\naddq rsi, rax")
	if v.shouldDefer(good) {
		t.Fatal("gate deferred a high-scoring candidate")
	}
}

// TestValidateSkipsHeadsThatCannotBeatIncumbent: the mid-search hook skips
// a pool head whose modelled cost does not strictly beat the proven
// incumbent, counts the skip, and neither proves it nor consults the
// gate. A proof that lowers the incumbent closes the skip on heads that
// were worth proving before.
func TestValidateSkipsHeadsThatCannotBeatIncumbent(t *testing.T) {
	calls := 0
	prove := func(*x64.Program) (verify.Result, time.Duration) {
		calls++
		return verify.Result{Verdict: verify.Equal}, 0
	}
	v, rep := newTestVerifier(t, leanAddKernel(), nil, prove, nil)
	// A candidate the gate would defer, so a consult behind a skip shows.
	alien := x64.MustParse("xorq rax, rax")
	inc := v.incumbentH
	for _, cst := range []float64{inc, inc + 1} {
		if tcs := v.validate(search.Candidate{Prog: alien, Cost: cst}); tcs != nil {
			t.Fatalf("skipped head at cost %v returned %d testcases", cst, len(tcs))
		}
	}
	if rep.SkippedValidations != 2 || calls != 0 {
		t.Fatalf("SkippedValidations %d with %d proofs, want 2 skips and no proof",
			rep.SkippedValidations, calls)
	}
	if rep.Proofs.GateDeferrals != 0 || len(v.defers) != 0 {
		t.Fatalf("gate consulted behind a skip: %d deferrals", rep.Proofs.GateDeferrals)
	}

	// Against a costlier incumbent, a cheaper head that passes the gate is
	// proven, and its Equal lowers the incumbent to the head's Eq.13 cost.
	v.incumbentH = 2 * inc
	swapped := x64.MustParse("movq rsi, rax\naddq rdi, rax")
	v.validate(search.Candidate{Prog: swapped, Cost: inc})
	if calls != 1 || v.incumbentH != perf.H(swapped) || rep.SkippedValidations != 2 {
		t.Fatalf("%d proofs, incumbent %v, %d skips; want 1 proof, incumbent %v, 2 skips",
			calls, v.incumbentH, rep.SkippedValidations, perf.H(swapped))
	}
	v.validate(search.Candidate{Prog: x64.MustParse("leaq (rdi,rsi), rax"), Cost: v.incumbentH})
	if calls != 1 || rep.SkippedValidations != 3 {
		t.Fatalf("head at the lowered incumbent: %d proofs, %d skips; want 1 and 3",
			calls, rep.SkippedValidations)
	}
}

// TestValidateDefersBoundedThenRefines: behind the skip, the gate defers a
// low-scoring head at most maxGateDefers times; the proof then runs, and
// its genuine counterexample refines τ, grows the shared profile to
// len(τ), emits a refinement event and comes back for broadcast.
func TestValidateDefersBoundedThenRefines(t *testing.T) {
	calls := 0
	prove := func(*x64.Program) (verify.Result, time.Duration) {
		calls++
		cex := &verify.Counterexample{Mem: map[uint64]byte{}}
		cex.Regs[x64.RDI] = 3
		cex.Regs[x64.RSI] = 5
		return verify.Result{Verdict: verify.NotEqual, Cex: cex}, 0
	}
	var refinements []Event
	v, rep := newTestVerifier(t, leanAddKernel(), nil, prove, func(ev Event) {
		if ev.Kind == EventRefinement {
			refinements = append(refinements, ev)
		}
	})
	head := search.Candidate{Prog: x64.MustParse("xorq rax, rax"), Cost: 0}
	n := len(v.tests)
	for i := 1; i <= maxGateDefers; i++ {
		if tcs := v.validate(head); tcs != nil || calls != 0 {
			t.Fatalf("deferral %d: %d testcases, %d proofs", i, len(tcs), calls)
		}
		if rep.Proofs.GateDeferrals != i {
			t.Fatalf("GateDeferrals %d after %d deferrals", rep.Proofs.GateDeferrals, i)
		}
	}
	tcs := v.validate(head)
	if calls != 1 || len(tcs) != 1 {
		t.Fatalf("after the deferral bound: %d proofs, %d testcases; want 1 and 1", calls, len(tcs))
	}
	if rep.Proofs.GateDeferrals != maxGateDefers || rep.SkippedValidations != 0 {
		t.Fatalf("GateDeferrals %d, SkippedValidations %d; want %d and 0",
			rep.Proofs.GateDeferrals, rep.SkippedValidations, maxGateDefers)
	}
	if len(v.tests) != n+1 || rep.Refinements != 1 {
		t.Fatalf("τ %d → %d with %d refinements, want one fold", n, len(v.tests), rep.Refinements)
	}
	if got := len(v.prof.Counts()); got != len(v.tests) {
		t.Fatalf("shared profile covers %d testcases, τ holds %d", got, len(v.tests))
	}
	if len(refinements) != 1 || refinements[0].Tests != len(v.tests) {
		t.Fatalf("refinement events %+v, want one reporting %d testcases", refinements, len(v.tests))
	}
	// Concluded: the memo answers, nothing is broadcast twice.
	if tcs := v.validate(head); tcs != nil || calls != 1 {
		t.Fatalf("concluded head re-proved or re-broadcast: %d testcases, %d proofs", len(tcs), calls)
	}
}
