package verify_test

// Structural proofs: the bit-vector builder folds an -O0 program's stack
// round trips and zero-extension wrappers away, and Equivalent drops every
// live output whose two terms match up to commutative operand order. These
// tests pin queries that close without a SAT call, check that a near
// sibling still reaches the solver and is refuted, and hold every
// structural verdict on the benchmark kernels to the emulator.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// p19Rewrite is p19's exchange of two bitfields in registers only, with
// both outer xors' operands in the opposite order to the -O0 target's.
const p19Rewrite = `
  movl esi, ecx
  movl edi, eax
  shrl cl, eax
  xorl edi, eax
  andl edx, eax
  movl eax, edx
  shll cl, edx
  xorl edi, eax
  xorl edx, eax
`

func TestP19RegisterRewriteStructural(t *testing.T) {
	k, err := kernels.ByName("p19")
	if err != nil {
		t.Fatal(err)
	}
	rw := x64.MustParse(p19Rewrite)
	res := verify.Equivalent(context.Background(), k.Target, rw, kernelLive(k), verify.DefaultConfig)
	if res.Verdict != verify.Equal || res.Reason != verify.ReasonStructural || res.Clauses != 0 {
		t.Fatalf("p19 vs register rewrite: %v (%s), %d clauses; want equal (%s), 0 clauses",
			res.Verdict, res.Reason, res.Clauses, verify.ReasonStructural)
	}
	if !agreesOnTestcases(t, k, rw) {
		t.Fatalf("register rewrite disagrees with the p19 target on the emulator")
	}
}

// TestP19MutatedSiblingRefuted: the rewrite with its final xor turned into
// an or differs wherever both bitfields overlap; the query must reach the
// solver and return a counterexample that diverges on the emulator.
func TestP19MutatedSiblingRefuted(t *testing.T) {
	k, err := kernels.ByName("p19")
	if err != nil {
		t.Fatal(err)
	}
	rw := x64.MustParse(p19Rewrite)
	last := &rw.Insts[len(rw.Insts)-1]
	last.Op = x64.OR
	if err := last.Validate(); err != nil {
		t.Fatal(err)
	}
	res := verify.Equivalent(context.Background(), k.Target, rw, kernelLive(k), verify.DefaultConfig)
	if res.Verdict != verify.NotEqual || res.Cex == nil || res.Clauses == 0 {
		t.Fatalf("mutated p19 rewrite: %v (%s), %d clauses; want a SAT-found not-equal",
			res.Verdict, res.Reason, res.Clauses)
	}
	// The counterexample's registers on a runnable state: the stack
	// pointer and the pointer registers keep their testcase values.
	rng := rand.New(rand.NewSource(1))
	in := k.Spec.BuildInput(rng)
	testgen.FillUndefined(in, rng)
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if r != x64.RSP && !k.Pointers.Has(r) {
			in.Regs[r] = res.Cex.Regs[r]
		}
	}
	tc, err := testgen.FromInput(emu.New(), k.Target, k.Spec, in)
	if err != nil {
		t.Fatalf("counterexample does not run on the target: %v", err)
	}
	f := cost.New([]testgen.Testcase{tc}, k.Spec.LiveOut, cost.Strict, 0)
	if got := f.Eval(rw, cost.MaxBudget); got.Cost == 0 {
		t.Fatalf("counterexample rdi=%#x rsi=%#x rdx=%#x does not diverge on the emulator",
			res.Cex.Regs[x64.RDI], res.Cex.Regs[x64.RSI], res.Cex.Regs[x64.RDX])
	}
}

// TestStructuralVerdictsAgreeWithEmulator proves every kernel's target
// against its gcc -O3 version with a formula cap of one term, so only the
// queries that close without SAT conclude, and checks each of those on 64
// random states.
func TestStructuralVerdictsAgreeWithEmulator(t *testing.T) {
	cfg := verify.Config{Budget: 1, MaxTerms: 1}
	structural := 0
	for _, k := range kernels.All() {
		res := verify.Equivalent(context.Background(), k.Target, k.GccO3, kernelLive(k), cfg)
		if res.Reason != verify.ReasonStructural {
			continue
		}
		structural++
		if res.Verdict != verify.Equal || res.Clauses != 0 {
			t.Fatalf("%s: structural verdict %v with %d clauses", k.Name, res.Verdict, res.Clauses)
		}
		if !agreesOnTestcases(t, k, k.GccO3) {
			t.Fatalf("%s: structural Equal but gcc -O3 disagrees with the target on the emulator", k.Name)
		}
	}
	if structural == 0 {
		t.Fatalf("no kernel's gcc -O3 proof closed structurally")
	}
}

// agreesOnTestcases runs p against 64 random testcases of k's target.
func agreesOnTestcases(t *testing.T, k kernels.Bench, p *x64.Program) bool {
	t.Helper()
	tests, err := testgen.Generate(k.Target, k.Spec, 64, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("%s: testgen: %v", k.Name, err)
	}
	return cost.New(tests, k.Spec.LiveOut, cost.Strict, 0).Eval(p, cost.MaxBudget).Cost == 0
}
