package stoke

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// addKernel is a minimal two-input kernel: rax := rdi + rsi, with an -O0
// flavoured target.
func addKernel() Kernel {
	return Kernel{
		Name: "add",
		Target: x64.MustParse(`
  movq rdi, -8(rsp)
  movq rsi, -16(rsp)
  movq -8(rsp), rax
  addq -16(rsp), rax
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

func TestOptimizeEndToEnd(t *testing.T) {
	rep, err := Optimize(context.Background(), addKernel(),
		WithSeed(11),
		WithChains(2, 2),
		WithBudgets(60000, 60000),
		WithEll(12))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rewrite == nil {
		t.Fatal("no rewrite")
	}
	if rep.Partial {
		t.Error("uncancelled run must not be partial")
	}
	if rep.Verdict == verify.NotEqual {
		t.Fatalf("final rewrite failed validation:\n%s", rep.Rewrite)
	}
	// The rewrite must be at least as fast as the stack-heavy target and
	// (given the tiny kernel) strictly shorter.
	if rep.Rewrite.InstCount() >= rep.Target.InstCount() {
		t.Errorf("rewrite has %d insts, target %d — no optimization found",
			rep.Rewrite.InstCount(), rep.Target.InstCount())
	}
	if rep.Speedup() < 1 {
		t.Errorf("speedup %.2f < 1", rep.Speedup())
	}
	t.Logf("add: %d -> %d insts, %.2fx, verdict %v, synthesis=%v",
		rep.Target.InstCount(), rep.Rewrite.InstCount(), rep.Speedup(),
		rep.Verdict, rep.SynthesisSucceeded)
	t.Logf("rewrite:\n%s", rep.Rewrite)
}

func TestOptimizeIsDeterministic(t *testing.T) {
	// Chains derive their generators from the seed and chain index, and
	// results are collected by index — so the outcome is independent of
	// worker-pool scheduling. Use pools of different sizes to prove it.
	opts := []Option{
		WithSeed(13),
		WithChains(1, 1),
		WithBudgets(5000, 5000),
		WithEll(10),
	}
	e1 := NewEngine(EngineConfig{Workers: 1})
	defer e1.Close()
	e4 := NewEngine(EngineConfig{Workers: 4})
	defer e4.Close()

	a, err := e1.Optimize(context.Background(), addKernel(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e4.Optimize(context.Background(), addKernel(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rewrite.String() != b.Rewrite.String() {
		t.Fatalf("same seed, different rewrites:\n%s\nvs\n%s", a.Rewrite, b.Rewrite)
	}
}

// TestCexRefinement checks the §4.1 counterexample path: the validator's
// counterexample against a subtly wrong rewrite must convert into a
// testcase that concretely separates the programs.
func TestCexRefinement(t *testing.T) {
	k := addKernel()
	rng := rand.New(rand.NewSource(17))

	// A near-miss: rax = rdi + rsi works except when the low 16 bits of
	// rsi cause a borrow pattern (addw only adds the low word).
	wrong := x64.MustParse(`
  movq rdi, rax
  addw si, ax
`).PadTo(12)
	live := verify.LiveOut{GPRs: k.Spec.LiveOut.GPRs}
	res := verify.Equivalent(context.Background(), k.Target, wrong, live, verify.DefaultConfig)
	if res.Verdict != verify.NotEqual || res.Cex == nil {
		t.Fatalf("validator must refute the word-add: %v", res.Verdict)
	}
	m := emu.New()
	tc, genuine := cexTestcase(k, m, rng, res.Cex, wrong)
	if !genuine {
		t.Fatal("counterexample testcase does not separate the programs")
	}
	f := cost.New([]testgen.Testcase{tc}, k.Spec.LiveOut, cost.Strict, 0)
	if f.Eval(wrong, cost.MaxBudget).Cost == 0 {
		t.Fatal("refined testcase scored the wrong rewrite at zero")
	}
	if f.Eval(k.Target, cost.MaxBudget).Cost != 0 {
		t.Fatal("refined testcase must accept the target itself")
	}
}

// TestRefinementDropsBuggyRewrite runs the whole pipeline on a kernel whose
// cheapest near-rewrites are buggy under rare inputs, checking the final
// rewrite never fails validation.
func TestRefinementDropsBuggyRewrite(t *testing.T) {
	rep, err := Optimize(context.Background(), addKernel(),
		WithSeed(23),
		WithChains(1, 2),
		WithBudgets(10000, 40000),
		WithEll(10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict == verify.NotEqual {
		t.Fatalf("pipeline returned an unvalidated rewrite:\n%s", rep.Rewrite)
	}
	t.Logf("verdict %v after %d refinements", rep.Verdict, rep.Refinements)
}

// TestConcurrentOptimize checks that one Engine safely serves simultaneous
// Optimize calls: all runs complete, independently, on the shared pool.
func TestConcurrentOptimize(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 4})
	defer e.Close()

	const runs = 4
	reports := make([]*Report, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = e.Optimize(context.Background(), addKernel(),
				WithSeed(int64(100+i)),
				WithChains(2, 2),
				WithBudgets(8000, 8000),
				WithEll(10))
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if reports[i] == nil || reports[i].Rewrite == nil {
			t.Fatalf("run %d: missing report", i)
		}
		if reports[i].Verdict == verify.NotEqual {
			t.Errorf("run %d: unvalidated rewrite", i)
		}
	}
}

// TestOptimizeAllInterleaves runs two kernels through one OptimizeAll call
// and asserts their chains actually interleave on the shared pool: events
// from the second kernel arrive between the first kernel's first and last
// events.
func TestOptimizeAllInterleaves(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2})
	defer e.Close()

	var mu sync.Mutex
	var order []string // kernel name per observed event

	k1 := addKernel()
	k1.Name = "add-a"
	k2 := addKernel()
	k2.Name = "add-b"

	reports, err := e.OptimizeAll(context.Background(), []Kernel{k1, k2},
		WithSeed(5),
		WithChains(4, 4),
		WithBudgets(30000, 30000),
		WithEll(10),
		WithObserver(func(ev Event) {
			mu.Lock()
			order = append(order, ev.Kernel)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("want 2 reports, got %d", len(reports))
	}
	for i, rep := range reports {
		if rep == nil || rep.Rewrite == nil {
			t.Fatalf("kernel %d: missing report", i)
		}
	}
	if reports[0].Kernel != "add-a" || reports[1].Kernel != "add-b" {
		t.Fatalf("reports out of order: %s, %s", reports[0].Kernel, reports[1].Kernel)
	}

	// Interleaving: some add-b event must land strictly between the first
	// and last add-a events (and vice versa, by symmetry of the check).
	first, last := -1, -1
	for i, name := range order {
		if name == "add-a" {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	interleaved := false
	for i := first + 1; i < last; i++ {
		if order[i] == "add-b" {
			interleaved = true
			break
		}
	}
	if !interleaved {
		t.Errorf("kernels did not interleave on the shared pool (%d events)", len(order))
	}
}
