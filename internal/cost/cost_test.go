package cost

import (
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// figure6Testcase reconstructs the worked example of Figure 6: a machine
// whose live output is the low byte of RAX (al), with target value 0b1111.
func figure6Testcase() ([]testgen.Testcase, testgen.LiveSet) {
	in := &emu.Snapshot{FlagsDef: x64.AllFlags}
	in.RegDef = 0xffff
	tc := testgen.Testcase{In: in, WantGPR: []uint64{0x0f}}
	live := testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 1}}}
	return []testgen.Testcase{tc}, live
}

// figure6Rewrite produces the rewrite of Figure 6: the correct value lands
// in dl while al is entirely wrong; bl and cl hold near misses.
var figure6Rewrite = x64.MustParse(`
  movb 0, al
  movb 8, bl
  movb 12, cl
  movb 15, dl
`)

func TestFigure6StrictVsImproved(t *testing.T) {
	tests, live := figure6Testcase()

	strict := New(tests, live, Strict, 0)
	if got := strict.Eval(figure6Rewrite, MaxBudget).Cost; got != 4 {
		t.Errorf("strict cost = %v, want 4 (all bits of al wrong)", got)
	}

	improved := New(tests, live, Improved, 0)
	improved.W.Misplace = 1 // the figure's arithmetic uses wm = 1
	if got := improved.Eval(figure6Rewrite, MaxBudget).Cost; got != 1 {
		t.Errorf("improved cost = %v, want min(4, 3+1, 2+1, 0+1) = 1", got)
	}

	paper := New(tests, live, Improved, 0) // wm = 3 per Figure 11
	if got := paper.Eval(figure6Rewrite, MaxBudget).Cost; got != 3 {
		t.Errorf("improved cost with wm=3 = %v, want 3", got)
	}
}

func TestZeroCostForTarget(t *testing.T) {
	target := x64.MustParse(`
  movq rdi, rax
  addq rsi, rax
`)
	spec := testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x10000)
			a.SetReg(x64.RDI, rng.Uint64())
			a.SetReg(x64.RSI, rng.Uint64())
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}},
	}
	tests, err := testgen.Generate(target, spec, 32, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	f := New(tests, spec.LiveOut, Improved, 0)
	if got := f.Eval(target, MaxBudget); got.Cost != 0 || got.EqCost != 0 {
		t.Fatalf("target against itself costs %v, want 0", got.Cost)
	}

	// A semantically equal but syntactically different rewrite also
	// reaches zero.
	rewrite := x64.MustParse(`
  leaq (rdi,rsi), rax
`)
	if got := f.Eval(rewrite, MaxBudget); got.Cost != 0 {
		t.Fatalf("lea rewrite costs %v, want 0", got.Cost)
	}

	// A wrong rewrite costs more.
	wrong := x64.MustParse(`
  movq rdi, rax
  subq rsi, rax
`)
	if got := f.Eval(wrong, MaxBudget); got.Cost == 0 {
		t.Fatal("wrong rewrite costs 0")
	}
}

func TestErrTermCountsUndefinedReads(t *testing.T) {
	tests, live := figure6Testcase()
	// Mark every register undefined in the input.
	tests[0].In.RegDef = 0
	f := New(tests, live, Strict, 0)
	// This rewrite reads undefined rbx once per testcase.
	p := x64.MustParse("movq rbx, rax")
	got := f.Eval(p, MaxBudget)
	// Cost includes wur * 1 undef plus the Hamming distance of al.
	if got.Cost < f.W.UndefRead {
		t.Fatalf("cost %v must include undef penalty %v", got.Cost, f.W.UndefRead)
	}
}

func TestEarlyTermination(t *testing.T) {
	target := x64.MustParse("movq rdi, rax")
	spec := testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x10000)
			a.SetReg(x64.RDI, rng.Uint64())
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}},
	}
	tests, err := testgen.Generate(target, spec, 32, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	f := New(tests, spec.LiveOut, Strict, 0)
	// A rewrite that leaves rax at an arbitrary value scores ~32 bits per
	// testcase; with a budget of 50 only a couple of testcases run.
	bad := x64.MustParse("movq 0, rax")
	res := f.Eval(bad, 50)
	if !res.Early {
		t.Fatal("expected early termination")
	}
	if res.TestsRun >= len(tests) {
		t.Fatalf("TestsRun = %d, want < %d", res.TestsRun, len(tests))
	}
	// Without a budget all testcases run.
	res = f.Eval(bad, MaxBudget)
	if res.Early || res.TestsRun != len(tests) {
		t.Fatalf("full eval: %+v", res)
	}
}

// TestInterpretedEvalFeedsSharedProfile: the interpreted path's early
// terminations must warm the shared testcase profile (and this Fn's own
// counters) exactly like the compiled path's, so interpreted runs
// (mcmc.Sampler.Interpreted) are not invisible to sibling chains.
func TestInterpretedEvalFeedsSharedProfile(t *testing.T) {
	target := x64.MustParse("movq rdi, rax")
	spec := testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x10000)
			a.SetReg(x64.RDI, rng.Uint64())
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}},
	}
	tests, err := testgen.Generate(target, spec, 8, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	prof := NewSharedProfile(len(tests))
	f := New(tests, spec.LiveOut, Strict, 0)
	f.Shared = prof
	bad := x64.MustParse("movq 0, rax")
	for i := 0; i < 5; i++ {
		if res := f.Eval(bad, 50); !res.Early {
			t.Fatal("expected early termination")
		}
	}
	order := prof.Order(len(tests))
	var total int64
	for i := range prof.counts {
		total += prof.counts[i].Load()
	}
	if total != 5 {
		t.Fatalf("shared profile recorded %d early terminations from the interpreted path, want 5", total)
	}
	// The terminating testcase (index 0: strict order, first over budget)
	// must now lead a warm-started order.
	if prof.counts[order[0]].Load() == 0 {
		t.Fatalf("warm-started order %v does not front-load the discriminating testcase", order)
	}

	// A sibling compiled-path Fn warm-starts from what the interpreted
	// chain learned.
	sib := New(tests, spec.LiveOut, Strict, 0)
	sib.Shared = prof
	sib.EvalCompiled(sib.Compile(bad.Clone().PadTo(4)), MaxBudget)
	if sib.order[0] != order[0] {
		t.Fatalf("sibling order %v ignores the interpreted chain's profile %v", sib.order, order)
	}
}

func TestPerfTermOrdersPrograms(t *testing.T) {
	tests, live := figure6Testcase()
	f := New(tests, live, Improved, 1)
	short := x64.MustParse("movb 15, al")
	long := x64.MustParse(`
  movb 0, al
  movb 15, bl
  movb bl, al
`)
	cs := f.Eval(short, MaxBudget).Cost
	cl := f.Eval(long, MaxBudget).Cost
	if cs >= cl {
		t.Fatalf("short program must cost less: %v vs %v", cs, cl)
	}
	// Both are correct, so with PerfWeight 0 they tie at zero.
	g := New(tests, live, Improved, 0)
	if g.Eval(short, MaxBudget).Cost != 0 || g.Eval(long, MaxBudget).Cost != 0 {
		t.Fatal("eq-only cost of correct rewrites must be 0")
	}
}

func TestMemCostStrictAndImproved(t *testing.T) {
	// Target writes 0xff to [rdi]; rewrite writes it to [rdi+1] instead.
	target := x64.MustParse("movb 0xff, (rdi)\nmovb 0, 1(rdi)")
	spec := testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x20000)
			base := a.Alloc(2, func(int) byte { return 0 })
			a.SetReg(x64.RDI, base)
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{LiveSegs: []int{0}},
	}
	tests, err := testgen.Generate(target, spec, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	swapped := x64.MustParse("movb 0, (rdi)\nmovb 0xff, 1(rdi)")

	strict := New(tests, spec.LiveOut, Strict, 0)
	improved := New(tests, spec.LiveOut, Improved, 0)
	cs := strict.Eval(swapped, MaxBudget).Cost
	ci := improved.Eval(swapped, MaxBudget).Cost
	if cs <= ci {
		t.Fatalf("improved (%v) must beat strict (%v) for misplaced bytes", ci, cs)
	}
	if ci != float64(len(tests))*2*improved.W.Misplace {
		t.Fatalf("improved cost = %v, want 2*wm per testcase", ci)
	}
}

func TestLiveFlagsCost(t *testing.T) {
	target := x64.MustParse("cmpq rsi, rdi")
	spec := testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x10000)
			a.SetReg(x64.RDI, uint64(rng.Intn(4)))
			a.SetReg(x64.RSI, uint64(rng.Intn(4)))
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{Flags: x64.ZF},
	}
	tests, err := testgen.Generate(target, spec, 16, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	f := New(tests, spec.LiveOut, Strict, 0)
	if got := f.Eval(target, MaxBudget).Cost; got != 0 {
		t.Fatalf("target flag cost = %v", got)
	}
	// An inverted comparison disagrees on ZF whenever rdi != rsi.
	inverted := x64.MustParse("cmpq rdi, rdi")
	if got := f.Eval(inverted, MaxBudget).Cost; got == 0 {
		t.Fatal("always-equal comparison must cost > 0")
	}
}

// compiledSpec builds a two-input register kernel spec for the compiled
// pipeline tests.
func compiledSpec() testgen.Spec {
	return testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x10000)
			a.SetReg(x64.RDI, rng.Uint64())
			a.SetReg(x64.RSI, rng.Uint64())
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}},
	}
}

// TestEvalCompiledMatchesEval pins the compiled scoring path against the
// interpreted one: same cost, same eq term, bit for bit (both run the
// testcases in identity order when nothing is rejected).
func TestEvalCompiledMatchesEval(t *testing.T) {
	target := x64.MustParse("movq rdi, rax\nimulq rsi, rax")
	spec := compiledSpec()
	tests, err := testgen.Generate(target, spec, 32, rand.New(rand.NewSource(71)))
	if err != nil {
		t.Fatal(err)
	}
	candidates := []*x64.Program{
		target,
		x64.MustParse("movq rsi, rax\nimulq rdi, rax"),
		x64.MustParse("movq rdi, rax"),
		x64.MustParse("xorq rax, rax"),
		x64.MustParse("movq rbx, rax"),   // undef read
		x64.MustParse("movq (rdi), rax"), // sandbox fault on register inputs
	}
	for _, p := range candidates {
		p = p.PadTo(14)
		fi := New(tests, spec.LiveOut, Improved, 1)
		fc := New(tests, spec.LiveOut, Improved, 1)
		want := fi.Eval(p, MaxBudget)
		got := fc.EvalCompiled(fc.Compile(p), MaxBudget)
		if want != got {
			t.Errorf("compiled eval = %+v, interpreted = %+v for\n%s", got, want, p)
		}
	}
}

// TestAdaptiveOrderFrontloadsDiscriminatingTests: a testcase that keeps
// triggering early termination must migrate to the front of the evaluation
// order, shrinking TestsRun for subsequent rejections.
func TestAdaptiveOrderFrontloadsDiscriminatingTests(t *testing.T) {
	live := testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}}
	// 32 testcases: rdi = 5 everywhere except the last, so the wrong
	// rewrite "movq 5, rax" is distinguished only by testcase 31.
	var tests []testgen.Testcase
	for i := 0; i < 32; i++ {
		in := &emu.Snapshot{FlagsDef: x64.AllFlags, RegDef: 0xffff}
		v := uint64(5)
		if i == 31 {
			v = ^uint64(0)
		}
		in.Regs[x64.RDI] = v
		tests = append(tests, testgen.Testcase{In: in, WantGPR: []uint64{v}})
	}
	f := New(tests, live, Strict, 0)
	wrong := x64.MustParse("movq 5, rax").PadTo(8)
	c := f.Compile(wrong)

	// Before any adaptation the discriminating testcase is last: a tight
	// budget makes every evaluation walk all 32 testcases.
	first := f.EvalCompiled(c, 1)
	if !first.Early || first.TestsRun != 32 {
		t.Fatalf("expected full-order rejection over 32 tests, got %+v", first)
	}
	for i := 0; i < 2*reorderEvery; i++ {
		f.EvalCompiled(c, 1)
	}
	after := f.EvalCompiled(c, 1)
	if !after.Early || after.TestsRun != 1 {
		t.Fatalf("adaptive order did not frontload the discriminating testcase: %+v", after)
	}
	// The order must remain a permutation of the testcase indices.
	seen := map[int]bool{}
	for _, ti := range f.order {
		if ti < 0 || ti >= len(tests) || seen[ti] {
			t.Fatalf("order is not a permutation: %v", f.order)
		}
		seen[ti] = true
	}
	// And a correct rewrite still scores zero over the permuted order.
	right := x64.MustParse("movq rdi, rax").PadTo(8)
	if res := f.EvalCompiled(f.Compile(right), MaxBudget); res.Cost != 0 || res.TestsRun != 32 {
		t.Fatalf("reordered evaluation broke a correct rewrite: %+v", res)
	}
}

// sharedFixture builds the 32-testcase set of the adaptive-order test:
// only testcase 31 distinguishes the wrong rewrite "movq 5, rax".
func sharedFixture() ([]testgen.Testcase, testgen.LiveSet) {
	live := testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}}
	var tests []testgen.Testcase
	for i := 0; i < 32; i++ {
		in := &emu.Snapshot{FlagsDef: x64.AllFlags, RegDef: 0xffff}
		v := uint64(5)
		if i == 31 {
			v = ^uint64(0)
		}
		in.Regs[x64.RDI] = v
		tests = append(tests, testgen.Testcase{In: in, WantGPR: []uint64{v}})
	}
	return tests, live
}

// TestSharedProfileWarmStartsSiblings: a chain that learned which testcase
// discriminates feeds the shared profile, and a freshly created sibling Fn
// starts with that testcase first instead of re-learning the order.
func TestSharedProfileWarmStartsSiblings(t *testing.T) {
	tests, live := sharedFixture()
	prof := NewSharedProfile(len(tests))
	wrong := x64.MustParse("movq 5, rax").PadTo(8)

	teacher := New(tests, live, Strict, 0)
	teacher.Shared = prof
	c := teacher.Compile(wrong)
	for i := 0; i < 2*reorderEvery; i++ {
		teacher.EvalCompiled(c, 1)
	}

	// A cold sibling without the profile walks all 32 testcases...
	cold := New(tests, live, Strict, 0)
	if res := cold.EvalCompiled(cold.Compile(wrong), 1); res.TestsRun != 32 {
		t.Fatalf("cold chain expected full scan, got %+v", res)
	}
	// ...while a profile-warmed sibling rejects after one.
	warm := New(tests, live, Strict, 0)
	warm.Shared = prof
	if res := warm.EvalCompiled(warm.Compile(wrong), 1); res.TestsRun != 1 {
		t.Fatalf("warm-started chain expected 1-test rejection, got %+v", res)
	}
	// The warm order is still a permutation and still scores a correct
	// rewrite at zero.
	right := x64.MustParse("movq rdi, rax").PadTo(8)
	if res := warm.EvalCompiled(warm.Compile(right), MaxBudget); res.Cost != 0 {
		t.Fatalf("warm order broke a correct rewrite: %+v", res)
	}
}

// TestSharedProfileOrderAndGrow pins Order determinism (stable ties in
// index order) and Grow preserving counts.
func TestSharedProfileOrderAndGrow(t *testing.T) {
	p := NewSharedProfile(4)
	p.Note(2)
	p.Note(2)
	p.Note(1)
	if got := p.Order(4); got[0] != 2 || got[1] != 1 || got[2] != 0 || got[3] != 3 {
		t.Fatalf("order = %v, want [2 1 0 3]", got)
	}
	p.Grow(6)
	p.Note(5)
	if got := p.Order(6); got[0] != 2 || got[1] != 1 || got[2] != 5 {
		t.Fatalf("order after grow = %v, want counts preserved and index 5 noted", got)
	}
	// Order over more testcases than the profile has counted treats the
	// excess as zero.
	if got := p.Order(8); len(got) != 8 {
		t.Fatalf("order length = %d, want 8", len(got))
	}
	// Notes beyond the profile's size are dropped, not panics.
	p.Note(100)
}

// TestAddTestEvaluatesFirst: a counterexample folded in mid-search keeps
// the learned order and evaluates first.
func TestAddTestEvaluatesFirst(t *testing.T) {
	tests, live := sharedFixture()
	f := New(tests[:31:31], live, Strict, 0) // drop the discriminating testcase
	wrong := x64.MustParse("movq 5, rax").PadTo(8)
	c := f.Compile(wrong)
	if res := f.EvalCompiled(c, MaxBudget); res.Cost != 0 {
		t.Fatalf("under-constrained τ must accept the wrong rewrite, got %+v", res)
	}
	f.AddTest(tests[31]) // the counterexample arrives
	res := f.EvalCompiled(c, 1)
	if !res.Early || res.TestsRun != 1 {
		t.Fatalf("folded counterexample must evaluate first: %+v", res)
	}
	if len(f.Tests) != 32 || len(f.order) != 32 || len(f.ms) != 32 {
		t.Fatalf("compiled state not extended: %d tests, %d order, %d machines",
			len(f.Tests), len(f.order), len(f.ms))
	}
	right := x64.MustParse("movq rdi, rax").PadTo(8)
	if res := f.EvalCompiled(f.Compile(right), MaxBudget); res.Cost != 0 || res.TestsRun != 32 {
		t.Fatalf("extended order broke a correct rewrite: %+v", res)
	}
}

// TestSharedProfileSerialisationRoundTrip: a profile rebuilt from its
// Counts snapshot must reproduce the same warm-start testcase order in
// another process — the property the rewrite store relies on when it
// persists learned rejection profiles.
func TestSharedProfileSerialisationRoundTrip(t *testing.T) {
	prof := NewSharedProfile(10)
	// An uneven, tie-containing pattern: ties must keep natural order on
	// both sides of the round trip (Order is a stable sort).
	hits := []int{3, 3, 3, 7, 7, 1, 9, 9, 9, 9, 5, 5}
	for _, i := range hits {
		prof.Note(i)
	}
	counts := prof.Counts()
	if len(counts) != 10 {
		t.Fatalf("Counts length %d, want 10", len(counts))
	}

	restored := NewSharedProfileFromCounts(counts, 10)
	want := prof.Order(10)
	got := restored.Order(10)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored order %v != original %v", got, want)
		}
	}

	// Restoring into a larger testcase set: the extra testcases count as
	// zero and keep natural order behind the learned ones.
	grown := NewSharedProfileFromCounts(counts, 14)
	order := grown.Order(14)
	if order[0] != 9 || order[1] != 3 || order[2] != 5 {
		t.Fatalf("grown order lost learned prefix: %v", order)
	}
	// A restored profile stays live: further Notes keep accumulating.
	for i := 0; i < 8; i++ {
		grown.Note(12)
	}
	if got := grown.Order(14)[0]; got != 12 {
		t.Fatalf("restored profile ignored new notes: first=%d", got)
	}
}
