package stoke

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/emu"
	"repro/internal/perf"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// renamedAddKernel is addKernel under the α-renaming rdi→r8, rsi→r9,
// rax→rbx: the same kernel to the canonicaliser, a different program
// textually.
func renamedAddKernel() Kernel {
	return Kernel{
		Name: "add-renamed",
		Target: x64.MustParse(`
  movq r8, -8(rsp)
  movq r9, -16(rsp)
  movq -8(rsp), rbx
  addq -16(rsp), rbx
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

// TestCacheHitEndToEnd is the tentpole's acceptance test: the same kernel
// submitted twice hits the store on the second request (served without
// launching a search), and an α-renamed variant hits too.
func TestCacheHitEndToEnd(t *testing.T) {
	s, err := store.Open(filepath.Join(t.TempDir(), "rewrites.jsonl"), 64)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{Workers: 4})
	defer e.Close()
	opts := []Option{
		WithRewriteStore(s),
		WithSeed(11),
		WithChains(2, 2),
		WithBudgets(60000, 60000),
		WithEll(12),
	}

	// First submission: cold store, a real search runs and writes back.
	rep1, err := e.Optimize(context.Background(), addKernel(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}
	if rep1.Fingerprint == "" {
		t.Fatal("store-backed run must report its fingerprint")
	}
	if got := e.SearchesLaunched(); got != 1 {
		t.Fatalf("searches launched %d, want 1", got)
	}
	if s.Len() == 0 {
		t.Fatal("verified run was not written back to the store")
	}

	// Second submission of the identical kernel: served from the store.
	rep2, err := e.Optimize(context.Background(), addKernel(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.CacheHit {
		t.Fatal("identical resubmission must hit the store")
	}
	if got := e.SearchesLaunched(); got != 1 {
		t.Fatalf("cache hit launched a search: count %d, want 1", got)
	}
	if rep2.Verdict != verify.Equal {
		t.Fatalf("served verdict %v, want equal", rep2.Verdict)
	}
	if rep2.Fingerprint != rep1.Fingerprint {
		t.Fatalf("fingerprints differ across identical submissions")
	}
	if rep2.Rewrite.String() != rep1.Rewrite.String() {
		t.Fatalf("served rewrite differs from the proven one:\n%s\nvs\n%s",
			rep2.Rewrite, rep1.Rewrite)
	}

	// α-renamed variant: same fingerprint class, exact-key hit, rewrite
	// mapped back into ITS register space and proven there.
	k3 := renamedAddKernel()
	rep3, err := e.Optimize(context.Background(), k3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.CacheHit {
		t.Fatal("α-renamed variant must hit the store")
	}
	if got := e.SearchesLaunched(); got != 1 {
		t.Fatalf("renamed hit launched a search: count %d, want 1", got)
	}
	if rep3.Fingerprint != rep1.Fingerprint {
		t.Fatal("α-equivalent kernels must share a fingerprint")
	}
	// The served rewrite must be correct in the renamed space: prove it.
	res := verify.Equivalent(context.Background(), k3.Target, rep3.Rewrite,
		liveOutFor(k3), verify.DefaultConfig)
	if res.Verdict != verify.Equal {
		t.Fatalf("served renamed rewrite failed validation (%v):\n%s",
			res.Verdict, rep3.Rewrite)
	}
}

// TestCacheOnly: the synchronous probe path answers hits and fails misses
// with ErrCacheMiss without ever searching.
func TestCacheOnly(t *testing.T) {
	s, _ := store.Open("", 16)
	e := NewEngine(EngineConfig{Workers: 2})
	defer e.Close()

	_, err := e.Optimize(context.Background(), addKernel(),
		WithRewriteStore(s), WithCacheOnly())
	if !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("cold cache-only probe: err %v, want ErrCacheMiss", err)
	}
	if got := e.SearchesLaunched(); got != 0 {
		t.Fatalf("cache-only probe launched %d searches", got)
	}

	// Fill the store with a real run, then probe again.
	if _, err := e.Optimize(context.Background(), addKernel(),
		WithRewriteStore(s), WithSeed(11), WithChains(2, 2),
		WithBudgets(60000, 60000), WithEll(12)); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Optimize(context.Background(), addKernel(),
		WithRewriteStore(s), WithCacheOnly())
	if err != nil {
		t.Fatalf("warm cache-only probe failed: %v", err)
	}
	if !rep.CacheHit || rep.Verdict != verify.Equal {
		t.Fatalf("warm probe: hit=%v verdict=%v", rep.CacheHit, rep.Verdict)
	}
}

// constKernel computes rax := rdi + c for a literal c — the near-miss
// test pair: different constants, same canonical skeleton.
func constKernel(name string, c int64) Kernel {
	p := &x64.Program{Insts: []x64.Inst{
		x64.MakeInst(x64.MOV, x64.R64(x64.RDI), x64.R64(x64.RAX)),
		x64.MakeInst(x64.ADD, x64.Imm(c, 8), x64.R64(x64.RAX)),
		x64.MakeInst(x64.ADD, x64.Imm(c, 8), x64.R64(x64.RAX)),
	}}
	return NewKernel(name, p, WithInputs(RDI), WithOutput64(RAX))
}

// nearMissOpts are the budgets of the near-miss tests: 2 synthesis and 2
// optimization chains of 40000 proposals each.
func nearMissOpts(s *store.Store) []Option {
	return []Option{
		WithRewriteStore(s),
		WithSeed(31),
		WithChains(2, 2),
		WithBudgets(40000, 40000),
		WithEll(8),
	}
}

// phaseEvents counts a run's phase-start and phase-end events per phase
// and records its warm-start events.
type phaseEvents struct {
	starts, ends map[string]int
	warm         []Event
}

func (p *phaseEvents) observe(ev Event) {
	switch ev.Kind {
	case EventPhaseStart:
		p.starts[ev.Phase]++
	case EventPhaseEnd:
		p.ends[ev.Phase]++
	case EventWarmStart:
		p.warm = append(p.warm, ev)
	}
}

func newPhaseEvents() *phaseEvents {
	return &phaseEvents{starts: map[string]int{}, ends: map[string]int{}}
}

// TestNearMissWarmStart: a fingerprint-class entry with different
// constants warm-starts the search. Its constant-substituted rewrite is
// proven Equal before any chain runs, so the run skips synthesis: no
// synthesis phase events, no synthesis time, and only the optimization
// budget (2 chains per start, target and substitution) is spent. The
// pinned rewrite is also what this seed returns when synthesis runs first,
// so skipping it saves time without moving the answer.
func TestNearMissWarmStart(t *testing.T) {
	s, _ := store.Open("", 16)
	e := NewEngine(EngineConfig{Workers: 4})
	defer e.Close()
	base := nearMissOpts(s)

	if _, err := e.Optimize(context.Background(), constKernel("c42", 42), base...); err != nil {
		t.Fatal(err)
	}
	launched := e.SearchesLaunched()

	evs := newPhaseEvents()
	rep, err := e.Optimize(context.Background(), constKernel("c99", 99),
		append(base, WithObserver(evs.observe))...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Fatal("different constants must not be an exact hit")
	}
	if len(evs.warm) != 1 {
		t.Fatalf("fingerprint-class near-miss: %d warm-start events, want 1", len(evs.warm))
	}
	if got := evs.warm[0].Verdict; got != verify.Equal {
		t.Fatalf("substitution verdict %v, want equal", got)
	}
	if got := evs.warm[0].String(); !strings.Contains(got, "substitution equal") {
		t.Fatalf("warm-start event %q does not print the substitution's verdict", got)
	}
	if got := e.SearchesLaunched(); got != launched+1 {
		t.Fatalf("near-miss must still search: %d launches, want %d", got, launched+1)
	}
	if evs.starts["synthesis"] != 0 || evs.ends["synthesis"] != 0 {
		t.Fatalf("proven substitution still synthesized: %d starts, %d ends",
			evs.starts["synthesis"], evs.ends["synthesis"])
	}
	if evs.starts["optimization"] == 0 || evs.starts["optimization"] != evs.ends["optimization"] {
		t.Fatalf("optimization phase events %d starts, %d ends",
			evs.starts["optimization"], evs.ends["optimization"])
	}
	if rep.SynthTime != 0 || rep.SynthesisSucceeded {
		t.Fatalf("skipped synthesis reports time %v, succeeded %v", rep.SynthTime, rep.SynthesisSucceeded)
	}
	if want := int64(2 * 2 * 40000); rep.Refinements != 0 || rep.Stats.Proposals != want {
		t.Fatalf("proposals %d with %d refinements, want the optimization budget %d alone",
			rep.Stats.Proposals, rep.Refinements, want)
	}
	// The substitution proof is the run's only SAT call: the final
	// rewrite is the substitution, answered from the verdict memo.
	if rep.Verdict != verify.Equal || rep.Proofs.SATCalls != 1 || len(rep.Proofs.Times) != 1 {
		t.Fatalf("verdict %v with %d SAT calls (%d samples), want equal from the one substitution proof",
			rep.Verdict, rep.Proofs.SATCalls, len(rep.Proofs.Times))
	}
	const want = "  movq rdi, rax\n  addq 99, rax\n  addq 99, rax\n"
	if got := rep.Rewrite.String(); got != want {
		t.Fatalf("fixed-seed near-miss rewrite moved:\n%s\nwant\n%s", got, want)
	}
}

// decAndKernel computes rax := rdi & (rdi - c), p01's shape for c = 1.
func decAndKernel(name string, c int64) Kernel {
	p := &x64.Program{Insts: []x64.Inst{
		x64.MakeInst(x64.MOV, x64.R64(x64.RDI), x64.R64(x64.RAX)),
		x64.MakeInst(x64.SUB, x64.Imm(c, 8), x64.R64(x64.RAX)),
		x64.MakeInst(x64.AND, x64.R64(x64.RDI), x64.R64(x64.RAX)),
	}}
	return NewKernel(name, p, WithInputs(RDI), WithOutput64(RAX))
}

// putDecEntry stores x & (x-1) with a constant-free `decq` rewrite.
func putDecEntry(t *testing.T, s *store.Store) {
	t.Helper()
	k := decAndKernel("dec1", 1)
	form := canon.Canonicalize(k.Target, liveOutFor(k))
	rewrite, ok := form.ToCanon(x64.MustParse(`
  movq rdi, rax
  decq rax
  andq rdi, rax
`))
	if !ok {
		t.Fatal("rewrite cannot be carried into canonical space")
	}
	if err := s.Put(&store.Entry{FP: form.FP.Hex(), Consts: form.Consts,
		Target: form.Prog.String(), Rewrite: rewrite.String(), CostH: perf.H(rewrite)}); err != nil {
		t.Fatal(err)
	}
}

// TestNearMissNotEqualRunsSynthesis: a near miss whose substituted
// rewrite is not equivalent runs the full search, synthesis included. The
// store holds the x & (x-1) entry with a `decq` rewrite, as a p01 search
// leaves it: the rewrite carries no constant, so substituting the near
// miss's constant leaves x & (x-1), which is wrong for x & (x-2).
func TestNearMissNotEqualRunsSynthesis(t *testing.T) {
	s, _ := store.Open("", 16)
	putDecEntry(t, s)
	e := NewEngine(EngineConfig{Workers: 2})
	defer e.Close()
	evs := newPhaseEvents()
	rep, err := e.Optimize(context.Background(), decAndKernel("dec2", 2),
		append(nearMissOpts(s), WithObserver(evs.observe))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs.warm) != 1 || evs.warm[0].Verdict != verify.NotEqual {
		t.Fatalf("warm-start events %+v, want one with a not-equal substitution", evs.warm)
	}
	if evs.starts["synthesis"] != 1 || evs.ends["synthesis"] != 1 || rep.SynthTime == 0 {
		t.Fatalf("refuted substitution skipped synthesis: %d starts, %d ends, time %v",
			evs.starts["synthesis"], evs.ends["synthesis"], rep.SynthTime)
	}
	if min := int64(2*40000 + 2*2*40000); rep.Stats.Proposals < min {
		t.Fatalf("proposals %d, want at least synthesis plus optimization (%d)", rep.Stats.Proposals, min)
	}
	if rep.Proofs.SATCalls < 2 {
		t.Fatalf("%d SAT calls, want the substitution proof and the final one", rep.Proofs.SATCalls)
	}
	if rep.Verdict != verify.Equal {
		t.Fatalf("full search ended %v:\n%s", rep.Verdict, rep.Rewrite)
	}
}

// TestCacheOnlySkipsNearMiss: a cache-only probe of a near-miss kernel
// answers ErrCacheMiss without looking the fingerprint class up — the
// warm-start material would be thrown away, and the search that follows
// looks it up itself.
func TestCacheOnlySkipsNearMiss(t *testing.T) {
	s, _ := store.Open("", 16)
	putDecEntry(t, s)
	e := NewEngine(EngineConfig{Workers: 1})
	defer e.Close()
	before := s.Stats().NearHits
	_, err := e.Optimize(context.Background(), decAndKernel("dec2", 2),
		WithRewriteStore(s), WithCacheOnly())
	if !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("cache-only near-miss probe: err %v, want ErrCacheMiss", err)
	}
	if got := s.Stats().NearHits; got != before {
		t.Fatalf("cache-only probe did near-miss work: near hits %d -> %d", before, got)
	}
	if got := e.SearchesLaunched(); got != 0 {
		t.Fatalf("cache-only probe launched %d searches", got)
	}
}

// TestNearMissDeterministicAcrossPoolWidths: a near-miss run's report,
// timings aside, is the same at engine pool widths 1 and 2, for an Equal
// and a NotEqual substitution alike.
func TestNearMissDeterministicAcrossPoolWidths(t *testing.T) {
	coldRun := func(t *testing.T, e *Engine, s *store.Store) {
		if _, err := e.Optimize(context.Background(), constKernel("c42", 42), nearMissOpts(s)...); err != nil {
			t.Fatal(err)
		}
	}
	plant := func(t *testing.T, _ *Engine, s *store.Store) { putDecEntry(t, s) }
	for _, c := range []struct {
		fill func(*testing.T, *Engine, *store.Store)
		near Kernel
	}{
		{coldRun, constKernel("c99", 99)}, // substitution Equal
		{plant, decAndKernel("dec2", 2)},  // substitution NotEqual
	} {
		run := func(workers int) Report {
			s, _ := store.Open("", 16)
			e := NewEngine(EngineConfig{Workers: workers})
			defer e.Close()
			c.fill(t, e, s)
			rep, err := e.Optimize(context.Background(), c.near, nearMissOpts(s)...)
			if err != nil {
				t.Fatal(err)
			}
			r := *rep
			r.SynthTime, r.OptTime, r.VerifyTime, r.Proofs.Times = 0, 0, 0, nil
			return r
		}
		if a, b := run(1), run(2); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: near-miss report differs across pool widths:\n%+v\nvs\n%+v", c.near.Name, a, b)
		}
	}
}

// TestCacheRevalidationRejectsCorruptEntry: a poisoned store entry (wrong
// rewrite under the right key) must fail replay revalidation and degrade
// to a miss — the served path can never skip correctness.
func TestCacheRevalidationRejectsCorruptEntry(t *testing.T) {
	s, _ := store.Open("", 16)
	e := NewEngine(EngineConfig{Workers: 2})
	defer e.Close()
	opts := []Option{
		WithRewriteStore(s), WithSeed(11), WithChains(2, 2),
		WithBudgets(60000, 60000), WithEll(12),
	}
	rep, err := e.Optimize(context.Background(), addKernel(), opts...)
	if err != nil {
		t.Fatal(err)
	}

	// Poison: replace the cached rewrite with one computing the wrong
	// function, keeping everything else.
	entry, ok := s.Get(rep.Fingerprint, nil)
	if !ok {
		// The entry may carry constants; find it via the class index.
		near := s.Near(rep.Fingerprint)
		if len(near) == 0 {
			t.Fatal("no stored entry to poison")
		}
		entry = near[0]
	}
	poisoned := *entry
	poisoned.Rewrite = "subq rcx, rax" // wrong function, parseable
	if err := s.Put(&poisoned); err != nil {
		t.Fatal(err)
	}

	before := e.SearchesLaunched()
	rep2, err := e.Optimize(context.Background(), addKernel(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHit {
		t.Fatal("poisoned entry served as a hit")
	}
	if e.SearchesLaunched() != before+1 {
		t.Fatal("revalidation failure must fall back to a search")
	}
	if rep2.Verdict == verify.NotEqual {
		t.Fatal("fallback search returned an unvalidated rewrite")
	}
}
