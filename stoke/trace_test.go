package stoke_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"repro/internal/kernels"
	"repro/internal/store"
	"repro/internal/x64"
	"repro/stoke"
)

// traceDigest folds a run's timing-free event stream into a SHA-256.
// Chain-improved events arrive from the chains' worker goroutines, so
// their interleaving depends on scheduling; each chain's own sequence is
// deterministic, and they are hashed per (phase, round, chain) after the
// driver-ordered stream of every other event.
type traceDigest struct {
	main   []string
	chains map[string][]string
	kinds  map[stoke.EventKind]int

	// phase is the phase last started; midRefinements counts refinements
	// folded while an optimization phase was running.
	phase          string
	midRefinements int
}

func newTraceDigest() *traceDigest {
	return &traceDigest{chains: map[string][]string{}, kinds: map[stoke.EventKind]int{}}
}

// observe is the run's observer; the engine serializes its calls per run.
func (d *traceDigest) observe(ev stoke.Event) {
	d.kinds[ev.Kind]++
	switch ev.Kind {
	case stoke.EventPhaseStart:
		d.phase = ev.Phase
	case stoke.EventRefinement:
		if d.phase == "optimization" {
			d.midRefinements++
		}
	}
	line := fmt.Sprintf("%v|%s|%d|%d|%d|%v|%d|%v",
		ev.Kind, ev.Phase, ev.Round, ev.Chain, ev.Proposal, ev.Cost, ev.Tests, ev.Verdict)
	if ev.Kind == stoke.EventChainImproved {
		key := fmt.Sprintf("%s/%d/%d", ev.Phase, ev.Round, ev.Chain)
		d.chains[key] = append(d.chains[key], line)
		return
	}
	d.main = append(d.main, line)
}

// sum hashes the event streams and the report's counters.
func (d *traceDigest) sum(rep *stoke.Report) string {
	h := sha256.New()
	write := func(h hash.Hash, lines []string) {
		for _, l := range lines {
			fmt.Fprintln(h, l)
		}
	}
	write(h, d.main)
	keys := make([]string, 0, len(d.chains))
	for k := range d.chains {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintln(h, k)
		write(h, d.chains[k])
	}
	p := rep.Proofs
	fmt.Fprintf(h, "verdict %v partial %v hit %v synth %v tests %d\n",
		rep.Verdict, rep.Partial, rep.CacheHit, rep.SynthesisSucceeded, rep.Tests)
	fmt.Fprintf(h, "refinements %d swaps %d prunes %d skipped %d\n",
		rep.Refinements, rep.Swaps, rep.Prunes, rep.SkippedValidations)
	fmt.Fprintf(h, "sat %d structural %d replay %d defer %d mismatch %d clauses %v\n",
		p.SATCalls, p.Structural, p.ReplayKills, p.GateDeferrals, p.ModelMismatches, p.Clauses)
	fmt.Fprintf(h, "stats %+v\n", rep.Stats)
	fmt.Fprintf(h, "cycles %v %v\n%s", rep.TargetCycles, rep.RewriteCycles, rep.Rewrite)
	return hex.EncodeToString(h.Sum(nil))
}

// traceConstKernel computes rax := rdi + 2c, the near-miss pair's shape.
func traceConstKernel(name string, c int64) stoke.Kernel {
	p := &x64.Program{Insts: []x64.Inst{
		x64.MakeInst(x64.MOV, x64.R64(x64.RDI), x64.R64(x64.RAX)),
		x64.MakeInst(x64.ADD, x64.Imm(c, 8), x64.R64(x64.RAX)),
		x64.MakeInst(x64.ADD, x64.Imm(c, 8), x64.R64(x64.RAX)),
	}}
	return stoke.NewKernel(name, p, stoke.WithInputs(stoke.RDI), stoke.WithOutput64(stoke.RAX))
}

// TestOptimizeTracePinned pins fixed-seed trajectories end to end: the
// timing-free event stream and report counters of each run hash to a
// recorded digest. Optimization-only runs of p01 and p09 go through one
// engine twice, so the second pass replays the counterexamples the first
// banked; together they exercise mid-search and end-of-round refinement,
// replay kills, cost-aware skipped validations and gate deferrals. A cold
// run and a near miss through a memory store add synthesis and a proven
// warm start. A refactor of the search driver or the proof policy must
// leave every digest unchanged.
func TestOptimizeTracePinned(t *testing.T) {
	e := stoke.NewEngine(stoke.EngineConfig{Workers: 2})
	defer e.Close()
	type run struct {
		name string
		k    stoke.Kernel
		opts []stoke.Option
	}
	tracked := func(name string) stoke.Kernel {
		b, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return b.Kernel
	}
	opt := []stoke.Option{stoke.WithSeed(42), stoke.WithChains(0, 2),
		stoke.WithBudgets(1, 100000), stoke.WithEll(16), stoke.WithTests(4)}
	s, _ := store.Open("", 16)
	near := []stoke.Option{stoke.WithRewriteStore(s), stoke.WithSeed(31),
		stoke.WithChains(2, 2), stoke.WithBudgets(40000, 40000), stoke.WithEll(8)}
	runs := []run{
		{"p01", tracked("p01"), opt},
		{"p09", tracked("p09"), opt},
		{"p01 replay", tracked("p01"), opt},
		{"p09 replay", tracked("p09"), opt},
		{"cold c42", traceConstKernel("c42", 42), near},
		{"near miss c99", traceConstKernel("c99", 99), near},
	}
	want := []string{
		"ac2957ceb33561b5db9fbb358ec00d37099fc9464baacab68180c0e002ea9748",
		"25611ee45705deb548231d9c42f5ab56f215f6382f7c8fca0e04ab6c0b0ff516",
		"953eac8e0b84df130b7c1f684a1e05522069721331ffdf64f7c490855bfc84cc",
		"6f7ee2c1361f9f24b176d831d017e70a995b8d4b191f0a74ff318ded209a05f6",
		"1835200bbe2c4b96d3cb7bde93812e37419f8772a9f281fb474c29eb3c5a0d45",
		"596aaa154967d0cbaf36d03f4dad26ff6107a702629c63253d2e1534bdde8b7d",
	}
	total := map[stoke.EventKind]int{}
	skipped, mid := 0, 0
	for i, r := range runs {
		d := newTraceDigest()
		rep, err := e.Optimize(context.Background(), r.k, append(r.opts, stoke.WithObserver(d.observe))...)
		if err != nil {
			t.Fatal(err)
		}
		skipped += rep.SkippedValidations
		mid += d.midRefinements
		for k, n := range d.kinds {
			total[k] += n
		}
		if got := d.sum(rep); got != want[i] {
			t.Errorf("%s: trace digest %s, want %s (refinements %d, replay kills %d, skipped %d, deferrals %d, SAT %d)",
				r.name, got, want[i], rep.Refinements, rep.Proofs.ReplayKills,
				rep.SkippedValidations, rep.Proofs.GateDeferrals, rep.Proofs.SATCalls)
		}
	}
	for _, k := range []stoke.EventKind{stoke.EventRefinement, stoke.EventReplayKill,
		stoke.EventGateDefer, stoke.EventWarmStart, stoke.EventSwap} {
		if total[k] == 0 {
			t.Errorf("the pinned trace holds no %v event", k)
		}
	}
	if skipped == 0 {
		t.Error("the pinned trace skips no validation on cost")
	}
	if mid == 0 || mid == total[stoke.EventRefinement] {
		t.Errorf("%d of %d refinements mid-search, want both kinds", mid, total[stoke.EventRefinement])
	}
}
