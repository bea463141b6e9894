package stoke

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/verify"
)

// TestCancellationReturnsPartial cancels a run mid-optimization and checks
// the contract: Optimize returns promptly with a valid best-so-far Report
// (Partial set, non-nil Rewrite, no error), and once the engine is closed
// no goroutines are left behind.
func TestCancellationReturnsPartial(t *testing.T) {
	before := runtime.NumGoroutine()

	e := NewEngine(EngineConfig{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	// Budgets far beyond what 150ms can finish: without cancellation this
	// run would take minutes.
	rep, err := e.Optimize(ctx, addKernel(),
		WithSeed(29),
		WithChains(4, 4),
		WithBudgets(200_000_000, 200_000_000),
		WithEll(12))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled run took %v — cancellation not honoured", elapsed)
	}
	if !rep.Partial {
		t.Error("cancelled run must set Partial")
	}
	if rep.Rewrite == nil {
		t.Fatal("cancelled run must still return a best-so-far rewrite")
	}
	if rep.Rewrite.InstCount() == 0 {
		t.Error("best-so-far rewrite is empty")
	}
	t.Logf("partial after %v: %d insts, verdict %v, %d proposals",
		elapsed, rep.Rewrite.InstCount(), rep.Verdict, rep.Stats.Proposals)

	// Drained pool, no leaked goroutines: the worker count must return to
	// its pre-engine baseline once Close returns.
	e.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before, %d after Close\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestCancelledBeforeStart returns the target itself: correct by
// construction, flagged partial.
func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Optimize(ctx, addKernel(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Error("pre-cancelled run must be partial")
	}
	if rep.Rewrite == nil {
		t.Fatal("pre-cancelled run must return the target as rewrite")
	}
	if rep.Verdict != verify.Equal {
		t.Errorf("target-as-rewrite is correct by construction, got %v", rep.Verdict)
	}
}

// TestOptionZeroValues checks the redesign's motivating property: the old
// Options struct treated zeros as "use default"; functional options apply
// them literally. Zero chains are an explicit choice (skip the phase), and
// negative counts clamp to zero.
func TestOptionZeroValues(t *testing.T) {
	st := resolve([]Option{WithChains(0, 3)})
	if st.synthChains != 0 || st.optChains != 3 {
		t.Errorf("WithChains(0, 3) resolved to %d, %d", st.synthChains, st.optChains)
	}
	st = resolve([]Option{WithChains(-2, -1)})
	if st.synthChains != 0 || st.optChains != 0 {
		t.Errorf("WithChains(-2, -1) resolved to %d, %d, want both clamped to 0",
			st.synthChains, st.optChains)
	}
	// Untouched knobs keep the documented defaults.
	if st.tests != 32 || st.ell != 24 || st.synthProposals != DefaultSynthProposals ||
		st.independent {
		t.Errorf("defaults disturbed: tests=%d ell=%d synth proposals=%d independent=%v",
			st.tests, st.ell, st.synthProposals, st.independent)
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("full")
	if err != nil || p.Name != "full" {
		t.Fatalf("full profile: %v, %v", p, err)
	}
	_, err = ProfileByName("fulll")
	if err == nil {
		t.Fatal("unknown profile must error")
	}
	for _, want := range []string{"fulll", "quick", "full"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q must mention %q", err, want)
		}
	}
}
