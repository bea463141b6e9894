package search

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/mcmc"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// fixture builds the shared substrate of the tests: a tiny add kernel,
// its testcases, and a factory for coordinated chain groups.
type fixture struct {
	target *x64.Program
	spec   testgen.Spec
	tests  []testgen.Testcase
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		target: x64.MustParse("movq rdi, -8(rsp)\nmovq -8(rsp), rax\naddq rsi, rax"),
		spec: testgen.Spec{
			BuildInput: func(rng *rand.Rand) *emu.Snapshot {
				a := testgen.NewArena(0x10000)
				a.AllocStack(256)
				a.SetReg(x64.RDI, rng.Uint64())
				a.SetReg(x64.RSI, rng.Uint64())
				return a.Snapshot()
			},
			LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}},
		},
	}
	tests, err := testgen.Generate(f.target, f.spec, 16, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	f.tests = tests
	return f
}

// runs builds n optimization-phase chains over a β ladder, all starting
// from the target.
func (f *fixture) runs(n int, seed int64, proposals int64, prof *cost.SharedProfile) []*mcmc.Run {
	ladder := Ladder(1.0, n, DefaultLadderSpan)
	out := make([]*mcmc.Run, n)
	for i := range out {
		params := mcmc.PaperParams
		params.Ell = 10
		params.Beta = ladder[i]
		fn := cost.New(f.tests[:len(f.tests):len(f.tests)], f.spec.LiveOut, cost.Improved, 1)
		fn.Shared = prof
		s := &mcmc.Sampler{
			Params: params,
			Pools:  mcmc.PoolsFor(f.target, false),
			Cost:   fn,
			Rng:    rand.New(rand.NewSource(seed + int64(i))),
		}
		out[i] = s.Begin(f.target, proposals)
	}
	return out
}

// serialBatch runs segment bodies one by one; parallelBatch runs them all
// concurrently. A deterministic coordinator must not care which one
// drives it.
func serialBatch(bodies []func()) {
	for _, b := range bodies {
		b()
	}
}

func parallelBatch(bodies []func()) {
	var wg sync.WaitGroup
	for _, b := range bodies {
		wg.Add(1)
		go func(b func()) {
			defer wg.Done()
			b()
		}(b)
	}
	wg.Wait()
}

// TestDeterministicAcrossSchedules drives two identical groups — one with
// serial segments, one with fully parallel segments — and demands
// bit-identical outcomes: same swap count, same per-chain costs, programs
// and stats.
func TestDeterministicAcrossSchedules(t *testing.T) {
	f := newFixture(t)
	drive := func(batch func([]func())) (*Coordinator, []mcmc.Result) {
		prof := cost.NewSharedProfile(len(f.tests))
		c := New(Config{
			Seed:       9,
			Exchange:   true,
			Cadence:    512,
			PruneAfter: 2048,
		}, f.runs(4, 100, 20000, prof))
		c.Drive(context.Background(), batch)
		return c, c.Results()
	}
	ca, ra := drive(serialBatch)
	cb, rb := drive(parallelBatch)

	if ca.Swaps() != cb.Swaps() || ca.Prunes() != cb.Prunes() {
		t.Fatalf("coordination diverged: swaps %d vs %d, prunes %d vs %d",
			ca.Swaps(), cb.Swaps(), ca.Prunes(), cb.Prunes())
	}
	for i := range ra {
		if ra[i].BestCost != rb[i].BestCost ||
			ra[i].BestCorrectCost != rb[i].BestCorrectCost ||
			ra[i].Stats.Proposals != rb[i].Stats.Proposals ||
			ra[i].Stats.Accepts != rb[i].Stats.Accepts ||
			ra[i].Best.String() != rb[i].Best.String() {
			t.Fatalf("chain %d diverged across schedules:\n%+v\nvs\n%+v",
				i, ra[i], rb[i])
		}
	}
	pa, pb := ca.Pool(), cb.Pool()
	if len(pa) != len(pb) {
		t.Fatalf("pool sizes diverged: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Cost != pb[i].Cost || pa[i].Prog.String() != pb[i].Prog.String() {
			t.Fatalf("pool entry %d diverged", i)
		}
	}
}

// TestExchangeHappens checks that a ladder group actually swaps, and that
// disabling exchange reproduces fully independent chains (same seeds, no
// ladder interference on the coin schedule).
func TestExchangeHappens(t *testing.T) {
	f := newFixture(t)
	c := New(Config{Seed: 3, Exchange: true, Cadence: 256},
		f.runs(4, 7, 30000, nil))
	c.Drive(context.Background(), serialBatch)
	if c.Swaps() == 0 {
		t.Fatal("replica exchange never accepted a swap over 4 replicas x 30k proposals")
	}

	off := New(Config{Seed: 3, Exchange: false, Cadence: 256},
		f.runs(4, 7, 30000, nil))
	off.Drive(context.Background(), serialBatch)
	if off.Swaps() != 0 {
		t.Fatalf("exchange disabled but %d swaps recorded", off.Swaps())
	}
}

// TestBroadcastRefinesEveryChain injects a counterexample through the
// Validate hook and checks every live chain's τ grew and the pool was
// rebuilt against the refined testcases.
func TestBroadcastRefinesEveryChain(t *testing.T) {
	f := newFixture(t)
	extra, err := testgen.Generate(f.target, f.spec, 1, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	runs := f.runs(3, 11, 8000, nil)
	fired := 0
	c := New(Config{
		Seed:          5,
		Exchange:      true,
		Cadence:       512,
		ValidateEvery: 1,
		Validate: func(Candidate) []testgen.Testcase {
			if fired > 0 {
				return nil
			}
			fired++
			return extra
		},
	}, runs)
	c.Drive(context.Background(), serialBatch)
	if fired != 1 {
		t.Fatalf("validate hook fired %d times", fired)
	}
	for i, r := range runs {
		res := r.Result()
		if res.BestCorrect == nil {
			t.Fatalf("chain %d lost its correct program after broadcast", i)
		}
	}
	if len(c.Pool()) == 0 {
		t.Fatal("pool empty after broadcast rebuild")
	}
}

// TestCancellationDrainsWithoutDeadlock cancels mid-run under a
// pool-like batch executor and requires Drive to return promptly with
// harvestable results — the mid-swap cancellation contract.
func TestCancellationDrainsWithoutDeadlock(t *testing.T) {
	f := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	c := New(Config{Seed: 1, Exchange: true, Cadence: 1024},
		f.runs(4, 20, 1<<40, nil))
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Drive(ctx, parallelBatch)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drive did not return after cancellation")
	}
	for i, r := range c.Results() {
		if r.Best == nil {
			t.Fatalf("chain %d: no best-so-far after cancellation", i)
		}
	}
}

// TestSingleChainGroup drives a one-chain group with exchange enabled: no
// swap partner exists, so the coordinator must draw no swap coins that
// matter, record zero swaps, and still harvest the chain's best into the
// pool.
func TestSingleChainGroup(t *testing.T) {
	f := newFixture(t)
	c := New(Config{Seed: 13, Exchange: true, Cadence: 512},
		f.runs(1, 21, 8000, nil))
	c.Drive(context.Background(), serialBatch)
	if c.Swaps() != 0 {
		t.Fatalf("single chain recorded %d swaps", c.Swaps())
	}
	res := c.Results()
	if len(res) != 1 || res[0].Best == nil {
		t.Fatalf("single-chain results malformed: %+v", res)
	}
	if len(c.Pool()) == 0 {
		t.Fatal("single-chain group harvested nothing into the pool")
	}
}

// TestLadder pins the mostly-cold ladder shape: leading rungs at base, a
// hot tail of one replica per four descending to base/span.
func TestLadder(t *testing.T) {
	l := Ladder(1.0, 4, 2.0)
	want := []float64{1, 1, 1, 0.5}
	for i := range want {
		if math.Abs(l[i]-want[i]) > 1e-12 {
			t.Fatalf("4-replica ladder = %v, want %v", l, want)
		}
	}
	l = Ladder(1.0, 8, 2.0)
	if l[5] != 1.0 {
		t.Fatalf("8-replica ladder must keep six cold rungs, got %v", l)
	}
	if math.Abs(l[7]-0.5) > 1e-12 || l[6] <= l[7] || l[6] >= 1.0 {
		t.Fatalf("8-replica hot tail must descend geometrically to base/span, got %v", l)
	}
	if two := Ladder(0.1, 2, 2.0); math.Abs(two[1]-0.05) > 1e-12 || two[0] != 0.1 {
		t.Fatalf("2-replica ladder = %v, want [0.1 0.05]", two)
	}
	if one := Ladder(0.5, 1, 2.0); len(one) != 1 || one[0] != 0.5 {
		t.Fatalf("single-replica ladder must be the base alone, got %v", one)
	}
}
