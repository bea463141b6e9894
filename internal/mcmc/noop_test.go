package mcmc_test

// The compiled chain accepts a no-op proposal (a move that left every
// touched slot as it was) at the current cost without evaluating it; the
// interpreted chain evaluates every proposal. These tests pin that the
// skip is exact: both chains make the same decision at every proposal.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/kernels"
	"repro/internal/mcmc"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// chainTrace is everything observable about one chain except how many
// testcases it ran: the Result (Stats.TestsEvaluated and the compiled-only
// register-liveness counters cleared), the current cost and accept count
// after every proposal, and every best-cost improvement.
type chainTrace struct {
	res      mcmc.Result
	costs    []float64
	accepts  []int64
	improves []float64
}

// TestNoOpSkipMatchesInterpretedChain runs the same seeded chains through
// the compiled loop (which skips no-op proposals) and the interpreted
// reference (which evaluates them) over several kernels and seeds, in the
// optimization regime (start at the target, perf term on) and the
// synthesis regime (random start, perf term off), with restarts to the
// best correct program and counterexample broadcasts (AddTests) between
// segments. One broadcast carries a testcase whose expected output is one
// bit off, refuting every program — the current and the best correct one
// included — so a chain that kept a stale eq term for its current program
// would adopt a refuted program as best correct at its next no-op.
func TestNoOpSkipMatchesInterpretedChain(t *testing.T) {
	const proposals, segment = 4000, 400
	for _, name := range []string{"p01", "p05", "p13"} {
		bench, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tests, err := testgen.Generate(bench.Target, bench.Spec, 2, rng)
			if err != nil {
				t.Fatal(err)
			}
			extra, err := testgen.Generate(bench.Target, bench.Spec, proposals/segment, rng)
			if err != nil {
				t.Fatal(err)
			}
			extra[len(extra)/2].WantGPR[0] ^= 1
			params := mcmc.PaperParams
			params.Ell = 12
			params.Beta = 1
			starter := &mcmc.Sampler{Params: params, Pools: mcmc.PoolsFor(bench.Target, bench.SSE), Rng: rng}
			for _, regime := range []struct {
				name       string
				start      *x64.Program
				perfWeight float64
			}{
				{"opt", bench.Target, 1},
				{"synth", starter.RandomProgram(), 0},
			} {
				run := func(interpreted bool) chainTrace {
					var tr chainTrace
					s := &mcmc.Sampler{
						Params:       params,
						Pools:        mcmc.PoolsFor(bench.Target, bench.SSE),
						Cost:         cost.New(append([]testgen.Testcase(nil), tests...), bench.Spec.LiveOut, cost.Improved, regime.perfWeight),
						Rng:          rand.New(rand.NewSource(seed + 100)),
						Interpreted:  interpreted,
						RestartAfter: 300,
						StepInterval: 1,
					}
					s.OnStep = func(st mcmc.Stats, cur float64) {
						tr.costs = append(tr.costs, cur)
						tr.accepts = append(tr.accepts, st.Accepts)
					}
					s.OnImprove = func(_ int64, c float64, _ *x64.Program) { tr.improves = append(tr.improves, c) }
					r := s.Begin(regime.start.Clone(), proposals)
					for k := 0; r.Step(context.Background(), segment); k++ {
						r.AddTests(extra[k : k+1])
					}
					tr.res = r.Result()
					tr.res.Stats.TestsEvaluated = 0
					tr.res.Stats.RegFreeSlots, tr.res.Stats.RegWritingSlots = 0, 0
					return tr
				}
				label := name + "/" + regime.name
				ti, tc := run(true), run(false)
				if len(ti.costs) != len(tc.costs) {
					t.Fatalf("%s seed %d: %d vs %d proposals", label, seed, len(ti.costs), len(tc.costs))
				}
				for i := range ti.costs {
					if ti.costs[i] != tc.costs[i] || ti.accepts[i] != tc.accepts[i] {
						t.Fatalf("%s seed %d: proposal %d: interpreted cost %v (%d accepts), compiled %v (%d accepts)",
							label, seed, i, ti.costs[i], ti.accepts[i], tc.costs[i], tc.accepts[i])
					}
				}
				if len(ti.improves) != len(tc.improves) {
					t.Fatalf("%s seed %d: %d vs %d improvements", label, seed, len(ti.improves), len(tc.improves))
				}
				ri, rc := ti.res, tc.res
				if ri.Stats != rc.Stats || ri.BestCost != rc.BestCost || ri.Best.String() != rc.Best.String() ||
					ri.ZeroCost != rc.ZeroCost || ri.BestCorrectCost != rc.BestCorrectCost ||
					(ri.BestCorrect == nil) != (rc.BestCorrect == nil) ||
					ri.BestCorrect != nil && ri.BestCorrect.String() != rc.BestCorrect.String() {
					t.Fatalf("%s seed %d: results diverged:\ninterpreted %+v\n%v\ncompiled %+v\n%v",
						label, seed, ri.Stats, ri.BestCorrect, rc.Stats, rc.BestCorrect)
				}
			}
		}
	}
}
