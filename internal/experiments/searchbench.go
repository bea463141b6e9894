package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/stoke"
)

// SearchRun is one measured configuration of the search-coordination
// baseline: a kernel and a coordination mode ("tempering" runs the
// coordinator's replica-exchange ladder with the shared rejection
// profile; "independent" runs the paper's §5.3 discipline of isolated
// chains at the phase β), aggregated over several seeds.
type SearchRun struct {
	Kernel    string  `json:"kernel"`
	Mode      string  `json:"mode"`
	Seeds     int     `json:"seeds"`
	Chains    int     `json:"chains"`
	Proposals int64   `json:"proposals_per_chain"`
	Ell       int     `json:"ell"`
	Hits      int     `json:"hits"`
	HitRate   float64 `json:"hit_rate"`

	// MeanProposalsToZero averages, over hitting seeds, the earliest
	// chain-local proposal index at which any chain reached a zero-cost
	// rewrite (the time-to-zero-cost metric; 0 when no seed hit).
	MeanProposalsToZero float64 `json:"mean_proposals_to_zero"`

	BusySeconds float64 `json:"busy_seconds"`
	Swaps       int     `json:"swaps"`
}

// SearchBaseline is the machine-readable record emitted as
// BENCH_search.json: replica-exchange tempering against independent
// chains on synthesis hit-rate and time-to-zero-cost, tracked across PRs.
type SearchBaseline struct {
	GoVersion string      `json:"go_version"`
	GOARCH    string      `json:"goarch"`
	Date      string      `json:"date"`
	Runs      []SearchRun `json:"runs"`

	// TemperingWins records, per kernel, whether tempering matched or
	// beat independent chains on hit-rate (strictly) or, at equal
	// hit-rate, on mean proposals to zero cost.
	TemperingWins map[string]bool `json:"tempering_wins"`
	WinCount      int             `json:"win_count"`
}

// DefaultSearchKernels are the measured profiles: three synthesis
// problems from the paper's p01–p25 suite, hard enough at the baseline
// budget that chains benefit from communicating.
var DefaultSearchKernels = []string{"p09", "p13", "p14"}

// MeasureSearchBaseline runs synthesis-only searches over both
// coordination modes for every named kernel.
func MeasureSearchBaseline(ctx context.Context, names []string, seeds, chains int, proposals int64, ell int) (SearchBaseline, error) {
	base := SearchBaseline{
		GoVersion:     runtime.Version(),
		GOARCH:        runtime.GOARCH,
		Date:          time.Now().UTC().Format("2006-01-02"),
		TemperingWins: map[string]bool{},
	}
	e := stoke.NewEngine(stoke.EngineConfig{})
	defer e.Close()

	for _, name := range names {
		b, err := kernels.ByName(name)
		if err != nil {
			return base, err
		}
		var modes [2]SearchRun
		for mi, mode := range []string{"independent", "tempering"} {
			run := SearchRun{
				Kernel: name, Mode: mode, Seeds: seeds,
				Chains: chains, Proposals: proposals, Ell: ell,
			}
			var sumToZero float64
			for seed := 0; seed < seeds; seed++ {
				var mu sync.Mutex
				firstZero := int64(-1)
				opts := []stoke.Option{
					stoke.WithSeed(1 + int64(seed)*stoke.KernelSeedStride),
					stoke.WithChains(chains, 0),
					stoke.WithBudgets(proposals, 1),
					stoke.WithEll(ell),
					stoke.WithObserver(func(ev stoke.Event) {
						if ev.Kind == stoke.EventChainImproved && ev.Cost == 0 {
							mu.Lock()
							if firstZero < 0 || ev.Proposal < firstZero {
								firstZero = ev.Proposal
							}
							mu.Unlock()
						}
					}),
				}
				if mode == "independent" {
					opts = append(opts, stoke.WithIndependentChains())
				}
				rep, err := e.Optimize(ctx, b.Kernel, opts...)
				if err != nil {
					return base, err
				}
				if ctx.Err() != nil {
					return base, ctx.Err()
				}
				run.BusySeconds += rep.SynthTime.Seconds()
				run.Swaps += rep.Swaps
				if rep.SynthesisSucceeded {
					run.Hits++
					if firstZero >= 0 {
						sumToZero += float64(firstZero)
					} else {
						// A swap delivered the zero-cost program without an
						// improvement event; charge the full budget.
						sumToZero += float64(proposals)
					}
				}
			}
			run.HitRate = float64(run.Hits) / float64(seeds)
			if run.Hits > 0 {
				run.MeanProposalsToZero = sumToZero / float64(run.Hits)
			}
			base.Runs = append(base.Runs, run)
			modes[mi] = run
		}
		ind, tem := modes[0], modes[1]
		win := tem.HitRate > ind.HitRate ||
			(tem.HitRate == ind.HitRate && tem.Hits > 0 &&
				tem.MeanProposalsToZero <= ind.MeanProposalsToZero)
		base.TemperingWins[name] = win
		if win {
			base.WinCount++
		}
	}
	return base, nil
}

// WriteSearchBaseline measures the baseline and writes it to path.
func WriteSearchBaseline(ctx context.Context, path string, names []string, seeds, chains int, proposals int64, ell int) (SearchBaseline, error) {
	base, err := MeasureSearchBaseline(ctx, names, seeds, chains, proposals, ell)
	if err != nil {
		return base, err
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return base, err
	}
	data = append(data, '\n')
	return base, os.WriteFile(path, data, 0o644)
}

// FormatSearchBaseline renders the baseline as the table stoke-bench
// prints alongside the JSON.
func FormatSearchBaseline(base SearchBaseline) string {
	var sb strings.Builder
	for _, r := range base.Runs {
		fmt.Fprintf(&sb, "%-5s %-12s hit %d/%d  mean-to-zero %9.0f  swaps %4d  %6.1fs\n",
			r.Kernel, r.Mode, r.Hits, r.Seeds, r.MeanProposalsToZero, r.Swaps, r.BusySeconds)
	}
	names := make([]string, 0, len(base.TemperingWins))
	for k := range base.TemperingWins {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		verdict := "independent ahead"
		if base.TemperingWins[k] {
			verdict = "tempering >= independent"
		}
		fmt.Fprintf(&sb, "verdict %-5s %s\n", k, verdict)
	}
	fmt.Fprintf(&sb, "tempering wins on %d/%d kernels\n", base.WinCount, len(base.TemperingWins))
	return sb.String()
}
