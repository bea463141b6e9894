package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/mcmc"
	"repro/internal/testgen"
)

// EvalRate is one measured configuration of the evaluation-throughput
// baseline: a kernel, a sequence length, and one of the two evaluation
// pipelines.
type EvalRate struct {
	Kernel          string  `json:"kernel"`
	Ell             int     `json:"ell"`
	Mode            string  `json:"mode"` // "interpreted" or "compiled"
	Proposals       int64   `json:"proposals"`
	Seconds         float64 `json:"seconds"`
	ProposalsPerSec float64 `json:"proposals_per_sec"`
}

// EvalBaseline is the machine-readable record emitted as BENCH_eval.json:
// the decode-once pipeline's throughput against the interpreter, tracked
// across PRs so regressions in the evaluation substrate are visible.
type EvalBaseline struct {
	GoVersion string     `json:"go_version"`
	GOARCH    string     `json:"goarch"`
	Date      string     `json:"date"`
	Runs      []EvalRate `json:"runs"`

	// Speedups maps "kernel/ell=N" to compiled-over-interpreted
	// proposals/sec.
	Speedups map[string]float64 `json:"speedups"`

	// FlagFree maps "kernel/ell=N" to the fraction of the padded start
	// program's flag-writing slots the compile-time liveness pass proved
	// dead and suppressed (emu.Compiled.FlagFreeSlots over
	// FlagWritingSlots) — the static coverage of the dead-flag
	// elimination on each tracked row. Rows whose start program writes no
	// flags at all (the SSE rewrite rows) record 1.0: nothing to
	// suppress, full coverage.
	FlagFree map[string]float64 `json:"flag_free"`

	// RegFree maps "kernel/ell=N" to the fraction of register-writing
	// slots the register-liveness pass suppressed across the compiled
	// chain's proposals (mcmc.Stats.RegFreeSlots over RegWritingSlots,
	// sampled per proposal after patching). The fraction is dynamic —
	// measured over the candidates the chain actually visits under the
	// kernel's live-out exit gens — because the -O0 start programs
	// themselves carry almost no dead register writes. A chain that never
	// saw a register-writing slot records 1.0: nothing to suppress.
	RegFree map[string]float64 `json:"reg_free"`
}

// evalConfigs are the measured profiles: the headline p01 ℓ=14/ℓ=50 pair
// matching BenchmarkEvalThroughput, plus a longer register kernel, the
// memory-heavy Montgomery kernel, and the SSE saxpy kernel as secondary
// tracking points. The saxpy kernel is measured twice: a chain from the
// scalar -O0 target (the synthesis-entry regime) and a chain from the
// paper's Figure 14 SSE rewrite (fromRewrite), whose candidates execute the
// packed micro-ops on every testcase — the row that tracks the DIV/IDIV +
// SSE lowering of the compiled pipeline.
var evalConfigs = []struct {
	label       string // row name; defaults to the kernel name
	kernel      string
	ell         int
	fromRewrite bool // start the chain from PaperRewrite instead of Target
}{
	{"", "p01", 14, false},
	{"", "p01", 50, false},
	{"", "p23", 50, false},
	{"", "mont", 50, false},
	{"", "saxpy", 50, false},
	{"saxpy-sse", "saxpy", 50, true},
}

// MeasureEvalThroughput runs each baseline configuration for the given
// proposal budget through both evaluation pipelines (an optimization-phase
// chain: β=1, perf term on, started from the target).
func MeasureEvalThroughput(proposals int64) (EvalBaseline, error) {
	base := EvalBaseline{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Date:      time.Now().UTC().Format("2006-01-02"),
		Speedups:  map[string]float64{},
		FlagFree:  map[string]float64{},
		RegFree:   map[string]float64{},
	}
	for _, cfg := range evalConfigs {
		bench, err := kernels.ByName(cfg.kernel)
		if err != nil {
			return base, err
		}
		label := cfg.label
		if label == "" {
			label = cfg.kernel
		}
		startProg := bench.Target
		if cfg.fromRewrite {
			startProg = bench.PaperRewrite
		}
		tests, err := testgen.Generate(bench.Target, bench.Spec, 32, rand.New(rand.NewSource(8)))
		if err != nil {
			return base, err
		}
		var rates [2]float64
		regFree := 1.0
		for mi, mode := range []string{"interpreted", "compiled"} {
			params := mcmc.PaperParams
			params.Ell = cfg.ell
			params.Beta = 1.0
			s := &mcmc.Sampler{
				Params: params,
				Pools:  mcmc.PoolsFor(bench.Target, bench.SSE),
				// The engine's configuration: candidates compile under the
				// kernel's live-out exit gens, so the register-liveness
				// pass suppresses writes of non-live registers.
				Cost:        cost.NewLive(tests, bench.Spec.LiveOut, cost.Improved, 1),
				Rng:         rand.New(rand.NewSource(9)),
				Interpreted: mi == 0,
			}
			start := time.Now()
			res := s.Run(context.Background(), startProg, proposals)
			dur := time.Since(start)
			if mi == 1 {
				regFree = res.Stats.RegFreeFraction()
			}
			rate := float64(proposals) / dur.Seconds()
			rates[mi] = rate
			base.Runs = append(base.Runs, EvalRate{
				Kernel:          label,
				Ell:             cfg.ell,
				Mode:            mode,
				Proposals:       proposals,
				Seconds:         dur.Seconds(),
				ProposalsPerSec: rate,
			})
		}
		key := fmt.Sprintf("%s/ell=%d", label, cfg.ell)
		base.Speedups[key] = rates[1] / rates[0]
		comp := emu.Compile(startProg.PadTo(cfg.ell))
		// Every benched kernel gets a flag_free row: a start program with no
		// flag-writing slots (saxpy-sse) means the pass has nothing left to
		// prove — report full coverage, not a missing entry.
		base.FlagFree[key] = 1.0
		if w := comp.FlagWritingSlots(); w > 0 {
			base.FlagFree[key] = float64(comp.FlagFreeSlots()) / float64(w)
		}
		base.RegFree[key] = regFree
	}
	return base, nil
}

// EvalCheckTolerance is the fractional regression -check tolerates on each
// tracked ratio before failing: generous enough for noisy CI boxes, tight
// enough to catch a compiled pipeline that lost its edge over the
// interpreter or a liveness pass that lost its coverage.
const EvalCheckTolerance = 0.35

// CheckEvalBaseline measures a fresh evaluation baseline and compares its
// box-independent ratios — the compiled/interpreted speedups plus the
// flag-free and reg-free coverage fractions — against the committed
// BENCH_eval.json at path, failing on any tracked row that regressed by
// more than EvalCheckTolerance. Absolute proposals/sec are
// deliberately not compared: they measure the box, not the code.
func CheckEvalBaseline(path string, proposals int64) (EvalBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return EvalBaseline{}, err
	}
	var committed EvalBaseline
	if err := json.Unmarshal(data, &committed); err != nil {
		return EvalBaseline{}, fmt.Errorf("%s: %w", path, err)
	}
	fresh, err := MeasureEvalThroughput(proposals)
	if err != nil {
		return fresh, err
	}
	if failures := compareEvalBaselines(committed, fresh); len(failures) > 0 {
		return fresh, fmt.Errorf("eval baseline regressed against %s:\n  %s",
			path, strings.Join(failures, "\n  "))
	}
	return fresh, nil
}

// compareEvalBaselines reports every tracked ratio of the committed
// baseline that the fresh measurement misses or regresses beyond
// EvalCheckTolerance. Rows only the fresh measurement has are ignored:
// new kernels must not fail the guard before their baseline lands.
func compareEvalBaselines(committed, fresh EvalBaseline) []string {
	var failures []string
	check := func(metric string, want, got map[string]float64) {
		for key, w := range want {
			g, ok := got[key]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s %s: missing from fresh measurement", metric, key))
				continue
			}
			if g < w*(1-EvalCheckTolerance) {
				failures = append(failures, fmt.Sprintf("%s %s: %.2f fresh vs %.2f committed (>%.0f%% regression)",
					metric, key, g, w, 100*EvalCheckTolerance))
			}
		}
	}
	check("speedup", committed.Speedups, fresh.Speedups)
	check("flag_free", committed.FlagFree, fresh.FlagFree)
	check("reg_free", committed.RegFree, fresh.RegFree)
	sort.Strings(failures)
	return failures
}

// WriteEvalBaseline measures evaluation throughput and writes the baseline
// JSON to path.
func WriteEvalBaseline(path string, proposals int64) (EvalBaseline, error) {
	base, err := MeasureEvalThroughput(proposals)
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
