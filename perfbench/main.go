// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (search, verify or serve) through the public stoke,
// internal/server and layer APIs, checks every output against an
// independent reference, and prints the metrics as one JSON line:
//
//	perfbench --workload search --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it repeats the workload's fixed work on a fresh engine and
// store until --seconds are spent and reports the end-to-end metrics as
// medians over the repetitions. With --trace 1 it runs the work once
// untraced and once traced, writes the spans to --trace-out, and reports
// the per-layer metrics. run.py next to this file builds and runs it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	workdir  string
	limit    int // shortens the plan to this many kernels or families (tests)
}

// setupReps is how many set-ups a run times before each pass and after the
// last, beyond each pass's own; setup_s is the median over all of them. One
// set-up takes milliseconds, so a burst of load on a shared machine slows a
// run of back-to-back set-ups together: spread over the run, each from a
// collected heap, the set-ups give a median that such a burst barely moves.
const setupReps = 15

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies what was measured, where and how.
type provenance struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Commit        string  `json:"commit"`
	CPU           string  `json:"cpu"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	EngineWorkers int     `json:"engine_workers"`
	GoVersion     string  `json:"go_version"`
	Seconds       float64 `json:"seconds"`
	Trace         bool    `json:"trace"`
	Samples       int     `json:"samples"`
	Warmup        int     `json:"warmup"`
	SetupSamples  int     `json:"setup_samples"`
}

// run is one measurement: untraced passes, and in trace mode one traced
// pass with its spans and direct layer timings.
type run struct {
	passes  []*pass
	traced  *pass
	setupS  []float64
	storeMS []float64
	layers  map[string]float64
	spans   []span
	peakMB  float64
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: search, verify or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 40, "measuring time; the fixed work repeats until it is spent")
	trace := fs.Int("trace", 0, "1: run once untraced and once traced and report per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "file the traced run's spans are written to")
	fs.StringVar(&cfg.workdir, "workdir", os.TempDir(), "directory for the serve workload's store files")
	commit := fs.String("commit", "unknown", "commit being measured (provenance)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1

	ctx := context.Background()
	r, err := measure(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	prov := provenance{
		Workload: cfg.workload, Seed: cfg.seed, Commit: *commit,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		EngineWorkers: engineWorkers, GoVersion: runtime.Version(), Seconds: cfg.seconds,
		Trace: cfg.trace, Samples: len(r.passes), SetupSamples: len(r.setupS),
	}
	res := r.result(cfg, stderr)
	if cfg.trace {
		self := selfTimes(r.spans)
		fmt.Fprintf(stderr, "tracing overhead: %+.3fs (traced %.3fs, untraced %.3fs wall)\n",
			r.traced.wallS-r.passes[0].wallS, r.traced.wallS, r.passes[0].wallS)
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		for _, n := range names {
			fmt.Fprintf(stderr, "  self %-28s %9.4fs\n", n, self[n])
		}
		if cfg.traceOut != "" {
			if err := writeTrace(cfg.traceOut, prov, r.spans); err != nil {
				fmt.Fprintln(stderr, "perfbench: trace:", err)
				return 1
			}
		}
	}
	w := bufio.NewWriter(stdout)
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]provenance{"provenance": prov})
	_ = enc.Encode(res)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// measure runs the configured workload.
func measure(ctx context.Context, cfg config, log io.Writer) (*run, error) {
	r := &run{}
	n := 0
	setups := func() error {
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			start := time.Now()
			e, err := setup(cfg.workload, cfg.seed, cfg.limit, cfg.workdir, n)
			if err != nil {
				return err
			}
			r.setupS = append(r.setupS, time.Since(start).Seconds())
			r.storeMS = append(r.storeMS, e.storeMS)
			if err := e.close(); err != nil {
				return fmt.Errorf("teardown: %w", err)
			}
			n++
		}
		return nil
	}

	start := time.Now()
	for {
		if err := setups(); err != nil {
			return nil, err
		}
		p, err := runPass(ctx, cfg, nil, n, nil)
		if err != nil {
			return nil, err
		}
		n++
		r.passes = append(r.passes, p)
		r.setupS = append(r.setupS, p.setupS)
		r.storeMS = append(r.storeMS, p.storeMS)
		fmt.Fprintf(log, "pass %d: wall %.3fs cpu %.3fs setup %.2fms, %d operations, %d failed\n",
			len(r.passes), p.wallS, p.cpuS, 1e3*p.setupS, p.attempted, len(p.failures))
		if cfg.trace || time.Since(start).Seconds()+p.wallS > cfg.seconds {
			break
		}
	}
	if err := setups(); err != nil {
		return nil, err
	}
	if cfg.trace {
		tr := newTracer()
		p, err := runPass(ctx, cfg, tr, n, func(e *env, p *pass) {
			r.layers = timeLayers(ctx, p.finals, e.store, tr)
		})
		if err != nil {
			return nil, err
		}
		r.traced = p
		r.spans = tr.spans
		fmt.Fprintf(log, "traced pass: wall %.3fs, %d spans\n", p.wallS, len(tr.spans))
	}
	r.peakMB = peakRSSMB()
	return r, nil
}

// result assembles the output line: outcomes from every pass, metrics from
// the untraced passes (end-to-end) or the traced pass (per-layer).
func (r *run) result(cfg config, log io.Writer) result {
	all := r.passes
	if r.traced != nil {
		all = append(append([]*pass(nil), all...), r.traced)
	}
	res := result{Metrics: map[string]metric{}}
	var failures []string
	for i, p := range all {
		res.Attempted += p.attempted
		failures = append(failures, p.failures...)
		// Every pass repeats the same seeded work on a fresh engine and
		// store, traced or not: its outcomes must repeat exactly.
		if i > 0 && !reflect.DeepEqual(p.sig, all[0].sig) {
			res.Attempted++
			failures = append(failures, fmt.Sprintf("pass %d outcomes differ from pass 1:\n  %s\nvs\n  %s",
				i+1, strings.Join(p.sig, "\n  "), strings.Join(all[0].sig, "\n  ")))
		}
	}
	// Mismatches repeat in every pass (they are part of its outcome), so
	// the first pass's are printed for the run.
	for _, n := range all[0].notes {
		fmt.Fprintln(log, "NOTE (reported, not failed):", n)
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(log, "... and %d more failures\n", len(failures)-i)
			break
		}
		fmt.Fprintln(log, "FAILED:", f)
	}
	res.Failed = min(len(failures), res.Attempted)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }

	if !cfg.trace {
		first := r.passes[0]
		ops := r.medianPass()
		var wall, cpu float64
		for _, o := range ops {
			wall += o.wall
			cpu += o.cpu
		}
		set("setup_s", "s", quantile(r.setupS, 0.5))
		set("wall_s", "s", wall)
		set("cpu_s", "s", cpu)
		set("peak_rss_mb", "MB", r.peakMB)
		set("speedup_geomean", "x", geomean(first.speedups))
		set("vs_gcc_o3_geomean", "x", geomean(first.vsGcc))
		set("proven_frac", "ratio", ratio(float64(first.proven), float64(first.judged)))
		set("job_p50_s", "s", quantile(walls(ops, opJob), 0.5))
		set("hit_p50_ms", "ms", 1e3*quantile(walls(ops, opHit), 0.5))
		return res
	}

	t, L := r.traced, r.traced.layer
	busy := L["stoke.synth_busy_s"] + L["stoke.opt_busy_s"]
	phaseWall := L["stoke.synth_wall_s"] + L["stoke.opt_wall_s"] + L["stoke.validate_wall_s"]
	for _, name := range []string{"stoke.synth_busy_s", "stoke.opt_busy_s", "stoke.verify_s",
		"stoke.synth_wall_s", "stoke.opt_wall_s", "stoke.validate_wall_s"} {
		set(name, "s", L[name])
	}
	set("verify.proof_total_s", "s", sum(t.proofMS)/1e3)
	set("stoke.pool_util", "ratio", ratio(busy+L["stoke.verify_s"], phaseWall*engineWorkers))
	for _, name := range []string{"search.swaps", "search.prunes", "search.skipped_validations",
		"search.refinements", "mcmc.proposals", "verify.sat_calls", "verify.replay_kills",
		"verify.gate_deferrals", "verify.model_mismatches", "store.hits", "store.misses",
		"store.near_hits", "store.puts", "server.searches_launched"} {
		set(name, "count", L[name])
	}
	set("mcmc.accept_ratio", "ratio", ratio(L["mcmc.accepts"], L["mcmc.proposals"]))
	set("mcmc.proposals_per_busy_s", "1/s", ratio(L["mcmc.proposals"], busy))
	set("cost.tests_per_proposal", "count", ratio(L["cost.tests_evaluated"], L["mcmc.proposals"]))
	set("emu.reg_free_frac", "ratio", ratio(L["emu.reg_free_slots"], L["emu.reg_writing_slots"]))
	set("verify.proof_p50_ms", "ms", quantile(t.proofMS, 0.5))
	set("verify.proof_p90_ms", "ms", quantile(t.proofMS, 0.9))
	set("verify.clauses_p50", "count", quantile(t.clauses, 0.5))
	set("verify.concluded_ratio", "ratio",
		ratio(L["verify.sat_calls"]-L["verify.unknown_verdicts"], L["verify.sat_calls"]))
	for _, name := range []string{"cost.eval_us", "emu.compile_us", "canon.canonicalize_us", "store.get_us"} {
		set(name, "us", r.layers[name])
	}
	set("verify.equivalent_ms", "ms", r.layers["verify.equivalent_ms"])
	set("testgen.generate_ms", "ms", r.layers["testgen.generate_ms"])
	set("store.open_ms", "ms", quantile(r.storeMS, 0.5))
	// The hit latency tail moves by more between runs on a shared machine
	// than any end-to-end bound may allow, so it is a per-layer figure.
	set("hit_p90_ms", "ms", 1e3*quantile(walls(t.ops, opHit), 0.9))
	set("server.hit_server_us", "us", L["server.hit_server_us"])
	overhead := 0.0
	if L["server.hit_server_us"] > 0 {
		overhead = 1e6*mean(walls(t.ops, opHit)) - L["server.hit_server_us"]
	}
	set("server.http_overhead_us", "us", overhead)
	set("server.miss_probe_ms", "ms", quantile(t.missProbeMS, 0.5))
	set("serve.cold_p50_s", "s", quantile(t.coldS, 0.5))
	set("serve.warm_p50_s", "s", quantile(t.warmS, 0.5))
	set("trace.overhead_s", "s", t.wallS-r.passes[0].wallS)
	set("trace.spans", "count", float64(len(r.spans)))
	self := selfTimes(r.spans)
	for _, name := range selfSpans {
		set("self."+name+"_s", "s", self[name])
	}
	return res
}

// medianPass returns every operation of the passes with its median wall
// and CPU time across the passes: the operations of a typical pass. Every
// pass runs the same operations in the same order, so a burst of machine
// noise during one pass moves only the operations it overlapped, in that
// pass, and the median over three or more passes drops it. Passes that
// disagree on their operations (the run has then failed) give the first
// pass's operations.
func (r *run) medianPass() []opTime {
	first := r.passes[0].ops
	for _, p := range r.passes {
		if len(p.ops) != len(first) {
			return first
		}
	}
	out := make([]opTime, len(first))
	for i, op := range first {
		var ws, cs []float64
		for _, p := range r.passes {
			ws = append(ws, p.ops[i].wall)
			cs = append(cs, p.ops[i].cpu)
		}
		out[i] = opTime{op.kind, quantile(ws, 0.5), quantile(cs, 0.5)}
	}
	return out
}

// walls lists the wall seconds of the operations of a kind.
func walls(ops []opTime, kind string) []float64 {
	var out []float64
	for _, o := range ops {
		if o.kind == kind {
			out = append(out, o.wall)
		}
	}
	return out
}

// selfSpans are the workload span names whose self time is reported.
var selfSpans = []string{"pass", "job", "stoke.synthesis", "stoke.optimization",
	"stoke.validation", "hit", "http.submit", "http.wait", "check"}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuModel reads the processor's model name.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
