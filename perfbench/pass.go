package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/kernels"
	"repro/internal/store"
	"repro/internal/x64"
	"repro/stoke"
)

// pass is one execution of a workload's fixed work on a fresh engine and
// store, and everything measured about it.
type pass struct {
	setupS  float64 // process state → first Optimize call or request
	storeMS float64 // the store.Open share of setupS
	wallS   float64
	cpuS    float64

	coldS       []float64 // serve: submit-to-done latency of cold jobs
	warmS       []float64 // serve: the same for near-miss (warm-started) jobs
	missProbeMS []float64 // serve: POST latency of submissions that queue a job

	speedups, vsGcc []float64
	proven, judged  int

	attempted int
	failures  []string
	notes     []string // symbolic-model mismatches, reported but not failed
	// rerequestMisses counts suite re-requests the store could not serve.
	rerequestMisses int
	sig             []string // the deterministic outcome, one line per job or request

	ops []opTime // every operation of the pass, in order

	finals  []final            // final rewrites, replayed by the direct layer timings
	layer   map[string]float64 // per-layer counters
	proofMS []float64
	clauses []float64
}

// final is one job's outcome as the direct layer timings replay it.
type final struct {
	b       *kernels.Bench
	target  *x64.Program
	rewrite *x64.Program
	tests   int // final τ size
}

// opTime is the wall and process CPU time of one operation of a kind.
type opTime struct {
	kind      string
	wall, cpu float64
}

// Operation kinds.
const (
	opJob  = "job"  // a search job, submitted to proven rewrite
	opHit  = "hit"  // a request answered from the store
	opMiss = "miss" // a suite re-request the store could not answer
)

// opStart marks the start of an operation.
type opStart struct {
	t   time.Time
	cpu float64
}

func startOp() opStart { return opStart{time.Now(), cpuSeconds()} }

// endOp records the operation started at s and returns its wall seconds.
func (p *pass) endOp(s opStart, kind string) float64 {
	op := opTime{kind, time.Since(s.t).Seconds(), cpuSeconds() - s.cpu}
	p.ops = append(p.ops, op)
	return op.wall
}

func (p *pass) add(name string, v float64) { p.layer[name] += v }

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (p *pass) addReport(rep *stoke.Report) {
	p.add("stoke.synth_busy_s", rep.SynthTime.Seconds())
	p.add("stoke.opt_busy_s", rep.OptTime.Seconds())
	p.add("stoke.verify_s", rep.VerifyTime.Seconds())
	p.add("search.swaps", float64(rep.Swaps))
	p.add("search.prunes", float64(rep.Prunes))
	p.add("search.skipped_validations", float64(rep.SkippedValidations))
	p.add("search.refinements", float64(rep.Refinements))
	p.add("mcmc.proposals", float64(rep.Stats.Proposals))
	p.add("mcmc.accepts", float64(rep.Stats.Accepts))
	p.add("cost.tests_evaluated", float64(rep.Stats.TestsEvaluated))
	p.add("emu.reg_free_slots", float64(rep.Stats.RegFreeSlots))
	p.add("emu.reg_writing_slots", float64(rep.Stats.RegWritingSlots))
	p.add("verify.sat_calls", float64(rep.Proofs.SATCalls))
	p.add("verify.replay_kills", float64(rep.Proofs.ReplayKills))
	p.add("verify.gate_deferrals", float64(rep.Proofs.GateDeferrals))
	p.add("verify.model_mismatches", float64(rep.Proofs.ModelMismatches))
	for _, d := range rep.Proofs.Times {
		p.proofMS = append(p.proofMS, 1e3*d.Seconds())
	}
	for _, c := range rep.Proofs.Clauses {
		p.clauses = append(p.clauses, float64(c))
	}
	p.noteMismatches(rep.Kernel, rep.Proofs.ModelMismatches)
}

// noteMismatches records a job's symbolic-model mismatches: SAT NotEqual
// verdicts whose counterexample does not reproduce on the emulator. The
// validator models both halves of a 64-bit product as uninterpreted
// functions (paper §5.2), so a candidate whose output depends on one can
// get a counterexample no real product gives; the engine then treats the
// query as inconclusive and keeps searching. No output is wrong when that
// happens (the final rewrite is still SAT-proven and checked against the
// reference), so a mismatch is reported, not failed, and is part of the
// job's deterministic outcome.
func (p *pass) noteMismatches(job string, n int) {
	if n > 0 {
		p.notes = append(p.notes, fmt.Sprintf("%s: %d symbolic-model mismatches", job, n))
	}
}

func (p *pass) addStoreStats(st store.Stats) {
	p.add("store.hits", float64(st.Hits))
	p.add("store.misses", float64(st.Misses))
	p.add("store.near_hits", float64(st.NearHits))
	p.add("store.puts", float64(st.Puts))
}

// runPass sets up a fresh env, runs the workload's fixed work once, calls
// after (if non-nil) while the env is still open, and tears it down.
func runPass(ctx context.Context, cfg config, tr *tracer, n int, after func(*env, *pass)) (*pass, error) {
	p := &pass{layer: map[string]float64{}}
	runtime.GC()
	t0 := time.Now()
	e, err := setup(cfg.workload, cfg.seed, cfg.limit, cfg.workdir, n)
	if err != nil {
		return nil, err
	}
	p.setupS = time.Since(t0).Seconds()
	p.storeMS = e.storeMS

	root := tr.begin("pass", cfg.workload, 0)
	cpu0 := cpuSeconds()
	start := time.Now()
	switch cfg.workload {
	case "search":
		runSuite(ctx, &searchSuite, e, tr, root, p)
	case "verify":
		runSuite(ctx, &verifySuite, e, tr, root, p)
	case "serve":
		runServe(ctx, e, tr, root, p)
	}
	p.wallS = time.Since(start).Seconds()
	p.cpuS = cpuSeconds() - cpu0
	tr.end(root)

	if after != nil {
		after(e, p)
	}
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	return p, nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
