package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/kernels"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/x64"
)

// The serve workload: one closed-loop client over HTTP to an in-process
// server with a file-backed rewrite store. Each kernel family gets one cold
// submission, then exact and α-renamed resubmissions (store hits, the
// renamed ones found through canonicalization), then one constant-changed
// near miss (a warm-started search).
var serveFamilies = []string{"p01", "p05", "p09", "p14"}

const (
	serveExactHits = 50 // exact resubmissions per family
	serveAliasHits = 50 // α-renamed resubmissions per family
)

// serveBudgets is every search job's budget envelope. Jobs run at the
// library's default search seed.
var serveBudgets = server.Budgets{SynthProposals: 30000, OptProposals: 30000,
	SynthChains: 2, OptChains: 2, Tests: 32}

// Request classes: what the seeded plan expects the server to do.
const (
	classCold  = "cold"  // miss: a search from scratch
	classHit   = "hit"   // exact store hit
	classAlias = "alias" // α-renamed store hit
	classNear  = "near"  // constant-changed near miss: a warm-started search
)

type serveReq struct {
	class string
	fam   *kernels.Bench
	perm  *[x64.NumGPR]x64.Reg // requester's register space
	ref   *x64.Program         // reference of a near miss (its own target)
	body  []byte
}

type servePlan struct {
	reqs  []serveReq
	check int64
}

func planServe(all map[string]*kernels.Bench, seed int64, limit int) (*servePlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &servePlan{check: rng.Int63()}
	order := rng.Perm(len(serveFamilies))
	if limit > 0 && limit < len(order) {
		order = order[:limit]
	}
	for _, fi := range order {
		b, ok := all[serveFamilies[fi]]
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", serveFamilies[fi])
		}
		add := func(class string, target *x64.Program, perm *[x64.NumGPR]x64.Reg, ref *x64.Program) error {
			body, err := json.Marshal(server.SubmitRequest{Kernel: wireKernel(b, target, perm), Budgets: serveBudgets})
			if err != nil {
				return err
			}
			p.reqs = append(p.reqs, serveReq{class: class, fam: b, perm: perm, ref: ref, body: body})
			return nil
		}
		if err := add(classCold, b.Target, identity(), nil); err != nil {
			return nil, err
		}
		hits := make([]string, 0, serveExactHits+serveAliasHits)
		for i := 0; i < serveExactHits; i++ {
			hits = append(hits, classHit)
		}
		for i := 0; i < serveAliasHits; i++ {
			hits = append(hits, classAlias)
		}
		rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
		for _, class := range hits {
			perm := identity()
			if class == classAlias {
				perm = randomRenaming(b.Target, rng)
			}
			if err := add(class, rename(b.Target, perm), perm, nil); err != nil {
				return nil, err
			}
		}
		near, ok := bumpConst(b.Target)
		if !ok {
			return nil, fmt.Errorf("%s has no constant to change", b.Name)
		}
		if err := add(classNear, near, identity(), near); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// wireKernel is the HTTP form of an HD kernel's target in the register
// space perm maps it into.
func wireKernel(b *kernels.Bench, target *x64.Program, perm *[x64.NumGPR]x64.Reg) server.KernelSpec {
	k := server.KernelSpec{Name: b.Name, Target: target.String(), Stack: 1 << 10,
		Outputs32: []string{x64.GPRName(perm[x64.RAX], 4)}}
	for _, r := range hdArgRegs[:b.Params] {
		k.Inputs32 = append(k.Inputs32, x64.GPRName(perm[r], 4))
	}
	return k
}

// runServe executes one pass of the serve workload against env's server.
func runServe(ctx context.Context, env *env, tr *tracer, root int, out *pass) {
	plan := env.serve
	for i, rq := range plan.reqs {
		id := fmt.Sprintf("%s/%s/%d", rq.fam.Name, rq.class, i)
		out.attempted++
		switch rq.class {
		case classHit, classAlias:
			sp := tr.begin("hit", id, root)
			op := startOp()
			code, view, err := env.client.submit(ctx, rq.body)
			out.endOp(op, opHit)
			tr.end(sp)
			if err != nil {
				out.fail("%s: %v", id, err)
				continue
			}
			if code != http.StatusOK || view.Result == nil || !view.Result.CacheHit {
				out.fail("%s: expected a store hit, got HTTP %d status %q", id, code, view.Status)
				continue
			}
			out.serveResult(id, "hit", rq, view.Result, 0, tr, root, plan.check+int64(i))
		default:
			job := tr.begin("job", id, root)
			sp := tr.begin("http.submit", id, job)
			op := startOp()
			code, view, err := env.client.submit(ctx, rq.body)
			out.missProbeMS = append(out.missProbeMS, 1e3*time.Since(op.t).Seconds())
			tr.end(sp)
			if err == nil && code != http.StatusAccepted {
				err = fmt.Errorf("expected a queued job, got HTTP %d status %q", code, view.Status)
			}
			if err == nil {
				sp = tr.begin("http.wait", id, job)
				view, err = env.client.wait(ctx, view.ID, tr, sp)
				tr.end(sp)
			}
			lat := out.endOp(op, opJob)
			tr.end(job)
			if rq.class == classCold {
				out.coldS = append(out.coldS, lat)
			} else {
				out.warmS = append(out.warmS, lat)
			}
			var kinds map[string]int
			if err == nil {
				kinds, err = env.client.history(ctx, view.ID, tr, out)
			}
			if err != nil {
				out.fail("%s: %v", id, err)
				continue
			}
			if view.Status != "done" || view.Result == nil {
				out.fail("%s: job ended %q: %s", id, view.Status, view.Error)
				continue
			}
			served := classCold
			if kinds["warm-start"] > 0 {
				served = classNear
			}
			if served != rq.class || kinds["cache-hit"] > 0 {
				out.fail("%s: served as %s (warm-start events %d, cache-hit events %d)",
					id, served, kinds["warm-start"], kinds["cache-hit"])
			}
			out.add("verify.model_mismatches", float64(kinds["model-mismatch"]))
			out.noteMismatches(id, kinds["model-mismatch"])
			res := view.Result
			out.judged++
			if res.Verdict == "equal" {
				out.proven++
			}
			out.speedups = append(out.speedups, res.Speedup)
			if rq.class == classCold {
				out.vsGcc = append(out.vsGcc, pipeline.Cycles(rq.fam.GccO3)/res.RewriteCycles)
			}
			out.add("mcmc.proposals", float64(res.Proposals))
			out.add("search.refinements", float64(res.Refinements))
			out.add("search.swaps", float64(kinds["swap"]))
			out.add("search.prunes", float64(kinds["prune"]))
			out.add("verify.replay_kills", float64(kinds["replay-kill"]))
			out.add("verify.gate_deferrals", float64(kinds["gate-defer"]))
			out.serveResult(id, served, rq, res, kinds["model-mismatch"], tr, root, plan.check+int64(i))
		}
	}
	st, err := env.client.statsz(ctx)
	if err != nil {
		out.fail("statsz: %v", err)
		return
	}
	out.add("server.hit_server_us", float64(st.CacheHitMeanUS))
	out.add("server.searches_launched", float64(st.SearchesLaunched))
	if st.Store != nil {
		out.addStoreStats(*st.Store)
	}
	out.sig = append(out.sig, fmt.Sprintf("statsz hits=%d misses=%d searches=%d", st.CacheHits, st.CacheMisses, st.SearchesLaunched))
}

// serveResult checks one served rewrite in the requester's register space
// and records its deterministic outcome, including the class of service
// the server gave the request and the job's symbolic-model mismatches.
func (out *pass) serveResult(id, served string, rq serveReq, res *server.Result, mismatches int, tr *tracer, root int, checkSeed int64) {
	out.sig = append(out.sig, fmt.Sprintf("%s served=%s %s speedup=%.6g proposals=%d refinements=%d mismatches=%d",
		id, served, res.Verdict, res.Speedup, res.Proposals, res.Refinements, mismatches))
	rw, err := x64.Parse(res.Rewrite)
	if err != nil {
		out.fail("%s: unparsable rewrite: %v", id, err)
		return
	}
	if rq.class != classHit && rq.class != classAlias {
		target := rq.fam.Target
		if rq.ref != nil {
			target = rq.ref
		}
		out.finals = append(out.finals, final{b: rq.fam, target: target, rewrite: rw, tests: res.Tests})
	}
	sp := tr.begin("check", id, root)
	if err := checkRewrite(rq.fam, rw, rq.ref, rq.perm, rand.New(rand.NewSource(checkSeed))); err != nil {
		out.fail("%s: %v", id, err)
	}
	tr.end(sp)
}

// client is the workload's single closed-loop HTTP client.
type client struct {
	base string
	http *http.Client
}

func (c *client) submit(ctx context.Context, body []byte) (int, server.JobView, error) {
	var view server.JobView
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, view, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, view, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, view, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, view, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, view, json.Unmarshal(data, &view)
}

// wireEvent is the part of the server's SSE engine event the client reads.
type wireEvent struct {
	Kind      string `json:"kind"`
	Phase     string `json:"phase"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// wait follows a job's event stream until its terminal view, tracing the
// phases as they arrive. The server drops a live event that a slow
// subscriber has no room for, so the stream is not counted: a phase whose
// end was dropped is closed when the job is.
func (c *client) wait(ctx context.Context, id string, tr *tracer, parent int) (server.JobView, error) {
	open := map[string]int{}
	view, err := c.events(ctx, id, func(ev wireEvent) {
		switch ev.Kind {
		case "phase-start":
			open[ev.Phase] = tr.begin("stoke."+ev.Phase, id, parent)
		case "phase-end":
			tr.end(open[ev.Phase])
			delete(open, ev.Phase)
		}
	})
	for _, sp := range open {
		tr.end(sp)
	}
	return view, err
}

// serverEventBuffer is how many events the server keeps of a job
// (internal/server's maxBufferedEvents); it evicts the oldest beyond that.
const serverEventBuffer = 4096

// history reads a finished job's event history and counts it by kind. A
// finished job's stream replays the server's buffer of its events and
// drops none, so the counts are exact unless the buffer was full: a
// history of serverEventBuffer events may have lost its oldest ones, and a
// history whose phase starts and ends do not pair up has a gap; both fail.
// In a traced pass it also records each phase's wall time.
func (c *client) history(ctx context.Context, id string, tr *tracer, out *pass) (map[string]int, error) {
	kinds := map[string]int{}
	var n int
	phases := map[string]int{}
	var walls []wireEvent
	_, err := c.events(ctx, id, func(ev wireEvent) {
		n++
		kinds[ev.Kind]++
		switch ev.Kind {
		case "phase-start":
			phases[ev.Phase]++
		case "phase-end":
			phases[ev.Phase]--
			walls = append(walls, ev)
		}
	})
	if err != nil {
		return kinds, err
	}
	if n >= serverEventBuffer {
		return kinds, fmt.Errorf("events: history of %d events may be truncated", n)
	}
	for phase, open := range phases {
		if open != 0 {
			return kinds, fmt.Errorf("events: phase %q starts and ends do not pair up (%+d)", phase, open)
		}
	}
	if tr != nil {
		for _, ev := range walls {
			out.add("stoke."+phaseMetric[ev.Phase]+"_wall_s", float64(ev.ElapsedMS)/1e3)
		}
	}
	return kinds, nil
}

// events reads a job's SSE stream, passing each engine event to fn, until
// the terminal job view.
func (c *client) events(ctx context.Context, id string, fn func(wireEvent)) (server.JobView, error) {
	var view server.JobView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return view, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			return view, json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &view)
		case strings.HasPrefix(line, "data: "):
			var ev wireEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return view, fmt.Errorf("events: %w", err)
			}
			fn(ev)
		}
	}
	if err := sc.Err(); err != nil {
		return view, fmt.Errorf("events: %w", err)
	}
	return view, fmt.Errorf("events: stream ended before the job finished")
}

func (c *client) statsz(ctx context.Context) (server.Statsz, error) {
	var st server.Statsz
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/statsz", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
