// Package server turns the stoke engine into a long-running
// superoptimization service: an HTTP/JSON job API over an async queue,
// fronted by the content-addressed rewrite store.
//
// Endpoints:
//
//	POST /v1/jobs            submit a kernel (+ live-outs + budgets); an
//	                         exact store hit answers synchronously with
//	                         the proven rewrite, anything else enqueues
//	GET  /v1/jobs/{id}       poll a job
//	GET  /v1/jobs/{id}/events  typed engine events over SSE (replayed
//	                         from the start of the job, then live)
//	GET  /healthz            liveness ("ok", or "draining" with 503)
//	GET  /statsz             store + job + cache counters as JSON
//
// Scheduling: a fixed worker pool consumes the queue; per-tenant
// concurrency budgets (the X-Tenant header names the tenant) bound how
// many of one tenant's jobs run at once, so a single heavy user queues
// behind itself, not in front of everyone else. Identical in-flight
// submissions — same canonical fingerprint and constants — deduplicate:
// the second submitter attaches to the running job instead of launching a
// second search.
//
// Shutdown drains gracefully: new submissions are refused, running
// searches are cancelled, and every cancelled job completes with the
// engine's best-so-far Partial report rather than an error.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/internal/x64"
	"repro/stoke"
)

// Config sizes a Server.
type Config struct {
	Engine *stoke.Engine
	Store  *store.Store // optional; nil disables caching and dedup-by-content

	// Workers is the number of concurrent jobs (default 2).
	Workers int
	// QueueDepth bounds waiting jobs (default 64); a full queue answers 429.
	QueueDepth int
	// PerTenant bounds one tenant's concurrently *running* jobs
	// (default 1); excess jobs wait in the queue without blocking a worker.
	PerTenant int
	// Options are engine options applied to every job underneath the
	// per-job budget knobs (WithRewriteStore is wired automatically).
	Options []stoke.Option
}

// KernelSpec is the wire form of a register-to-register kernel, mirroring
// stoke.NewKernel's annotations. Register names use assembly spellings
// ("rdi", "eax").
type KernelSpec struct {
	Name      string   `json:"name"`
	Target    string   `json:"target"`
	Inputs    []string `json:"inputs,omitempty"`
	Inputs32  []string `json:"inputs32,omitempty"`
	Outputs   []string `json:"outputs,omitempty"`
	Outputs32 []string `json:"outputs32,omitempty"`
	Stack     int      `json:"stack,omitempty"`
	SSE       bool     `json:"sse,omitempty"`
}

// Budgets is the per-job search budget envelope; zero fields keep the
// server's defaults.
type Budgets struct {
	SynthProposals int64 `json:"synth_proposals,omitempty"`
	OptProposals   int64 `json:"opt_proposals,omitempty"`
	SynthChains    int   `json:"synth_chains,omitempty"`
	OptChains      int   `json:"opt_chains,omitempty"`
	Ell            int   `json:"ell,omitempty"`
	Tests          int   `json:"tests,omitempty"`
	Seed           int64 `json:"seed,omitempty"`
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Kernel  KernelSpec `json:"kernel"`
	Budgets Budgets    `json:"budgets,omitempty"`
}

// Result is the wire form of a finished job's report.
type Result struct {
	Kernel             string  `json:"kernel"`
	Target             string  `json:"target"`
	Rewrite            string  `json:"rewrite"`
	Verdict            string  `json:"verdict"`
	Partial            bool    `json:"partial,omitempty"`
	CacheHit           bool    `json:"cache_hit,omitempty"`
	Fingerprint        string  `json:"fingerprint,omitempty"`
	SynthesisSucceeded bool    `json:"synthesis_succeeded,omitempty"`
	Speedup            float64 `json:"speedup"`
	TargetCycles       float64 `json:"target_cycles"`
	RewriteCycles      float64 `json:"rewrite_cycles"`
	Proposals          int64   `json:"proposals,omitempty"`
	Refinements        int     `json:"refinements,omitempty"`
	Tests              int     `json:"tests,omitempty"`
}

// JobView is the poll answer.
type JobView struct {
	ID       string  `json:"id"`
	Status   string  `json:"status"` // queued | running | done | failed
	Tenant   string  `json:"tenant,omitempty"`
	Attached int64   `json:"attached,omitempty"` // extra submitters deduplicated onto this job
	Error    string  `json:"error,omitempty"`
	Result   *Result `json:"result,omitempty"`
}

// wireEvent is the SSE payload of one engine event.
type wireEvent struct {
	Kind      string  `json:"kind"`
	Kernel    string  `json:"kernel,omitempty"`
	Phase     string  `json:"phase,omitempty"`
	Round     int     `json:"round,omitempty"`
	Chain     int     `json:"chain,omitempty"`
	Partner   int     `json:"partner,omitempty"`
	Proposal  int64   `json:"proposal,omitempty"`
	Cost      float64 `json:"cost,omitempty"`
	Tests     int     `json:"tests,omitempty"`
	Verdict   string  `json:"verdict,omitempty"`
	ElapsedMS int64   `json:"elapsed_ms,omitempty"`
}

func toWire(ev stoke.Event) wireEvent {
	w := wireEvent{
		Kind: ev.Kind.String(), Kernel: ev.Kernel, Phase: ev.Phase,
		Round: ev.Round, Chain: ev.Chain, Partner: ev.Partner,
		Proposal: ev.Proposal, Cost: ev.Cost, Tests: ev.Tests,
		ElapsedMS: ev.Elapsed.Milliseconds(),
	}
	// A verdict event carries the validator's answer; a warm start carries
	// the proof of its substituted rewrite.
	if ev.Kind == stoke.EventVerdict || ev.Kind == stoke.EventWarmStart {
		w.Verdict = ev.Verdict.String()
	}
	return w
}

// maxBufferedEvents caps a job's replayable event history; beyond it the
// oldest events are dropped (SSE subscribers arriving later see a gap, not
// unbounded memory).
const maxBufferedEvents = 4096

type job struct {
	id     string
	tenant string
	kernel stoke.Kernel
	opts   []stoke.Option
	dedup  string // Kernel.StoreKey(); "" when no store is configured

	cancel context.CancelFunc

	mu       sync.Mutex
	status   string
	report   *stoke.Report
	err      error
	events   []stoke.Event
	dropped  int // events evicted from the front of the buffer
	subs     map[chan stoke.Event]struct{}
	done     chan struct{}
	attached atomic.Int64
}

func (j *job) appendEvent(ev stoke.Event) {
	j.mu.Lock()
	if len(j.events) >= maxBufferedEvents {
		j.events = j.events[1:]
		j.dropped++
	}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: it drops this event, the buffer keeps it
		}
	}
	j.mu.Unlock()
}

// subscribe returns the replay snapshot plus a live channel; the caller
// must unsubscribe.
func (j *job) subscribe() ([]stoke.Event, chan stoke.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay := append([]stoke.Event(nil), j.events...)
	ch := make(chan stoke.Event, 256)
	if j.subs == nil {
		j.subs = make(map[chan stoke.Event]struct{})
	}
	j.subs[ch] = struct{}{}
	return replay, ch
}

func (j *job) unsubscribe(ch chan stoke.Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.id, Status: j.status, Tenant: j.tenant, Attached: j.attached.Load()}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.report != nil {
		v.Result = resultOf(j.report)
	}
	return v
}

func resultOf(rep *stoke.Report) *Result {
	r := &Result{
		Kernel:             rep.Kernel,
		Verdict:            rep.Verdict.String(),
		Partial:            rep.Partial,
		CacheHit:           rep.CacheHit,
		Fingerprint:        rep.Fingerprint,
		SynthesisSucceeded: rep.SynthesisSucceeded,
		Speedup:            rep.Speedup(),
		TargetCycles:       rep.TargetCycles,
		RewriteCycles:      rep.RewriteCycles,
		Proposals:          rep.Stats.Proposals,
		Refinements:        rep.Refinements,
		Tests:              rep.Tests,
	}
	if rep.Target != nil {
		r.Target = rep.Target.String()
	}
	if rep.Rewrite != nil {
		r.Rewrite = rep.Rewrite.String()
	}
	return r
}

// Server is the job service. Construct with New, serve via Handler, stop
// with Shutdown.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	queue  chan *job
	quit   chan struct{}
	wg     sync.WaitGroup
	drain  atomic.Bool
	nextID atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job          // dedup key → queued/running job
	tenants  map[string]chan struct{} // per-tenant run slots

	stats struct {
		submitted, completed, failed  atomic.Int64
		attached, cancelled           atomic.Int64
		cacheHits, cacheMisses        atomic.Int64
		cacheHitMicros, cacheHitCount atomic.Int64
	}
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.PerTenant <= 0 {
		cfg.PerTenant = 1
	}
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		quit:     make(chan struct{}),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		tenants:  make(map[string]chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler (mountable under any server).
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: submissions are refused, queued jobs are
// cancelled immediately, running jobs are cancelled and hand back Partial
// best-so-far reports, and the worker pool exits. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drain.Store(true)
	close(s.quit)
	// Cancel every running job; queued ones are failed by the workers as
	// they drain the channel.
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		// A submission that raced the drain flag may have queued after the
		// workers exited; fail it so its poller sees a terminal state.
		for {
			select {
			case j := <-s.queue:
				s.finishCancelledInQueue(j)
			default:
				return nil
			}
		}
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) tenantSlots(tenant string) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	slots, ok := s.tenants[tenant]
	if !ok {
		slots = make(chan struct{}, s.cfg.PerTenant)
		s.tenants[tenant] = slots
	}
	return slots
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			// Drain: fail whatever is still queued so pollers see a
			// terminal state, then exit.
			for {
				select {
				case j := <-s.queue:
					s.finishCancelledInQueue(j)
				default:
					return
				}
			}
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

func (s *Server) finishCancelledInQueue(j *job) {
	s.stats.cancelled.Add(1)
	j.mu.Lock()
	j.status = "failed"
	j.err = errors.New("server draining before the job started")
	close(j.done)
	j.mu.Unlock()
	s.clearInflight(j)
}

func (s *Server) clearInflight(j *job) {
	if j.dedup == "" {
		return
	}
	s.mu.Lock()
	if s.inflight[j.dedup] == j {
		delete(s.inflight, j.dedup)
	}
	s.mu.Unlock()
}

func (s *Server) runJob(j *job) {
	slots := s.tenantSlots(j.tenant)
	select {
	case slots <- struct{}{}:
	case <-s.quit:
		s.finishCancelledInQueue(j)
		return
	}
	defer func() { <-slots }()

	ctx, cancel := context.WithCancel(context.Background())
	j.mu.Lock()
	j.status = "running"
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()
	select {
	case <-s.quit:
		cancel() // drain raced our start; run anyway, it returns Partial fast
	default:
	}

	opts := append([]stoke.Option(nil), j.opts...)
	opts = append(opts, stoke.WithObserver(j.appendEvent))
	rep, err := s.cfg.Engine.Optimize(ctx, j.kernel, opts...)

	j.mu.Lock()
	j.report = rep
	j.err = err
	if err != nil {
		j.status = "failed"
		s.stats.failed.Add(1)
	} else {
		j.status = "done"
		s.stats.completed.Add(1)
		if rep.Partial {
			s.stats.cancelled.Add(1)
		}
	}
	close(j.done)
	j.mu.Unlock()
	s.clearInflight(j)
}

// buildKernel converts the wire spec into a stoke.Kernel.
func buildKernel(spec KernelSpec) (stoke.Kernel, error) {
	if spec.Name == "" {
		return stoke.Kernel{}, errors.New("kernel.name is required")
	}
	target, err := stoke.Parse(spec.Target)
	if err != nil {
		return stoke.Kernel{}, fmt.Errorf("kernel.target: %w", err)
	}
	if err := target.Validate(); err != nil {
		return stoke.Kernel{}, fmt.Errorf("kernel.target: %w", err)
	}
	var kopts []stoke.KernelOption
	toRegs := func(field string, names []string, want8 bool) ([]x64.Reg, error) {
		var out []x64.Reg
		for _, n := range names {
			r, w, xmm, ok := x64.LookupReg(n)
			if !ok || xmm {
				return nil, fmt.Errorf("%s: unknown register %q", field, n)
			}
			if want8 && w != 8 || !want8 && w != 4 {
				return nil, fmt.Errorf("%s: register %q has width %d", field, n, w)
			}
			out = append(out, r)
		}
		return out, nil
	}
	if regs, err := toRegs("inputs", spec.Inputs, true); err != nil {
		return stoke.Kernel{}, err
	} else if len(regs) > 0 {
		kopts = append(kopts, stoke.WithInputs(regs...))
	}
	if regs, err := toRegs("inputs32", spec.Inputs32, false); err != nil {
		return stoke.Kernel{}, err
	} else if len(regs) > 0 {
		kopts = append(kopts, stoke.WithInputs32(regs...))
	}
	outs, err := toRegs("outputs", spec.Outputs, true)
	if err != nil {
		return stoke.Kernel{}, err
	}
	outs32, err := toRegs("outputs32", spec.Outputs32, false)
	if err != nil {
		return stoke.Kernel{}, err
	}
	if len(outs)+len(outs32) == 0 {
		return stoke.Kernel{}, errors.New("at least one live output register is required")
	}
	if len(outs) > 0 {
		kopts = append(kopts, stoke.WithOutput64(outs...))
	}
	if len(outs32) > 0 {
		kopts = append(kopts, stoke.WithOutput32(outs32...))
	}
	if spec.Stack > 0 {
		kopts = append(kopts, stoke.WithStack(spec.Stack))
	}
	if spec.SSE {
		kopts = append(kopts, stoke.WithVectorOps())
	}
	return stoke.NewKernel(spec.Name, target, kopts...), nil
}

func budgetOptions(b Budgets) []stoke.Option {
	var opts []stoke.Option
	if b.SynthProposals > 0 || b.OptProposals > 0 {
		sp, op := b.SynthProposals, b.OptProposals
		if sp <= 0 {
			sp = stoke.DefaultSynthProposals
		}
		if op <= 0 {
			op = stoke.DefaultOptProposals
		}
		opts = append(opts, stoke.WithBudgets(sp, op))
	}
	if b.SynthChains > 0 || b.OptChains > 0 {
		sc, oc := b.SynthChains, b.OptChains
		if sc <= 0 {
			sc = stoke.DefaultSynthChains
		}
		if oc <= 0 {
			oc = stoke.DefaultOptChains
		}
		opts = append(opts, stoke.WithChains(sc, oc))
	}
	if b.Ell > 0 {
		opts = append(opts, stoke.WithEll(b.Ell))
	}
	if b.Tests > 0 {
		opts = append(opts, stoke.WithTests(b.Tests))
	}
	if b.Seed != 0 {
		opts = append(opts, stoke.WithSeed(b.Seed))
	}
	return opts
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.drain.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	k, err := buildKernel(req.Kernel)
	if err != nil {
		http.Error(w, "bad kernel: "+err.Error(), http.StatusBadRequest)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	s.stats.submitted.Add(1)

	opts := append([]stoke.Option(nil), s.cfg.Options...)
	opts = append(opts, budgetOptions(req.Budgets)...)
	var dedup string
	if s.cfg.Store != nil {
		opts = append(opts, stoke.WithRewriteStore(s.cfg.Store))
		// The in-flight dedup identity is the key the search stores its
		// result under.
		dedup = k.StoreKey()

		// Synchronous fast path: an exact, revalidated store hit answers
		// the POST immediately — no job, no queue, no search.
		probeStart := time.Now()
		rep, err := s.cfg.Engine.Optimize(r.Context(), k,
			append(append([]stoke.Option(nil), opts...), stoke.WithCacheOnly())...)
		if err == nil {
			s.stats.cacheHits.Add(1)
			s.stats.cacheHitMicros.Add(time.Since(probeStart).Microseconds())
			s.stats.cacheHitCount.Add(1)
			writeJSON(w, http.StatusOK, JobView{
				ID:     fmt.Sprintf("cached-%d", s.nextID.Add(1)),
				Status: "done",
				Tenant: tenant,
				Result: resultOf(rep),
			})
			return
		}
		if !errors.Is(err, stoke.ErrCacheMiss) {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.stats.cacheMisses.Add(1)
	}

	// In-flight dedup: an identical submission attaches to the running or
	// queued job instead of enqueueing a duplicate search.
	if dedup != "" {
		s.mu.Lock()
		if existing, ok := s.inflight[dedup]; ok {
			s.mu.Unlock()
			existing.attached.Add(1)
			s.stats.attached.Add(1)
			writeJSON(w, http.StatusAccepted, existing.view())
			return
		}
		s.mu.Unlock()
	}

	j := &job{
		id:     fmt.Sprintf("job-%d", s.nextID.Add(1)),
		tenant: tenant,
		kernel: k,
		opts:   opts,
		dedup:  dedup,
		status: "queued",
		done:   make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	if dedup != "" {
		if existing, ok := s.inflight[dedup]; ok {
			// Raced with an identical submission: attach after all.
			s.mu.Unlock()
			delete(s.jobs, j.id)
			existing.attached.Add(1)
			s.stats.attached.Add(1)
			writeJSON(w, http.StatusAccepted, existing.view())
			return
		}
		s.inflight[dedup] = j
	}
	s.mu.Unlock()

	select {
	case s.queue <- j:
		writeJSON(w, http.StatusAccepted, j.view())
	default:
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		s.clearInflight(j)
		http.Error(w, "queue full", http.StatusTooManyRequests)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string, payload any) bool {
		data, err := json.Marshal(payload)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	replay, live := j.subscribe()
	defer j.unsubscribe(live)
	for _, ev := range replay {
		if !send("engine", toWire(ev)) {
			return
		}
	}
	for {
		select {
		case ev := <-live:
			if !send("engine", toWire(ev)) {
				return
			}
		case <-j.done:
			// Flush any events that raced the close, then finish with the
			// terminal job view.
			for {
				select {
				case ev := <-live:
					if !send("engine", toWire(ev)) {
						return
					}
					continue
				default:
				}
				break
			}
			send("done", j.view())
			return
		case <-r.Context().Done():
			return
		case <-s.quit:
			// Drain: the job will still complete (Partial); wait for done
			// via the next loop turn rather than spinning here.
			select {
			case <-j.done:
			case <-r.Context().Done():
				return
			}
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.drain.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// Statsz is the GET /statsz payload.
type Statsz struct {
	Draining         bool         `json:"draining"`
	JobsSubmitted    int64        `json:"jobs_submitted"`
	JobsCompleted    int64        `json:"jobs_completed"`
	JobsFailed       int64        `json:"jobs_failed"`
	JobsAttached     int64        `json:"jobs_attached"`
	JobsCancelled    int64        `json:"jobs_cancelled"`
	CacheHits        int64        `json:"cache_hits"`
	CacheMisses      int64        `json:"cache_misses"`
	CacheHitMeanUS   int64        `json:"cache_hit_mean_us"`
	SearchesLaunched int64        `json:"searches_launched"`
	Store            *store.Stats `json:"store,omitempty"`
}

func (s *Server) statsz() Statsz {
	st := Statsz{
		Draining:         s.drain.Load(),
		JobsSubmitted:    s.stats.submitted.Load(),
		JobsCompleted:    s.stats.completed.Load(),
		JobsFailed:       s.stats.failed.Load(),
		JobsAttached:     s.stats.attached.Load(),
		JobsCancelled:    s.stats.cancelled.Load(),
		CacheHits:        s.stats.cacheHits.Load(),
		CacheMisses:      s.stats.cacheMisses.Load(),
		SearchesLaunched: s.cfg.Engine.SearchesLaunched(),
	}
	if n := s.stats.cacheHitCount.Load(); n > 0 {
		st.CacheHitMeanUS = s.stats.cacheHitMicros.Load() / n
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		st.Store = &ss
	}
	return st
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsz())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
