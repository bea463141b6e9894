package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/kernels"
	"repro/internal/server"
	"repro/internal/store"
	"repro/stoke"
)

// engineWorkers is the stoke engine's pool size in every workload.
const engineWorkers = 2

// env is what a workload sets up before its first Optimize call or
// request: the kernel suite and seeded plan, a fresh engine and store
// (file-backed for serve, memory-only otherwise), and for serve the HTTP
// server and its client.
type env struct {
	suite  *suitePlan
	serve  *servePlan
	engine *stoke.Engine
	store  *store.Store

	dir     string // file-backed store directory (serve)
	srv     *server.Server
	hs      *http.Server
	served  chan error
	client  *client
	storeMS float64 // time store.Open took
}

// setup builds a workload's env; workdir holds the serve workload's store
// files. limit, when positive, shortens the plan (tests only).
func setup(w string, seed int64, limit int, workdir string, n int) (*env, error) {
	all := map[string]*kernels.Bench{}
	for _, b := range kernels.All() {
		b := b
		all[b.Name] = &b
	}
	e := &env{}
	var err error
	switch w {
	case "search":
		e.suite, err = searchSuite.plan(all, seed, limit)
	case "verify":
		e.suite, err = verifySuite.plan(all, seed, limit)
	case "serve":
		e.serve, err = planServe(all, seed, limit)
	default:
		err = fmt.Errorf("unknown workload %q (valid: search, verify, serve)", w)
	}
	if err != nil {
		return nil, err
	}

	path := ""
	if w == "serve" {
		e.dir = filepath.Join(workdir, fmt.Sprintf("serve-%d-%d", os.Getpid(), n))
		path = filepath.Join(e.dir, "rewrites.jsonl")
	}
	start := time.Now()
	e.store, err = store.Open(path, 0)
	e.storeMS = 1e3 * time.Since(start).Seconds()
	if err != nil {
		e.close()
		return nil, fmt.Errorf("store: %w", err)
	}
	e.engine = stoke.NewEngine(stoke.EngineConfig{Workers: engineWorkers})
	if w != "serve" {
		return e, nil
	}

	e.srv = server.New(server.Config{Engine: e.engine, Store: e.store, Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &client{base: "http://" + ln.Addr().String(), http: &http.Client{Transport: &http.Transport{}}}
	return e, nil
}

// close stops everything setup started and waits for it to exit.
func (e *env) close() error {
	var errs []error
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		errs = append(errs, e.hs.Shutdown(ctx))
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		errs = append(errs, e.srv.Shutdown(ctx))
		e.client.http.CloseIdleConnections()
	}
	if e.engine != nil {
		e.engine.Close()
	}
	if e.store != nil {
		errs = append(errs, e.store.Close())
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}
