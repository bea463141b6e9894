package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kernels"
)

// TestDeterministic runs each workload twice at reduced length, once
// untraced and once traced, each on a fresh engine and store, and requires
// the deterministic outcomes to repeat exactly. Work that shares one
// engine's counterexample bank across concurrent kernels would make them
// depend on thread timing and fail here.
func TestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs searches")
	}
	for _, w := range []string{"search", "verify", "serve"} {
		t.Run(w, func(t *testing.T) {
			cfg := config{workload: w, seed: 7, limit: 2, workdir: t.TempDir()}
			var got [2]*pass
			for i := range got {
				var tr *tracer
				if i == 1 {
					tr = newTracer()
				}
				p, err := runPass(context.Background(), cfg, tr, i, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range p.failures {
					t.Logf("run %d: failed operation: %s", i+1, f)
				}
				if p.attempted == 0 {
					t.Fatalf("run %d attempted nothing", i+1)
				}
				got[i] = p
			}
			a, b := got[0], got[1]
			same := func(name string, x, y any) {
				if !reflect.DeepEqual(x, y) {
					t.Errorf("%s differs between runs: %v vs %v", name, x, y)
				}
			}
			same("speedup_geomean", geomean(a.speedups), geomean(b.speedups))
			same("vs_gcc_o3_geomean", geomean(a.vsGcc), geomean(b.vsGcc))
			same("proven_frac", ratio(float64(a.proven), float64(a.judged)), ratio(float64(b.proven), float64(b.judged)))
			same("mcmc.proposals", a.layer["mcmc.proposals"], b.layer["mcmc.proposals"])
			same("verify.sat_calls", a.layer["verify.sat_calls"], b.layer["verify.sat_calls"])
			same("outcomes and request classes", a.sig, b.sig)
		})
	}
}

func TestCheckRewrite(t *testing.T) {
	all := map[string]*kernels.Bench{}
	for _, b := range kernels.All() {
		b := b
		all[b.Name] = &b
	}
	p01, p03 := all["p01"], all["p03"]
	rng := rand.New(rand.NewSource(1))
	if err := checkRewrite(p01, p01.GccO3, nil, identity(), rng); err != nil {
		t.Errorf("gcc -O3 p01 rejected: %v", err)
	}
	if err := checkRewrite(p01, p03.Target, nil, identity(), rng); err == nil {
		t.Error("p03 accepted as a rewrite of p01")
	}
	perm := randomRenaming(p01.GccO3, rng)
	if err := checkRewrite(p01, rename(p01.GccO3, perm), nil, perm, rng); err != nil {
		t.Errorf("renamed gcc -O3 p01 rejected in the renamed space: %v", err)
	}
	near, ok := bumpConst(p01.Target)
	if !ok {
		t.Fatal("p01 has no constant")
	}
	if err := checkRewrite(p01, near, near, identity(), rng); err != nil {
		t.Errorf("near-miss target rejected against itself: %v", err)
	}
	if err := checkRewrite(p01, p01.Target, near, identity(), rng); err == nil {
		t.Error("p01 accepted as a rewrite of its constant-changed near miss")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "job", Start: 1, End: 5},
		{ID: 3, Parent: 2, Name: "phase", Start: 2, End: 3},
		{ID: 4, Parent: 2, Name: "phase", Start: 2.5, End: 4}, // overlaps its sibling
		{ID: 5, Parent: 1, Name: "job", Start: 6, End: 7},
	}
	want := map[string]float64{"pass": 5, "job": 2 + 1, "phase": 1 + 1.5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestHistory feeds history crafted event streams: a complete one is
// counted, and one with an unpaired phase or one that fills the server's
// event buffer is reported as possibly lossy.
func TestHistory(t *testing.T) {
	engine := func(kind, phase string) string {
		return fmt.Sprintf("event: engine\ndata: {\"kind\":%q,\"phase\":%q}\n\n", kind, phase)
	}
	complete := engine("phase-start", "optimization") + engine("model-mismatch", "") +
		engine("phase-end", "optimization")
	cases := []struct {
		name, stream string
		wantErr      string
	}{
		{"complete", complete, ""},
		{"unpaired phase", engine("phase-start", "validation") + complete, "do not pair up"},
		{"full buffer", complete + strings.Repeat(engine("chain-improved", ""), serverEventBuffer-3), "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprint(w, tc.stream+"event: done\ndata: {\"status\":\"done\"}\n\n")
			}))
			defer srv.Close()
			c := &client{base: srv.URL, http: srv.Client()}
			kinds, err := c.history(context.Background(), "job-1", nil, nil)
			if tc.wantErr == "" {
				if err != nil || kinds["model-mismatch"] != 1 || kinds["phase-end"] != 1 {
					t.Fatalf("history = %v, %v; want one mismatch and one phase end", kinds, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("history error = %v, want %q", err, tc.wantErr)
			}
		})
	}
}
