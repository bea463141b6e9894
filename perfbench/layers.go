package main

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/canon"
	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/verify"
)

// timeLayers times direct calls into single layers on the pass's own
// kernels and final rewrites, after the pass (outside its wall time), and
// returns the median over kernels of each layer's time per call.
func timeLayers(ctx context.Context, finals []final, st *store.Store, tr *tracer) map[string]float64 {
	root := tr.begin("layers", "", 0)
	defer tr.end(root)
	samples := map[string][]float64{}
	timed := func(name, key string, scale float64, f func()) {
		sp := tr.begin("layer."+name, key, root)
		samples[name] = append(samples[name], scale*perCall(f))
		tr.end(sp)
	}
	for i, f := range finals {
		spec := f.b.Spec
		live := verify.LiveOut{GPRs: spec.LiveOut.GPRs}
		rng := rand.New(rand.NewSource(int64(i) + 1))
		var liveGPR uint16
		for _, lr := range spec.LiveOut.GPRs {
			liveGPR |= 1 << lr.Reg
		}

		timed("testgen.generate_ms", f.b.Name, 1e3, func() {
			_, _ = testgen.Generate(f.target, spec, 32, rng)
		})
		var form *canon.Form
		timed("canon.canonicalize_us", f.b.Name, 1e6, func() { form = canon.Canonicalize(f.target, live) })
		fp := form.FP.Hex()
		timed("store.get_us", f.b.Name, 1e6, func() { st.Get(fp, form.Consts) })
		timed("emu.compile_us", f.b.Name, 1e6, func() { emu.CompileLive(f.rewrite, liveGPR, 0) })

		tests, err := testgen.Generate(f.target, spec, f.tests, rng)
		if err == nil {
			fn := cost.NewLive(tests, spec.LiveOut, cost.Improved, 1)
			c := fn.Compile(f.rewrite)
			timed("cost.eval_us", f.b.Name, 1e6, func() { fn.EvalCompiled(c, cost.MaxBudget) })
		}

		sp := tr.begin("layer.verify.equivalent_ms", f.b.Name, root)
		start := time.Now()
		verify.Equivalent(ctx, f.target, f.rewrite, live, verify.DefaultConfig)
		samples["verify.equivalent_ms"] = append(samples["verify.equivalent_ms"], 1e3*time.Since(start).Seconds())
		tr.end(sp)
	}
	out := map[string]float64{}
	for name, xs := range samples {
		out[name] = quantile(xs, 0.5)
	}
	return out
}

// perCall runs f repeatedly for at least 2ms (and at least once) and
// returns the mean seconds per call.
func perCall(f func()) float64 {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < 2*time.Millisecond {
		f()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}
