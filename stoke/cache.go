// The rewrite-store integration: fingerprint probing before a search,
// exact-hit revalidation and serving, near-miss warm starts, and the
// write-back of proven rewrites. Everything here is correctness-guarded:
// a cached rewrite is served only after it revalidates against the
// submitter's own freshly generated testcases plus the stored
// counterexample set through the compiled evaluator, and a rewrite that
// cannot be carried across register spaces (it pins registers the target
// never did) degrades to a miss, never to a wrong answer.

package stoke

import (
	"errors"
	"math/rand"
	"sort"
	"time"

	"repro/internal/canon"
	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// ErrCacheMiss is returned by a WithCacheOnly run whose kernel has no
// servable entry in the rewrite store.
var ErrCacheMiss = errors.New("stoke: rewrite store miss")

// liveOutFor assembles the validator live-out view of a kernel — the same
// structure optimize builds for verification, reused for fingerprinting.
func liveOutFor(k Kernel) verify.LiveOut {
	return verify.LiveOut{
		GPRs:  k.Spec.LiveOut.GPRs,
		Xmms:  k.Spec.LiveOut.Xmms,
		Flags: k.Spec.LiveOut.Flags,
		Mem:   k.LiveMem,
	}
}

// StoreKey returns the exact rewrite-store key Optimize looks k up and
// stores its proven rewrite under: the canonical fingerprint of the target
// over its live-out view, plus the target's constant vector. Servers use
// it as the in-flight dedup identity of a submission.
func (k Kernel) StoreKey() string {
	form := canon.Canonicalize(k.Target, liveOutFor(k))
	return store.Key(form.FP.Hex(), form.Consts)
}

// cacheWarm is the near-miss warm-start material carried into a search;
// optimize proves start before deciding whether to synthesize.
type cacheWarm struct {
	start   *x64.Program       // cached rewrite, constants re-literalised, mapped back
	profile []int64            // learned testcase-rejection counters
	tests   []testgen.Testcase // replayed counterexample testcases for τ
	costH   float64
}

// replayCex rebuilds a runnable testcase from a counterexample register
// state, stored or fresh from the validator (cexTestcase): a shape-correct
// random input with every non-pointer register — undefined ones included,
// whose junk values the counterexample may rely on — and the XMM and flag
// state overridden. The stack pointer is always a pointer: a
// counterexample rsp points nowhere runnable. A state FromInput cannot run
// (the target faults on it) is dropped.
func replayCex(k Kernel, m *emu.Machine, rng *rand.Rand, cx store.Cex) (testgen.Testcase, bool) {
	in := k.Spec.BuildInput(rng)
	testgen.FillUndefined(in, rng)
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if r == x64.RSP || k.Pointers.Has(r) {
			continue
		}
		in.Regs[r] = cx.Regs[r]
	}
	for r := 0; r < x64.NumXMM; r++ {
		in.Xmm[r] = cx.Xmm[r]
	}
	in.Flags = x64.FlagSet(cx.Flags)
	tc, err := testgen.FromInput(m, k.Target, k.Spec, in)
	return tc, err == nil
}

// cacheProbe consults the store for kernel k. On an exact, revalidated hit
// it returns the rewrite mapped back into the submitter's register space;
// otherwise it returns any near-miss warm-start material (nil, nil on a
// cold class). tests are this run's freshly generated testcases — the
// revalidation gauntlet every served rewrite must clear.
func (e *Engine) cacheProbe(k Kernel, st *settings, form *canon.Form,
	tests []testgen.Testcase, rng *rand.Rand) (*x64.Program, *cacheWarm) {

	m := emu.New()

	// entryCexs maps an entry's canonical-space counterexamples into the
	// submitter's register space through *this* submission's form, so
	// α-renamed siblings replay them correctly.
	entryCexs := func(entry *store.Entry) []store.Cex {
		out := make([]store.Cex, len(entry.Cexs))
		for i, cx := range entry.Cexs {
			out[i] = kernelCex(form, cx)
		}
		return out
	}

	// revalidate checks a mapped-back candidate against the generated
	// testcases plus the entry's replayed counterexample set, in strict
	// mode through the reference interpreter (cost.Fn.Eval). One
	// candidate is scored once, so compiling it first buys nothing.
	revalidate := func(cand *x64.Program, cexs []store.Cex) bool {
		if cand.Validate() != nil {
			return false
		}
		all := tests[:len(tests):len(tests)]
		for _, cx := range cexs {
			if tc, ok := replayCex(k, m, rng, cx); ok {
				all = append(all, tc)
			}
		}
		f := cost.New(all, k.Spec.LiveOut, cost.Strict, 0)
		return f.Eval(cand, cost.MaxBudget).Cost == 0
	}

	if entry, ok := st.store.Get(form.FP.Hex(), form.Consts); ok {
		if p, err := x64.Parse(entry.Rewrite); err == nil {
			if mapped, ok := form.FromCanon(p); ok && revalidate(mapped, entryCexs(entry)) {
				return mapped, nil
			}
		}
	}

	// A cache-only probe answers exact hits alone: warm-start material
	// would be discarded with its ErrCacheMiss, and the search that follows
	// (a queued job) looks the near miss up again.
	if st.cacheOnly {
		return nil, nil
	}

	// Near miss: the cheapest entry of the fingerprint class, its
	// constants re-literalised to the submission's, mapped back. optimize
	// proves it against the target before any chain runs: Equal makes it
	// the proven incumbent and skips synthesis, anything else leaves it one
	// more optimization start. It is never served, so a bad substitution
	// costs search time, not correctness.
	near := st.store.Near(form.FP.Hex())
	sort.Slice(near, func(i, j int) bool { return near[i].CostH < near[j].CostH })
	for _, entry := range near {
		p, err := x64.Parse(entry.Rewrite)
		if err != nil {
			continue
		}
		mapped, ok := form.FromCanon(canon.SubstituteConsts(p, entry.Consts, form.Consts))
		if !ok || mapped.Validate() != nil {
			continue
		}
		warm := &cacheWarm{start: mapped, profile: entry.Profile, costH: entry.CostH}
		for _, cx := range entryCexs(entry) {
			if tc, ok := replayCex(k, m, rng, cx); ok {
				warm.tests = append(warm.tests, tc)
			}
		}
		return nil, warm
	}
	return nil, nil
}

// cachePut writes a verified run's outcome back to the store: the rewrite
// carried into canonical space, the refinement counterexamples beyond the
// generated testcases, the learned rejection profile, and search metadata.
// A rewrite that cannot be carried (it pins registers the target never
// did) or does not survive the assembly round-trip is skipped — the run's
// result is unaffected.
func cachePut(k Kernel, st *settings, form *canon.Form, rep *Report,
	tests []testgen.Testcase, generated int, prof *cost.SharedProfile) {

	canonRewrite, ok := form.ToCanon(rep.Rewrite)
	if !ok {
		return
	}
	// The stored format is assembly text; guard the round-trip now so a
	// printer/parser asymmetry can never produce an unservable record.
	if rt, err := x64.Parse(canonRewrite.String()); err != nil || rt.String() != canonRewrite.String() {
		return
	}
	entry := &store.Entry{
		FP:      form.FP.Hex(),
		Consts:  form.Consts,
		Target:  form.Prog.String(),
		Rewrite: canonRewrite.String(),
		CostH:   perf.H(canonRewrite),
		Profile: prof.Counts(),
		Meta: store.Meta{
			Kernel:      k.Name,
			Seed:        st.seed,
			Proposals:   rep.Stats.Proposals,
			Refinements: rep.Refinements,
			SearchMS:    (rep.SynthTime + rep.OptTime + rep.VerifyTime).Milliseconds(),
			Verdict:     rep.Verdict.String(),
		},
	}
	// The counterexamples are stored in canonical space, so any α-renamed
	// sibling submission replays them correctly, and the store folds them
	// into the global bank on load.
	for _, tc := range tests[generated:] {
		entry.Cexs = append(entry.Cexs, canonCex(form, tc.In))
	}
	_ = st.store.Put(entry) // persistence failure degrades to cache-cold, never fails the run
}

// serveHit stamps a report for a run answered from the store.
func (e *Engine) serveHit(k Kernel, st *settings, rep *Report, rewrite *x64.Program, elapsed time.Duration) *Report {
	rep.CacheHit = true
	rep.Verdict = verify.Equal
	rep.Rewrite = rewrite.Packed()
	rep.TargetCycles = pipeline.Cycles(k.Target)
	rep.RewriteCycles = pipeline.Cycles(rep.Rewrite)
	rep.VerifyTime = elapsed
	e.emit(st, Event{Kind: EventCacheHit, Kernel: k.Name})
	return rep
}
