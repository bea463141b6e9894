// Package cost implements the paper's cost functions (§3.1, §4.1–4.6) over
// the two-phase evaluation pipeline.
//
// The total cost of a candidate rewrite is
//
//	c(R;T) = eq'(R;T,τ) + perfWeight · H(R)
//
// where eq' is the testcase approximation of transformation correctness
// (Equation 8): per testcase, the Hamming distance between the rewrite's
// live outputs and the target's (Equations 9, 10, 15), plus weighted error
// counters for sandbox faults, divide faults and undefined reads (Equation
// 11). H is the static latency sum of Equation 13. Two sign conventions in
// the paper are normalised here: perf(R;T) is charged as +H(R) (dropping
// the constant H(T), which cannot affect the argmin, and orienting the term
// so faster code costs less), and the Metropolis acceptance uses the
// standard difference form exp(-β(c(R*)-c(R))), which is the form the
// paper's early-termination bound (Equation 14) is derived from.
//
// An Fn scores candidates through either of two paths:
//
//   - Eval interprets the program from scratch on one shared machine, the
//     seed implementation kept as the semantic reference.
//   - EvalCompiled scores a decode-once *emu.Compiled form (see emu's
//     Compile) on one machine pinned per testcase, so clean machines skip
//     snapshot restores, and visits testcases in an adaptively reordered
//     sequence: each testcase counts how often it was the one that pushed
//     the running cost over the early-termination bound (Equation 14), and
//     the most-discriminating testcases migrate to the front so bad
//     proposals are rejected after as few runs as possible. Reordering
//     never changes the accept/reject decision — per-testcase costs are
//     non-negative, so the running sum crosses the bound for some prefix
//     iff the total exceeds it — only how early evaluation stops.
package cost

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/emu"
	"repro/internal/perf"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// SharedProfile aggregates per-testcase early-termination counts across
// every chain of one kernel, so a freshly created Fn can warm-start its
// adaptive testcase order from what sibling chains already learned instead
// of rediscovering the discriminating testcases from scratch.
//
// Counts are recorded with atomic increments, so concurrently running
// chains may Note freely. Order and Grow are not synchronised against
// Note: the search coordinator calls them only at barriers (chain creation
// and testcase broadcast), when no chain of the kernel is mid-segment —
// which also makes the warm-started orders deterministic for a fixed seed,
// because every count read happens at a schedule point rather than at a
// thread-timing-dependent one.
type SharedProfile struct {
	counts []atomic.Int64
}

// NewSharedProfile sizes a profile for n testcases.
func NewSharedProfile(n int) *SharedProfile {
	return &SharedProfile{counts: make([]atomic.Int64, n)}
}

// Note records that testcase i pushed an evaluation over its
// early-termination bound.
func (p *SharedProfile) Note(i int) {
	if p != nil && i < len(p.counts) {
		p.counts[i].Add(1)
	}
}

// Grow extends the profile to n testcases (counterexample broadcast adds
// testcases mid-search). Must not race with Note; see the type comment.
func (p *SharedProfile) Grow(n int) {
	if p == nil || n <= len(p.counts) {
		return
	}
	counts := make([]atomic.Int64, n)
	for i := range p.counts {
		counts[i].Store(p.counts[i].Load())
	}
	p.counts = counts
}

// Order returns testcase indices 0..n-1 sorted by descending count
// (stable, so untried testcases keep their natural order). Indices beyond
// the profile's size count as zero.
func (p *SharedProfile) Order(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	at := func(i int) int64 {
		if i < len(p.counts) {
			return p.counts[i].Load()
		}
		return 0
	}
	sort.SliceStable(order, func(a, b int) bool {
		return at(order[a]) > at(order[b])
	})
	return order
}

// Counts snapshots the per-testcase counters — the stable serialisation of
// a profile, so a learned rejection profile can persist across processes
// (the rewrite store saves it with each entry and warm-starts later
// searches from it). Like Order and Grow it must only be called at a
// barrier, when no chain is mid-segment.
func (p *SharedProfile) Counts() []int64 {
	if p == nil {
		return nil
	}
	out := make([]int64, len(p.counts))
	for i := range p.counts {
		out[i] = p.counts[i].Load()
	}
	return out
}

// NewSharedProfileFromCounts rebuilds a profile from a Counts snapshot,
// sized to at least n testcases. A rebuilt profile reproduces the same
// Order as the one it was snapshotted from: Order is a pure (stable) sort
// of the counters, so equal counters mean equal warm-start testcase order.
func NewSharedProfileFromCounts(counts []int64, n int) *SharedProfile {
	if n < len(counts) {
		n = len(counts)
	}
	p := &SharedProfile{counts: make([]atomic.Int64, n)}
	for i, c := range counts {
		p.counts[i].Store(c)
	}
	return p
}

// Mode selects between the strict register/memory equality of Equations
// 9-10 and the improved "right value, wrong place" metric of Equation 15
// (§4.6, the ablation of Figure 7).
type Mode int

// Equality metric modes.
const (
	Strict Mode = iota
	Improved
)

// Weights are the error-term and misplacement weights (Figure 11).
type Weights struct {
	SegFault   float64 // wsf
	FloatFault float64 // wfp
	UndefRead  float64 // wur
	Misplace   float64 // wm
}

// PaperWeights are the constants from Figure 11.
var PaperWeights = Weights{SegFault: 1, FloatFault: 1, UndefRead: 2, Misplace: 3}

// Fn evaluates candidate rewrites against a testcase set. An Fn owns its
// emulators (one shared by the interpreted path, one pinned per testcase by
// the compiled path) and is not safe for concurrent use; each search thread
// builds its own (sharing the read-only testcases).
type Fn struct {
	Tests []testgen.Testcase
	Live  testgen.LiveSet
	Mode  Mode
	W     Weights

	// PerfWeight scales the performance term: 0 during synthesis (§4.4),
	// 1 during optimization.
	PerfWeight float64

	// Shared, when set, is the kernel-wide rejection profile: this Fn's
	// early terminations feed it, and the initial testcase order is drawn
	// from it instead of the natural order, warm-starting new chains with
	// the discriminating testcases sibling chains already found. Set it
	// before the first evaluation.
	Shared *SharedProfile

	m *emu.Machine

	// Compiled-path state: one machine pinned per testcase (so unchanged
	// snapshots reload for free), the adaptive evaluation order, and the
	// per-testcase early-termination counts that drive it.
	ms      []*emu.Machine
	order   []int
	rejects []int64
	evals   int

	// memGot/memOk are scratch for memCost: the candidate's live memory
	// bytes, resolved once per testcase so the Improved metric's rival
	// scan is O(n) byte lookups instead of O(n²).
	memGot []byte
	memOk  []bool

	// liveExit, when set (NewLive), makes Compile thread the kernel's
	// live-out register sets into the compiled form's register-liveness
	// pass, so dead register writes are suppressed. liveGPR/liveXMM are
	// the exit-gen bitmasks derived from Live.
	liveExit bool
	liveGPR  uint16
	liveXMM  uint16
}

// reorderEvery is how many compiled evaluations pass between re-sorts of
// the testcase order. Counts are halved at each re-sort so the ordering
// tracks the current region of the search space rather than its history.
const reorderEvery = 256

// New builds a cost function over the given testcases.
func New(tests []testgen.Testcase, live testgen.LiveSet, mode Mode, perfWeight float64) *Fn {
	return &Fn{
		Tests:      tests,
		Live:       live,
		Mode:       mode,
		W:          PaperWeights,
		PerfWeight: perfWeight,
		m:          emu.New(),
	}
}

// NewLive builds a cost function whose Compile threads the kernel's
// live-out register sets into the compiled form's register-liveness pass
// (emu.CompileLive): candidate writes to registers the live set cannot
// observe are suppressed, leaving whatever value the register held. The
// equality terms are unchanged — they only read live state — but the
// Improved metric's rival scan reads every GPR, so non-live register
// values (and with them the heuristic misplacement credit) may differ
// from New's. Accept/reject decisions on correct rewrites are identical.
//
// Whole registers are conservative: a GPR live at any width keeps all 64
// bits live, so partial-width live-outs never expose a suppressed upper
// half.
func NewLive(tests []testgen.Testcase, live testgen.LiveSet, mode Mode, perfWeight float64) *Fn {
	f := New(tests, live, mode, perfWeight)
	f.liveExit = true
	for _, lr := range live.GPRs {
		f.liveGPR |= 1 << lr.Reg
	}
	for _, xr := range live.Xmms {
		f.liveXMM |= 1 << xr
	}
	return f
}

// Result reports one evaluation.
type Result struct {
	Cost float64
	// EqCost is the testcase-equality portion of Cost (zero means the
	// rewrite agreed with the target on every testcase).
	EqCost float64
	// TestsRun counts testcases evaluated before early termination — the
	// quantity plotted in Figure 5.
	TestsRun int
	// Early reports that evaluation stopped because Cost exceeded the
	// caller's bound (Equation 14), guaranteeing rejection.
	Early bool
}

// MaxBudget disables early termination.
const MaxBudget = 1e18

// Eval computes the cost of p, stopping early once the running total
// exceeds budget (the caller's maximum acceptable cost per Equation 14).
func (f *Fn) Eval(p *x64.Program, budget float64) Result {
	var res Result
	if f.PerfWeight != 0 {
		res.Cost = f.PerfWeight * perf.H(p)
		if res.Cost > budget {
			res.Early = true
			return res
		}
	}
	for i := range f.Tests {
		tc := &f.Tests[i]
		res.EqCost += f.evalOne(p, tc)
		res.TestsRun++
		if res.Cost+res.EqCost > budget {
			// Record the early termination on the interpreted path too:
			// without this, interpreted chains (mcmc.Sampler.Interpreted)
			// never feed the kernel-wide rejection profile (or this Fn's
			// own counters), so sibling and later chains would warm-start
			// from nothing.
			f.noteReject(i)
			res.Cost += res.EqCost
			res.Early = true
			return res
		}
	}
	res.Cost += res.EqCost
	return res
}

// noteReject records that testcase ti pushed an evaluation over its bound,
// in this Fn's own adaptive-order counters (when built) and the shared
// kernel-wide profile. Both evaluation paths funnel through it.
func (f *Fn) noteReject(ti int) {
	if ti < len(f.rejects) {
		f.rejects[ti]++
	}
	f.Shared.Note(ti)
}

// Compile lowers p into the decode-once form EvalCompiled scores. The
// returned form references p: mutate p, then emu.Compiled.Patch the touched
// slots (or Recompile) before re-evaluating. Under NewLive the compiled
// form suppresses register writes the kernel's live-out set cannot observe.
func (f *Fn) Compile(p *x64.Program) *emu.Compiled {
	if f.liveExit {
		return emu.CompileLive(p, f.liveGPR, f.liveXMM)
	}
	return emu.Compile(p)
}

// EvalCompiled computes the cost of a compiled candidate, stopping early
// once the running total exceeds budget. It agrees with Eval on the
// resulting cost and accept/reject decision; testcases are visited in the
// adaptive order described in the package comment, so TestsRun (and the
// order-dependent floating-point rounding of partial sums) may differ.
func (f *Fn) EvalCompiled(c *emu.Compiled, budget float64) Result {
	var res Result
	if f.PerfWeight != 0 {
		// StaticLatency is the patch-maintained perf.H of the compiled
		// program (latencies are integral, so the incremental sum is
		// exact).
		res.Cost = f.PerfWeight * c.StaticLatency()
		if res.Cost > budget {
			res.Early = true
			return res
		}
	}
	f.ensureCompiledState()
	for _, ti := range f.order {
		tc := &f.Tests[ti]
		m := f.ms[ti]
		m.LoadSnapshotCached(tc.In)
		out := m.RunCompiled(c)
		res.EqCost += f.score(m, tc, out)
		res.TestsRun++
		if res.Cost+res.EqCost > budget {
			f.noteReject(ti)
			res.Cost += res.EqCost
			res.Early = true
			f.noteEval()
			return res
		}
	}
	res.Cost += res.EqCost
	f.noteEval()
	return res
}

// ensureCompiledState sizes the per-testcase machines and the adaptive
// order to the current testcase set.
func (f *Fn) ensureCompiledState() {
	if len(f.ms) == len(f.Tests) {
		return
	}
	f.ms = make([]*emu.Machine, len(f.Tests))
	for i := range f.ms {
		f.ms[i] = emu.New()
	}
	if f.Shared != nil {
		f.order = f.Shared.Order(len(f.Tests))
	} else {
		f.order = make([]int, len(f.Tests))
		for i := range f.order {
			f.order[i] = i
		}
	}
	f.rejects = make([]int64, len(f.Tests))
	f.evals = 0
}

// AddTest folds one refinement testcase into the set mid-search. The
// compiled-path state is extended in place rather than rebuilt: the
// learned order of the existing testcases is preserved, and the new
// testcase evaluates first — a counterexample is by construction the most
// discriminating testcase known.
func (f *Fn) AddTest(tc testgen.Testcase) {
	f.Tests = append(f.Tests, tc)
	if f.ms == nil {
		return // compiled state not built yet; sized on first evaluation
	}
	f.ms = append(f.ms, emu.New())
	f.order = append([]int{len(f.Tests) - 1}, f.order...)
	f.rejects = append(f.rejects, 0)
}

// Agreement counts the testcases of f on which p's live outputs agree
// exactly with the expected outputs (per-testcase cost zero under f's
// mode). It is the observed-output breadth feature of the pre-verification
// gate: a candidate agreeing on every testcase is τ-correct and worth a
// proof now; narrow agreement predicts a NotEqual and argues for deferral.
// Runs on the interpreted path and touches neither the adaptive order nor
// the shared rejection profile.
func (f *Fn) Agreement(p *x64.Program) int {
	n := 0
	for i := range f.Tests {
		if f.evalOne(p, &f.Tests[i]) == 0 {
			n++
		}
	}
	return n
}

// noteEval counts one compiled evaluation and periodically re-sorts the
// testcase order by descending early-termination count (stable, so ties
// keep their current relative order), decaying the counts afterwards.
func (f *Fn) noteEval() {
	f.evals++
	if f.evals%reorderEvery != 0 {
		return
	}
	sort.SliceStable(f.order, func(i, j int) bool {
		return f.rejects[f.order[i]] > f.rejects[f.order[j]]
	})
	for i := range f.rejects {
		f.rejects[i] /= 2
	}
}

// evalOne runs p on one testcase and scores its live outputs.
func (f *Fn) evalOne(p *x64.Program, tc *testgen.Testcase) float64 {
	f.m.LoadSnapshot(tc.In)
	out := f.m.Run(p)
	return f.score(f.m, tc, out)
}

// score converts one execution's outcome and final machine state into the
// testcase's cost term; it is shared by the interpreted and compiled paths.
func (f *Fn) score(m *emu.Machine, tc *testgen.Testcase, out emu.Outcome) float64 {
	var c float64
	if out.SigSegv|out.SigFpe|out.Undef != 0 {
		c = f.W.SegFault*float64(out.SigSegv) +
			f.W.FloatFault*float64(out.SigFpe) +
			f.W.UndefRead*float64(out.Undef)
	}
	if out.Exhaust {
		// A sequence that exhausts the step budget cannot be scored
		// meaningfully; charge it like a fault.
		c += f.W.SegFault
	}

	// Live register outputs (Equations 9 / 15).
	for li, lr := range f.Live.GPRs {
		want := tc.WantGPR[li]
		c += f.regCost(m, want, lr)
	}
	for li, xr := range f.Live.Xmms {
		c += f.xmmCost(m, tc.WantXmm[li], xr)
	}

	// Live flags: one bit each.
	if f.Live.Flags != 0 {
		got := m.Flags & f.Live.Flags
		c += float64(bits.OnesCount8(uint8(got ^ tc.WantFlags)))
	}

	// Live memory outputs (Equation 10 and its improved analogue).
	c += f.memCost(m, tc)
	return c
}

// regCost scores one live GPR output.
func (f *Fn) regCost(m *emu.Machine, want uint64, lr testgen.LiveReg) float64 {
	mask := widthMask(lr.Width)
	correct := float64(bits.OnesCount64((want ^ m.Regs[lr.Reg]) & mask))
	if f.Mode == Strict {
		return correct
	}
	// Improved metric (Equation 15): the best-matching register of the
	// same bit width, with a misplacement penalty when it is not the right
	// one. A rival register costs at least the misplacement penalty, so a
	// right-place match at least that good cannot be beaten — the common
	// case near convergence, where the scan would be pure overhead.
	if correct <= f.W.Misplace {
		return correct
	}
	best := correct
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if r == lr.Reg {
			continue
		}
		d := float64(bits.OnesCount64((want^m.Regs[r])&mask)) + f.W.Misplace
		if d < best {
			best = d
		}
	}
	return best
}

// xmmCost scores one live XMM output.
func (f *Fn) xmmCost(m *emu.Machine, want [2]uint64, xr x64.Reg) float64 {
	ham := func(v [2]uint64) float64 {
		return float64(bits.OnesCount64(want[0]^v[0]) + bits.OnesCount64(want[1]^v[1]))
	}
	correct := ham(m.Xmm[xr])
	if f.Mode == Strict {
		return correct
	}
	if correct <= f.W.Misplace {
		return correct
	}
	best := correct
	for r := x64.Reg(0); r < x64.NumXMM; r++ {
		if r == xr {
			continue
		}
		d := ham(m.Xmm[r]) + f.W.Misplace
		if d < best {
			best = d
		}
	}
	return best
}

// memCost scores the live memory outputs of one testcase. Every live byte
// is resolved through the machine once, so the Improved metric's rival scan
// works over the cached bytes instead of re-walking the segment tables.
func (f *Fn) memCost(m *emu.Machine, tc *testgen.Testcase) float64 {
	n := len(tc.WantMem)
	if n == 0 {
		return 0
	}
	if cap(f.memGot) < n {
		f.memGot = make([]byte, n)
		f.memOk = make([]bool, n)
	}
	got, okv := f.memGot[:n], f.memOk[:n]
	for i, mc := range tc.WantMem {
		got[i], _, okv[i] = m.MemByte(mc.Addr)
	}
	total := 0.0
	for i, mc := range tc.WantMem {
		var correct float64
		if okv[i] {
			correct = float64(bits.OnesCount8(got[i] ^ mc.Want))
		} else {
			correct = 8
		}
		if f.Mode == Strict || correct <= f.W.Misplace {
			total += correct
			continue
		}
		// Improved analogue of Equation 15 for memory: accept the right
		// byte at another live memory location, at a misplacement penalty.
		best := correct
		for j := range tc.WantMem {
			if j == i || !okv[j] {
				continue
			}
			d := float64(bits.OnesCount8(got[j]^mc.Want)) + f.W.Misplace
			if d < best {
				best = d
			}
		}
		total += best
	}
	return total
}

func widthMask(w uint8) uint64 {
	switch w {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	case 4:
		return 0xffffffff
	}
	return ^uint64(0)
}
