// Package mcmc implements the Metropolis-Hastings search of §3.2 and §4.3:
// candidate rewrites are fixed-length sequences of ℓ instruction slots (with
// the UNUSED token standing for empty slots), proposals are drawn from the
// paper's four move types (opcode, operand, swap, instruction), and
// acceptance follows the Metropolis ratio with the early-termination
// optimisation of §4.5 (Equation 14): the acceptance coin is flipped first,
// converted into a maximum acceptable cost, and testcase evaluation stops
// as soon as the running cost exceeds it.
//
// A chain evaluates candidates through the decode-once compiled pipeline by
// default: the current program is compiled once, every move mutates at most
// two instruction slots in place, exactly those slots are re-lowered in the
// compiled form (with the saved instructions restored — and re-patched — on
// rejection), and cost.Fn.EvalCompiled scores the patched form. A no-op
// move — one that left every touched slot as it was — proposes the current
// program, so the chain accepts it at the current cost without patching or
// running a testcase, still drawing its acceptance bound so the random
// stream and every decision match a chain that evaluates it. Setting
// Sampler.Interpreted reverts to the seed discipline (copy the ℓ-slot
// program and re-interpret it from scratch per proposal), kept as the
// semantic reference the differential tests and the BENCH_eval.json guard
// compare the compiled chain against.
package mcmc

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/cost"
	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// Params are the MCMC parameters of Figure 11.
type Params struct {
	PC float64 // opcode move probability
	PO float64 // operand move probability
	PS float64 // swap move probability
	PI float64 // instruction move probability
	PU float64 // probability an instruction move proposes UNUSED

	Beta float64 // inverse temperature β
	Ell  int     // fixed sequence length ℓ
}

// PaperParams are the constants of Figure 11.
var PaperParams = Params{
	PC: 0.16, PO: 0.5, PS: 0.16, PI: 0.16, PU: 0.16,
	Beta: 0.1, Ell: 50,
}

// Pools are the operand equivalence classes proposals draw from: immediates
// come from a bag of predefined constants (§4.3), memory operands from the
// shapes the target uses, and registers from the general purpose file
// (minus RSP, protecting the stack discipline of §5.2).
type Pools struct {
	Regs []x64.Reg
	Imms []int64
	Mems []x64.Operand // memory operands harvested from the target
	Xmm  bool          // whether SSE operands/opcodes participate
}

// DefaultConstants is the predefined constant bag.
var DefaultConstants = []int64{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 24, 31, 32, 48, 63, 64,
	-1, -2, -8, 255, 256, 0xffff, 0x7fffffff, 0x80000000, 0xffffffff,
	1 << 32, -1 << 31, 1 << 62,
}

// PoolsFor builds proposal pools from a target program: its memory operand
// shapes and immediate constants join the default bags, and SSE moves are
// enabled either when the target touches XMM registers or when sse is
// forced.
func PoolsFor(target *x64.Program, sse bool) Pools {
	p := Pools{Xmm: sse}
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if r != x64.RSP {
			p.Regs = append(p.Regs, r)
		}
	}
	p.Imms = append(p.Imms, DefaultConstants...)
	seenMem := map[x64.Operand]bool{}
	for _, in := range target.Insts {
		for i := uint8(0); i < in.N; i++ {
			o := in.Opd[i]
			switch o.Kind {
			case x64.KindImm:
				p.Imms = append(p.Imms, o.Imm)
			case x64.KindMem:
				if !seenMem[o] {
					seenMem[o] = true
					p.Mems = append(p.Mems, o)
					// Also offer the same shape at other access widths.
					for _, w := range []uint8{1, 2, 4, 8, 16} {
						if w == o.Width {
							continue
						}
						alt := o
						alt.Width = w
						if !seenMem[alt] {
							seenMem[alt] = true
							p.Mems = append(p.Mems, alt)
						}
					}
				}
			case x64.KindXmm:
				p.Xmm = true
			}
		}
	}
	return p
}

// opcodeClasses maps a signature to the proposable opcodes accepting it,
// computed once: these are the paper's "equivalence classes of opcodes
// expecting the same number and type of operands".
var opcodeClasses = func() map[x64.Sig][]x64.Opcode {
	m := map[x64.Sig][]x64.Opcode{}
	for op := x64.Opcode(0); op < x64.NumOpcodes; op++ {
		info := x64.Info(op)
		if !info.Proposable {
			continue
		}
		for _, s := range info.Sigs {
			m[s] = append(m[s], op)
		}
	}
	return m
}()

// proposableOpcodes lists every proposable opcode, split by whether it
// involves SSE state (so non-SSE targets are not flooded with xmm noise).
var proposableOpcodes, proposableSSE = func() (gp, sse []x64.Opcode) {
	for op := x64.Opcode(0); op < x64.NumOpcodes; op++ {
		info := x64.Info(op)
		if !info.Proposable {
			continue
		}
		isSSE := false
		for _, s := range info.Sigs {
			for i := uint8(0); i < s.N; i++ {
				if s.Slot[i] == x64.TokX || s.Slot[i] == x64.TokM128 {
					isSSE = true
				}
			}
		}
		if isSSE {
			sse = append(sse, op)
		} else {
			gp = append(gp, op)
		}
	}
	return gp, sse
}()

// Stats accumulates sampler counters.
type Stats struct {
	Proposals int64
	Accepts   int64

	// TestsEvaluated counts testcase runs, the quantity Figure 5 plots.
	// The compiled chain runs none for a no-op proposal — a move that
	// rewrote its slots with the contents they already held, whose cost is
	// the current one — so it counts fewer than the interpreted reference
	// chain, which evaluates every proposal, while every other counter and
	// the trajectory itself match.
	TestsEvaluated int64

	// RegFreeSlots / RegWritingSlots accumulate, per compiled proposal
	// (after patching, before evaluation — rejected proposals count), the
	// register-liveness pass's suppressed and register-writing slot totals
	// (emu.Compiled.RegFreeSlots/RegWritingSlots). Their ratio is the
	// dynamic fraction of dead register writes the pass removed from the
	// chain's actual workload. Zero on the interpreted path.
	RegFreeSlots    int64
	RegWritingSlots int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Proposals += o.Proposals
	s.Accepts += o.Accepts
	s.TestsEvaluated += o.TestsEvaluated
	s.RegFreeSlots += o.RegFreeSlots
	s.RegWritingSlots += o.RegWritingSlots
}

// RegFreeFraction is the dynamic fraction of register-writing slots whose
// writes the register-liveness pass suppressed (RegFreeSlots over
// RegWritingSlots), or zero when the pass was off or nothing wrote a
// register.
func (s Stats) RegFreeFraction() float64 {
	if s.RegWritingSlots == 0 {
		return 0
	}
	return float64(s.RegFreeSlots) / float64(s.RegWritingSlots)
}

// Sampler runs one MCMC chain. It is not safe for concurrent use; parallel
// search runs one Sampler per goroutine (§5.3).
type Sampler struct {
	Params Params
	Pools  Pools
	Cost   *cost.Fn
	Rng    *rand.Rand

	// Interpreted selects the seed evaluation discipline (full program
	// copy plus from-scratch interpretation per proposal) instead of the
	// compiled patch-and-evaluate pipeline. The two paths draw identical
	// proposal streams and agree on every accept/reject decision up to
	// floating-point summation order.
	Interpreted bool

	// OnImprove, when set, is invoked with a clone of the best-so-far
	// program each time the best cost drops (used to trace Figures 7/8).
	OnImprove func(iter int64, c float64, p *x64.Program)

	// liveIdx is liveSlot's scratch for the mutable-slot indices of the
	// current candidate, reused across proposals.
	liveIdx []int32

	// OnStep, when set, is invoked every StepInterval proposals with the
	// running statistics (used to trace Figure 5).
	OnStep       func(s Stats, current float64)
	StepInterval int64

	// RestartAfter, when positive, resets the chain to the best correct
	// program seen after that many proposals without improvement.
	RestartAfter int64

	Stats Stats
}

// Result is the outcome of one chain.
type Result struct {
	Best     *x64.Program
	BestCost float64

	// BestCorrect is the lowest-cost program whose eq term was zero
	// (testcase-equivalent to the target), or nil if the chain never
	// visited one. Optimization phases return this: it is the candidate
	// submitted to the validator (Figure 9, step 5→6).
	BestCorrect     *x64.Program
	BestCorrectCost float64

	// ZeroCost reports that a zero-eq-cost rewrite was found; for
	// synthesis chains this is the success criterion.
	ZeroCost bool
	Stats    Stats
}

// ctxCheckInterval is how many proposals pass between context polls: cheap
// enough to be invisible at ~100k proposals/s, fine-grained enough that a
// cancelled chain stops within milliseconds.
const ctxCheckInterval = 1024

// Run performs `proposals` Metropolis-Hastings steps starting from start.
// The context is polled every ctxCheckInterval proposals; on cancellation
// the chain stops early and returns the best-so-far result (the caller
// distinguishes a cut-short chain via its own ctx).
func (s *Sampler) Run(ctx context.Context, start *x64.Program, proposals int64) Result {
	r := s.Begin(start, proposals)
	r.Step(ctx, proposals)
	return r.Result()
}

// A Run is one chain's resumable execution state: Begin initialises it,
// Step advances it by a bounded number of proposals, and Result harvests
// the outcome at any point. The search coordinator drives chains in
// cadenced segments through this interface, applying replica exchange and
// testcase broadcasts between segments; Sampler.Run is the
// run-to-completion wrapper.
//
// A Run is single-owner like the Sampler itself: Step, Adopt and AddTests
// must never run concurrently with each other. The coordinator guarantees
// this by only touching runs at barriers, when no segment is in flight.
type Run struct {
	s       *Sampler
	cur     *x64.Program
	comp    *emu.Compiled // compiled path (nil when Interpreted)
	scratch *x64.Program  // interpreted path (nil when compiled)
	cs      *chainState
	done    int64 // proposals consumed so far
	budget  int64
	stopped bool
}

// Begin pads the starting program to ℓ, scores it, and returns the chain
// ready to Step. It performs one full-budget evaluation, so calling Begin
// for a batch of chains from a single goroutine (as the coordinator does)
// keeps any shared-profile reads at a deterministic point.
func (s *Sampler) Begin(start *x64.Program, proposals int64) *Run {
	if s.Params.Ell == 0 {
		s.Params = PaperParams
	}
	cur := start.PadTo(s.Params.Ell)
	r := &Run{s: s, cur: cur, budget: proposals}
	if s.Interpreted {
		r.cs = s.newChain(cur, s.Cost.Eval(cur, cost.MaxBudget))
		r.scratch = cur.Clone()
	} else {
		r.comp = s.Cost.Compile(cur)
		r.cs = s.newChain(cur, s.Cost.EvalCompiled(r.comp, cost.MaxBudget))
	}
	if r.budget <= 0 || r.cs.bestCost == 0 {
		r.stopped = true
	}
	return r
}

// Step advances the chain by up to n proposals, returning false once the
// run is finished (budget exhausted or best cost zero). A context
// cancellation returns early without finishing the run, so the caller can
// still harvest Result; the proposal stream is a pure function of the
// chain's RNG, unaffected by how the budget is sliced into Steps.
func (r *Run) Step(ctx context.Context, n int64) bool {
	if r.stopped {
		return false
	}
	if ctx == nil {
		ctx = context.Background()
	}
	end := r.done + n
	if end > r.budget {
		end = r.budget
	}
	if r.s.Interpreted {
		r.stepInterpreted(ctx, end)
	} else {
		r.stepCompiled(ctx, end)
	}
	if r.done >= r.budget || r.cs.bestCost == 0 {
		r.stopped = true
	}
	return !r.stopped
}

// Finished reports whether the run has consumed its budget or reached a
// zero-cost best (it will make no further progress).
func (r *Run) Finished() bool { return r.stopped }

// Proposals reports how many proposals the run has consumed.
func (r *Run) Proposals() int64 { return r.done }

// Result assembles the chain's outcome so far; the run may keep stepping
// afterwards.
func (r *Run) Result() Result { return r.cs.result() }

// Current exposes the chain's current program. Callers must treat it as
// read-only (clone before mutating or publishing).
func (r *Run) Current() *x64.Program { return r.cur }

// CurrentCost is the cost of the current program.
func (r *Run) CurrentCost() float64 { return r.cs.curCost }

// Beta reports the chain's inverse temperature.
func (r *Run) Beta() float64 { return r.s.Params.Beta }

// SetBeta moves the chain to a new rung of the temperature ladder; it
// takes effect from the next proposal's acceptance bound.
func (r *Run) SetBeta(b float64) { r.s.Params.Beta = b }

// BestCorrect returns the chain's best testcase-correct program (nil when
// none) and its cost. The program is shared state: clone before mutating.
func (r *Run) BestCorrect() (*x64.Program, float64) {
	return r.cs.bestCorrect, r.cs.bestCorrectCost
}

// eval scores the current program at full budget through the run's
// evaluation path.
func (r *Run) eval() cost.Result {
	if r.comp != nil {
		return r.s.Cost.EvalCompiled(r.comp, cost.MaxBudget)
	}
	return r.s.Cost.Eval(r.cur, cost.MaxBudget)
}

// Adopt replaces the current program with p (a replica-exchange swap or a
// shared-best reseed), re-evaluating it and folding the result into the
// best-so-far bookkeeping without counting a proposal or an accept. p must
// fit the chain's ℓ slots; shorter programs are padded with UNUSED.
func (r *Run) Adopt(p *x64.Program) {
	n := copy(r.cur.Insts, p.Insts)
	for i := n; i < len(r.cur.Insts); i++ {
		r.cur.Insts[i] = x64.Unused()
	}
	if r.comp != nil {
		r.comp.Recompile()
	}
	res := r.eval()
	r.s.Stats.TestsEvaluated += int64(res.TestsRun)
	r.cs.observe(r.cur, res)
	if r.cs.bestCost == 0 {
		r.stopped = true
	}
}

// AddTests folds broadcast counterexample testcases into the chain's cost
// function mid-run: the current program is re-scored against the refined τ
// and a best-correct program the new testcases refute is dropped (its
// clone lives on in the coordinator's pool, where the final re-ranking
// filters it against the refined testcases anyway).
func (r *Run) AddTests(tcs []testgen.Testcase) {
	if len(tcs) == 0 {
		return
	}
	for i := range tcs {
		r.s.Cost.AddTest(tcs[i])
	}
	res := r.eval()
	r.s.Stats.TestsEvaluated += int64(res.TestsRun)
	r.cs.curCost, r.cs.curEq = res.Cost, res.EqCost
	if r.cs.bestCorrect != nil {
		bres := r.s.Cost.Eval(r.cs.bestCorrect, cost.MaxBudget)
		r.s.Stats.TestsEvaluated += int64(bres.TestsRun)
		if bres.EqCost != 0 {
			r.cs.bestCorrect = nil
			r.cs.bestCorrectCost = math.Inf(1)
		} else {
			r.cs.bestCorrectCost = bres.Cost
		}
	}
	// The best-seen tracker ranks arbitrary (possibly incorrect) programs;
	// re-score it so the improvement threshold reflects the refined τ.
	bres := r.s.Cost.Eval(r.cs.best, cost.MaxBudget)
	r.s.Stats.TestsEvaluated += int64(bres.TestsRun)
	r.cs.bestCost = bres.Cost
}

// chainState is the per-chain bookkeeping shared by both evaluation paths:
// best-seen and best-correct tracking, restart pacing, the Equation 14
// acceptance-bound draw, and the final Result. The loops themselves differ
// only in their evaluate/commit/undo mechanics.
type chainState struct {
	s       *Sampler
	curCost float64
	// curEq is the eq term of curCost: with it, a no-op proposal is
	// accepted with exactly the Result a fresh evaluation would return.
	curEq           float64
	best            *x64.Program
	bestCost        float64
	zero            bool
	bestCorrect     *x64.Program
	bestCorrectCost float64
	sinceImprove    int64
}

// newChain seeds the bookkeeping from the starting program's evaluation.
func (s *Sampler) newChain(cur *x64.Program, curRes cost.Result) *chainState {
	s.Stats.TestsEvaluated += int64(curRes.TestsRun)
	cs := &chainState{
		s:               s,
		curCost:         curRes.Cost,
		curEq:           curRes.EqCost,
		best:            cur.Clone(),
		bestCost:        curRes.Cost,
		bestCorrectCost: math.Inf(1),
	}
	if curRes.EqCost == 0 {
		cs.zero = true
		cs.bestCorrect = cur.Clone()
		cs.bestCorrectCost = curRes.Cost
	}
	return cs
}

// restartDue reports whether the optional restart should rewind the chain
// to the best correct program seen (an extension over the paper; disabled
// when RestartAfter is zero), adjusting the cost bookkeeping; the caller
// copies cs.bestCorrect into the current program and resyncs its compiled
// form.
func (cs *chainState) restartDue() bool {
	if cs.s.RestartAfter <= 0 || cs.sinceImprove < cs.s.RestartAfter || cs.bestCorrect == nil {
		return false
	}
	cs.curCost, cs.curEq = cs.bestCorrectCost, 0
	cs.sinceImprove = 0
	return true
}

// bound draws the early-termination acceptance bound (Equation 14): sample
// the coin first and convert it into the maximum cost the proposal could be
// accepted at, so the evaluator can stop as soon as it is exceeded.
func (cs *chainState) bound() float64 {
	// -log(U)/β drawn directly from the exponential distribution: the
	// ziggurat sampler takes one table lookup on the fast path where the
	// uniform-then-log form paid a math.Log per proposal. (Same
	// distribution, different consumption of the RNG stream, so
	// fixed-seed trajectories differ from earlier releases but remain
	// deterministic.)
	return cs.curCost + cs.s.Rng.ExpFloat64()/cs.s.Params.Beta
}

// accept records an accepted proposal, with cur already holding the
// accepted program.
func (cs *chainState) accept(i int64, cur *x64.Program, res cost.Result) {
	s := cs.s
	cs.curCost, cs.curEq = res.Cost, res.EqCost
	s.Stats.Accepts++
	if res.EqCost == 0 {
		cs.zero = true
		if cs.curCost < cs.bestCorrectCost {
			cs.bestCorrectCost = cs.curCost
			if cs.bestCorrect == nil {
				cs.bestCorrect = cur.Clone()
			} else {
				copy(cs.bestCorrect.Insts, cur.Insts)
			}
			cs.sinceImprove = 0
		}
	}
	if cs.curCost < cs.bestCost {
		cs.bestCost = cs.curCost
		copy(cs.best.Insts, cur.Insts)
		cs.sinceImprove = 0
		if s.OnImprove != nil {
			s.OnImprove(i, cs.curCost, cs.best.Clone())
		}
	}
}

// observe folds an out-of-band evaluation of the current program (a
// replica swap or a shared-best reseed) into the bookkeeping: curCost and
// the best trackers update, but no proposal or accept is counted and
// OnImprove does not fire — the program was not discovered by this chain.
func (cs *chainState) observe(cur *x64.Program, res cost.Result) {
	cs.curCost, cs.curEq = res.Cost, res.EqCost
	if res.EqCost == 0 {
		cs.zero = true
		if res.Cost < cs.bestCorrectCost {
			cs.bestCorrectCost = res.Cost
			if cs.bestCorrect == nil {
				cs.bestCorrect = cur.Clone()
			} else {
				copy(cs.bestCorrect.Insts, cur.Insts)
			}
			cs.sinceImprove = 0
		}
	}
	if res.Cost < cs.bestCost {
		cs.bestCost = res.Cost
		copy(cs.best.Insts, cur.Insts)
		cs.sinceImprove = 0
	}
}

// tick fires the periodic stats callback.
func (cs *chainState) tick() {
	s := cs.s
	if s.OnStep != nil && s.StepInterval > 0 && s.Stats.Proposals%s.StepInterval == 0 {
		s.OnStep(s.Stats, cs.curCost)
	}
}

// result assembles the chain's outcome.
func (cs *chainState) result() Result {
	return Result{
		Best: cs.best, BestCost: cs.bestCost,
		BestCorrect: cs.bestCorrect, BestCorrectCost: cs.bestCorrectCost,
		ZeroCost: cs.zero, Stats: cs.s.Stats,
	}
}

// stepCompiled is the chain loop over the decode-once pipeline: the
// current program is mutated in place, the compiled form is patched at
// exactly the slots a move touched, and rejection restores (and
// re-patches) the saved instructions. Chain restarts rewrite the whole
// program and recompile. A no-op move — one that left every touched slot
// as it was — proposes the current program, whose cost the chain already
// knows, so it is accepted without patching or running a testcase.
func (r *Run) stepCompiled(ctx context.Context, end int64) {
	s, cur, comp, cs := r.s, r.cur, r.comp, r.cs

	for ; r.done < end; r.done++ {
		i := r.done
		if i%ctxCheckInterval == 0 && ctx.Err() != nil {
			break
		}
		s.Stats.Proposals++
		cs.sinceImprove++

		if cs.restartDue() {
			copy(cur.Insts, cs.bestCorrect.Insts)
			comp.Recompile()
		}

		rec, ok := s.proposeTracked(cur)
		switch {
		case !ok:
			// Degenerate move (e.g. no live instruction to mutate): the
			// proposal equals the current state and is trivially accepted.
			s.Stats.Accepts++
		case rec.noop(cur):
			// An evaluation would return the current Result and pass any
			// bound at or above the current cost, so the proposal is
			// accepted. The bound is still drawn, keeping the random
			// stream — and every later decision — identical to a chain
			// that evaluates it; the compiled form, unpatched, already is
			// the proposal's.
			s.Stats.RegFreeSlots += int64(comp.RegFreeSlots())
			s.Stats.RegWritingSlots += int64(comp.RegWritingSlots())
			cs.bound()
			cs.accept(i, cur, cost.Result{Cost: cs.curCost, EqCost: cs.curEq})
		default:
			var saved [2]emu.SavedSlot
			for k := 0; k < rec.n; k++ {
				saved[k] = comp.SaveSlot(rec.idx[k])
				comp.Patch(rec.idx[k])
			}
			s.Stats.RegFreeSlots += int64(comp.RegFreeSlots())
			s.Stats.RegWritingSlots += int64(comp.RegWritingSlots())

			bound := cs.bound()
			res := s.Cost.EvalCompiled(comp, bound)
			s.Stats.TestsEvaluated += int64(res.TestsRun)

			if !res.Early && res.Cost <= bound {
				// Accept: cur and comp already hold the proposal.
				cs.accept(i, cur, res)
			} else {
				// Reject: restore the touched slots, then reinstate their
				// saved compiled state — no re-lowering on the (majority)
				// reject path. Reverse order, so a move that touched one
				// slot twice lands on the first, pristine snapshot.
				for k := 0; k < rec.n; k++ {
					cur.Insts[rec.idx[k]] = rec.old[k]
				}
				for k := rec.n - 1; k >= 0; k-- {
					comp.RestoreSlot(rec.idx[k], saved[k])
				}
			}
		}

		cs.tick()
		if cs.bestCost == 0 {
			r.done++
			break // nothing left to minimise
		}
	}
}

// stepInterpreted is the seed chain loop: copy the whole ℓ-slot program
// per proposal and re-interpret it from scratch. It is the baseline the
// compiled pipeline is benchmarked and differentially tested against.
func (r *Run) stepInterpreted(ctx context.Context, end int64) {
	s, cur, scratch, cs := r.s, r.cur, r.scratch, r.cs

	for ; r.done < end; r.done++ {
		i := r.done
		if i%ctxCheckInterval == 0 && ctx.Err() != nil {
			break
		}
		s.Stats.Proposals++
		cs.sinceImprove++

		if cs.restartDue() {
			copy(cur.Insts, cs.bestCorrect.Insts)
		}

		copy(scratch.Insts, cur.Insts)
		if !s.propose(scratch) {
			// Degenerate move (e.g. no live instruction to mutate): the
			// proposal equals the current state and is trivially accepted.
			s.Stats.Accepts++
			cs.tick()
			continue
		}

		bound := cs.bound()
		res := s.Cost.Eval(scratch, bound)
		s.Stats.TestsEvaluated += int64(res.TestsRun)

		if !res.Early && res.Cost <= bound {
			// Accept: swap current and scratch.
			cur, scratch = scratch, cur
			r.cur, r.scratch = cur, scratch
			cs.accept(i, cur, res)
		}

		cs.tick()
		if cs.bestCost == 0 {
			r.done++
			break // nothing left to minimise
		}
	}
}

// moveRec records which instruction slots one move touched and their prior
// contents, so the compiled pipeline can patch exactly those slots and
// restore them on rejection. Every move type touches at most two slots.
type moveRec struct {
	n   int
	idx [2]int
	old [2]x64.Inst
}

// record notes that slot i held inst before the move.
func (r *moveRec) record(i int, inst x64.Inst) {
	r.idx[r.n] = i
	r.old[r.n] = inst
	r.n++
}

// noop reports whether every slot the move touched in p still holds its
// prior contents — an operand or opcode redrawn to itself, a swap of two
// identical instructions, UNUSED written over UNUSED — so the proposal is
// the current program.
func (r *moveRec) noop(p *x64.Program) bool {
	for k := 0; k < r.n; k++ {
		if p.Insts[r.idx[k]] != r.old[k] {
			return false
		}
	}
	return true
}

// propose applies one random move to p in place, returning false if the
// move degenerated to a no-op.
func (s *Sampler) propose(p *x64.Program) bool {
	_, ok := s.proposeTracked(p)
	return ok
}

// proposeTracked applies one random move to p in place, reporting the
// touched slots. ok is false if the move degenerated to a no-op (in which
// case p is unchanged and rec is empty).
func (s *Sampler) proposeTracked(p *x64.Program) (rec moveRec, ok bool) {
	r := s.Rng.Float64()
	total := s.Params.PC + s.Params.PO + s.Params.PS + s.Params.PI
	r *= total
	switch {
	case r < s.Params.PC:
		return s.moveOpcode(p)
	case r < s.Params.PC+s.Params.PO:
		return s.moveOperand(p)
	case r < s.Params.PC+s.Params.PO+s.Params.PS:
		return s.moveSwap(p)
	default:
		return s.moveInstruction(p)
	}
}

// mutableSlot reports whether an opcode participates in opcode/operand
// moves (control structure is pinned).
func mutableSlot(op x64.Opcode) bool {
	switch op {
	case x64.UNUSED, x64.LABEL, x64.JMP, x64.Jcc, x64.RET:
		return false
	}
	return true
}

// liveSlot picks a uniformly random non-UNUSED, non-LABEL, mutable
// instruction slot: collect the candidates in one pass over the ℓ slots,
// then draw once (one RNG call per move instead of one per live slot, and
// one sweep over the ~100-byte instruction records instead of two).
func (s *Sampler) liveSlot(p *x64.Program) int {
	if cap(s.liveIdx) < len(p.Insts) {
		s.liveIdx = make([]int32, len(p.Insts))
	}
	idx := s.liveIdx[:0]
	for i := range p.Insts {
		if mutableSlot(p.Insts[i].Op) {
			idx = append(idx, int32(i))
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return int(idx[s.Rng.Intn(len(idx))])
}

// moveOpcode replaces one instruction's opcode with a random opcode from
// the equivalence class sharing its operand signature (§4.3).
func (s *Sampler) moveOpcode(p *x64.Program) (rec moveRec, ok bool) {
	i := s.liveSlot(p)
	if i < 0 {
		return rec, false
	}
	in := &p.Insts[i]
	old := *in
	sig, sok := x64.MatchSig(in.Op, in.Opd[:in.N])
	if !sok {
		return rec, false
	}
	class := opcodeClasses[sig]
	if len(class) == 0 {
		return rec, false
	}
	op := class[s.Rng.Intn(len(class))]
	in.Op = op
	if x64.Info(op).HasCC {
		in.CC = s.randomCond()
	} else {
		in.CC = x64.CondNone
	}
	if !in.Valid() {
		// Fixed-register constraints (cl shift counts) can invalidate the
		// swap; restore and treat as a degenerate proposal.
		*in = old
		return rec, false
	}
	rec.record(i, old)
	return rec, true
}

// moveOperand replaces one randomly chosen operand with a random operand of
// the same type (§4.3). Immediates are drawn from the constant bag.
func (s *Sampler) moveOperand(p *x64.Program) (rec moveRec, ok bool) {
	i := s.liveSlot(p)
	if i < 0 {
		return rec, false
	}
	in := &p.Insts[i]
	if in.N == 0 {
		return rec, false
	}
	slot := s.Rng.Intn(int(in.N))
	o := in.Opd[slot]
	switch o.Kind {
	case x64.KindReg:
		// Shift counts must stay in CL.
		if x64.IsShift(in.Op) && slot == 0 && o.Width == 1 {
			return rec, false
		}
		// x86 r/m operands form one equivalence class: a register slot
		// may become a same-width memory operand when the opcode has such
		// a signature (validated below), and vice versa.
		if s.Rng.Intn(4) == 0 {
			if m, found := s.randomMem(o.Width); found {
				o = m
				break
			}
		}
		o.Reg = s.randomReg()
	case x64.KindXmm:
		o.Reg = x64.Reg(s.Rng.Intn(x64.NumXMM))
	case x64.KindImm:
		o.Imm = s.Pools.Imms[s.Rng.Intn(len(s.Pools.Imms))]
	case x64.KindMem:
		if s.Rng.Intn(4) == 0 {
			o = x64.R(s.randomReg(), o.Width)
			break
		}
		m, found := s.randomMem(o.Width)
		if !found {
			o = x64.R(s.randomReg(), o.Width)
			break
		}
		o = m
	default:
		return rec, false
	}
	// Condition codes count as operands for mutation purposes.
	old := *in
	if x64.Info(in.Op).HasCC && s.Rng.Intn(4) == 0 {
		in.CC = s.randomCond()
	}
	in.Opd[slot] = o
	if !in.Valid() {
		*in = old
		return rec, false
	}
	rec.record(i, old)
	return rec, true
}

// moveSwap interchanges two random instruction slots (§4.3).
func (s *Sampler) moveSwap(p *x64.Program) (rec moveRec, ok bool) {
	n := len(p.Insts)
	if n < 2 {
		return rec, false
	}
	i := s.Rng.Intn(n)
	j := s.Rng.Intn(n)
	if i == j {
		return rec, false
	}
	// Labels and jumps are pinned (control structure is not searched).
	for _, k := range []int{i, j} {
		switch p.Insts[k].Op {
		case x64.LABEL, x64.JMP, x64.Jcc, x64.RET:
			return rec, false
		}
	}
	rec.record(i, p.Insts[i])
	rec.record(j, p.Insts[j])
	p.Insts[i], p.Insts[j] = p.Insts[j], p.Insts[i]
	return rec, true
}

// moveInstruction replaces a random slot with either UNUSED (probability
// pu) or an unconstrained random instruction (§4.3).
func (s *Sampler) moveInstruction(p *x64.Program) (rec moveRec, ok bool) {
	n := len(p.Insts)
	if n == 0 {
		return rec, false
	}
	i := s.Rng.Intn(n)
	switch p.Insts[i].Op {
	case x64.LABEL, x64.JMP, x64.Jcc, x64.RET:
		return rec, false
	}
	if s.Rng.Float64() < s.Params.PU {
		rec.record(i, p.Insts[i])
		p.Insts[i] = x64.Unused()
		return rec, true
	}
	in, iok := s.RandomInst()
	if !iok {
		return rec, false
	}
	rec.record(i, p.Insts[i])
	p.Insts[i] = in
	return rec, true
}

// RandomInst generates an unconstrained random instruction: a random
// proposable opcode, a random signature, and random operands of the
// appropriate types.
func (s *Sampler) RandomInst() (x64.Inst, bool) {
	for attempt := 0; attempt < 8; attempt++ {
		pool := proposableOpcodes
		if s.Pools.Xmm && s.Rng.Intn(3) == 0 {
			pool = proposableSSE
		}
		op := pool[s.Rng.Intn(len(pool))]
		info := x64.Info(op)
		sig := info.Sigs[s.Rng.Intn(len(info.Sigs))]
		// Immediates take the signature's context width (the width of the
		// register or memory slots around them).
		ctxWidth := uint8(8)
		for k := uint8(0); k < sig.N; k++ {
			if w := x64.TokWidth(sig.Slot[k]); w != 0 && w != 16 {
				ctxWidth = w
			}
		}
		var opds []x64.Operand
		ok := true
		for k := uint8(0); k < sig.N && ok; k++ {
			o, good := s.randomOperand(sig.Slot[k])
			if o.Kind == x64.KindImm {
				o.Width = ctxWidth
			}
			opds = append(opds, o)
			ok = good
		}
		if !ok {
			continue
		}
		// Shift counts in registers must be CL.
		if x64.IsShift(op) && len(opds) == 2 && opds[0].Kind == x64.KindReg && opds[0].Width == 1 {
			opds[0].Reg = x64.RCX
		}
		in := x64.MakeInst(op, opds...)
		if info.HasCC {
			in.CC = s.randomCond()
		}
		if in.Valid() {
			return in, true
		}
	}
	return x64.Inst{}, false
}

func (s *Sampler) randomReg() x64.Reg {
	return s.Pools.Regs[s.Rng.Intn(len(s.Pools.Regs))]
}

func (s *Sampler) randomCond() x64.Cond {
	return x64.Cond(1 + s.Rng.Intn(int(x64.NumConds)-1))
}

// randomMem draws a target-shaped memory operand of the given width,
// uniformly among the pool's width matches. It counts the matches, draws
// one index, and scans for it, so a proposal allocates nothing.
func (s *Sampler) randomMem(width uint8) (x64.Operand, bool) {
	n := 0
	for _, m := range s.Pools.Mems {
		if m.Width == width {
			n++
		}
	}
	if n == 0 {
		return x64.Operand{}, false
	}
	k := s.Rng.Intn(n)
	for _, m := range s.Pools.Mems {
		if m.Width == width {
			if k == 0 {
				return m, true
			}
			k--
		}
	}
	panic("unreachable")
}

func (s *Sampler) randomOperand(tok x64.SigTok) (x64.Operand, bool) {
	switch tok {
	case x64.TokR8, x64.TokR16, x64.TokR32, x64.TokR64:
		return x64.R(s.randomReg(), x64.TokWidth(tok)), true
	case x64.TokX:
		return x64.X(x64.Reg(s.Rng.Intn(x64.NumXMM))), true
	case x64.TokI:
		return x64.Imm(s.Pools.Imms[s.Rng.Intn(len(s.Pools.Imms))], 8), true
	case x64.TokM8, x64.TokM16, x64.TokM32, x64.TokM64, x64.TokM128:
		return s.randomMem(x64.TokWidth(tok))
	}
	return x64.Operand{}, false
}

// RandomProgram builds the random synthesis starting point of §4.4: ℓ slots
// filled with unconstrained random instructions (or UNUSED with the token
// probability).
func (s *Sampler) RandomProgram() *x64.Program {
	if s.Params.Ell == 0 {
		s.Params = PaperParams
	}
	p := x64.NewProgram(s.Params.Ell)
	for i := range p.Insts {
		if s.Rng.Float64() < s.Params.PU {
			continue
		}
		if in, ok := s.RandomInst(); ok {
			p.Insts[i] = in
		}
	}
	return p
}
