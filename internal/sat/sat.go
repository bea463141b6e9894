// Package sat is a from-scratch CDCL SAT solver: two-watched-literal
// propagation, first-UIP conflict analysis, VSIDS branching with phase
// saving, Luby restarts, and activity-based learned-clause reduction. It is
// the decision procedure underneath the bit-vector validator (the role STP
// plays in §5.2 of the paper).
package sat

import "fmt"

// Lit is a literal: variable index shifted left once, low bit = negated.
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 != 0 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits     []Lit
	learned  bool
	activity float64
}

type watcher struct {
	cref    int32 // clause index
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
// Verifier queries each build a fresh Solver, so there is no incremental or
// assumption interface.
type Solver struct {
	clauses []*clause
	watches [][]watcher // indexed by literal

	assign   []lbool // indexed by variable
	level    []int32
	reason   []int32 // clause index or -1
	phase    []bool  // saved phase
	trail    []Lit
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap

	claInc     float64
	learnedCap int

	seen      []bool
	conflicts int64

	// Budget bounds the number of conflicts explored by one Solve call;
	// exceeding it yields Unknown. Zero means unlimited.
	Budget int64

	// Stop, when set, is polled periodically during search (every 256
	// conflicts); returning true aborts the solve with Unknown. It is how
	// callers thread context cancellation into a running proof.
	Stop func() bool

	unsat bool
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, learnedCap: 8192}
	s.order = &varHeap{solver: s}
	return s
}

// Conflicts returns the total conflicts encountered so far.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// NumClauses returns the number of clauses currently in the database.
// Read before Solve it is the encoded problem size (the observability
// metric threaded into proof-cost histograms); after Solve it also counts
// surviving learned clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *Solver) litValue(l Lit) lbool {
	a := s.assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Neg() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

// AddClause adds a clause; it must be called before Solve (root level).
// Returns false if the formula became trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	var out []Lit
	for _, l := range lits {
		switch s.rootValue(l) {
		case lTrue:
			return true
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueueRoot(out[0]) {
			s.unsat = true
			return false
		}
		return true
	}
	s.attachClause(&clause{lits: out})
	return true
}

// rootValue is the literal's value considering only root-level assignments.
func (s *Solver) rootValue(l Lit) lbool {
	if s.assign[l.Var()] == lUndef || s.level[l.Var()] != 0 {
		return lUndef
	}
	return s.litValue(l)
}

// enqueueRoot asserts a literal at the root level and propagates.
func (s *Solver) enqueueRoot(l Lit) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.uncheckedEnqueue(l, -1)
	return s.propagate() == -1
}

func (s *Solver) attachClause(c *clause) int32 {
	cref := int32(len(s.clauses))
	s.clauses = append(s.clauses, c)
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{cref, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{cref, c.lits[0]})
	return cref
}

func (s *Solver) uncheckedEnqueue(l Lit, reason int32) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = reason
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns the index of a
// conflicting clause or -1.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		conflict := int32(-1)
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.litValue(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := s.clauses[w.cref]
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				kept = append(kept, watcher{w.cref, first})
				continue
			}
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()],
						watcher{w.cref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, watcher{w.cref, first})
			if s.litValue(first) == lFalse {
				conflict = w.cref
				// Copy the remaining watchers and stop.
				kept = append(kept, ws[wi+1:]...)
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		s.watches[p] = kept
		if conflict >= 0 {
			return conflict
		}
	}
	return -1
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	var toClear []int
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1

	for {
		c := s.clauses[confl]
		if c.learned {
			s.bumpClause(c)
		}
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			toClear = append(toClear, v)
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		counter--
		idx--
		if counter == 0 {
			break
		}

	}
	learnt[0] = p.Not()

	// Cheap clause minimisation: drop literals whose antecedents are all
	// already in the clause.
	j := 1
	for i := 1; i < len(learnt); i++ {
		if s.reason[learnt[i].Var()] == -1 || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}

	for _, v := range toClear {
		s.seen[v] = false
	}
	return learnt, btLevel
}

// litRedundant reports whether every antecedent of l is already seen (a
// one-step self-subsumption test).
func (s *Solver) litRedundant(l Lit) bool {
	cref := s.reason[l.Var()]
	if cref < 0 {
		return false
	}
	for _, q := range s.clauses[cref].lits {
		if q.Var() == l.Var() {
			continue
		}
		if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
			return false
		}
	}
	return true
}

func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = -1
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, cl := range s.clauses {
			if cl.learned {
				cl.activity *= 1e-20
			}
		}
		s.claInc *= 1e-20
	}
}

// pickBranch returns the highest-activity unassigned variable, or -1.
func (s *Solver) pickBranch() int {
	for s.order.size() > 0 {
		v := s.order.pop()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes low-activity learned clauses once the database grows
// past its cap. Reason clauses and binary clauses are kept.
func (s *Solver) reduceDB() {
	nLearned := 0
	var actSum float64
	for _, c := range s.clauses {
		if c.learned {
			nLearned++
			actSum += c.activity
		}
	}
	if nLearned < s.learnedCap {
		return
	}
	threshold := actSum / float64(nLearned)
	inUse := make(map[int32]bool)
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r >= 0 {
			inUse[r] = true
		}
	}

	old := s.clauses
	s.clauses = nil
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	remap := make([]int32, len(old))
	for i := range remap {
		remap[i] = -1
	}
	for i, c := range old {
		if c.learned && len(c.lits) > 2 && c.activity < threshold && !inUse[int32(i)] {
			continue
		}
		remap[i] = s.attachClause(c)
	}
	for v := range s.reason {
		if s.reason[v] >= 0 {
			s.reason[v] = remap[s.reason[v]]
		}
	}
	s.learnedCap += s.learnedCap / 2
}

// luby returns the x-th element (1-based) of the Luby restart sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(x int64) int64 {
	x--
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return 1 << seq
}

// Solve decides the formula.
func (s *Solver) Solve() Status {
	st, _ := s.SolveModel()
	return st
}

// SolveModel decides the formula and, when satisfiable, returns a copy of
// the satisfying assignment indexed by variable.
func (s *Solver) SolveModel() (Status, []bool) {
	if s.unsat {
		return Unsat, nil
	}
	st := s.search()
	var model []bool
	if st == Sat {
		model = make([]bool, len(s.assign))
		for v := range s.assign {
			model[v] = s.assign[v] == lTrue
		}
	}
	s.backtrack(0)
	if st == Unsat {
		s.unsat = true
	}
	return st, model
}

// search is the CDCL main loop.
func (s *Solver) search() Status {
	if s.propagate() != -1 {
		return Unsat
	}
	restarts := int64(1)
	conflictsAtStart := s.conflicts
	limit := luby(restarts) * 128

	for {
		confl := s.propagate()
		if confl >= 0 {
			s.conflicts++
			if s.decisionLevel() == 0 {
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.backtrack(bt)
			if len(learnt) == 1 {
				s.backtrack(0)
				if !s.enqueueRoot(learnt[0]) {
					return Unsat
				}
			} else {
				c := &clause{lits: learnt, learned: true}
				s.bumpClause(c)
				cref := s.attachClause(c)
				s.uncheckedEnqueue(learnt[0], cref)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.Budget > 0 && s.conflicts-conflictsAtStart > s.Budget {
				return Unknown
			}
			if s.Stop != nil && s.conflicts&255 == 0 && s.Stop() {
				return Unknown
			}
			if s.conflicts-conflictsAtStart > limit {
				restarts++
				limit += luby(restarts) * 128
				s.backtrack(0)
				s.reduceDB()
			}
			continue
		}

		v := s.pickBranch()
		if v < 0 {
			return Sat
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(MkLit(v, !s.phase[v]), -1)
	}
}

// Value returns the model value of variable v after a Sat verdict from the
// most recent search. Prefer SolveModel, which snapshots the assignment.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// varHeap is a max-heap over variable activities.
type varHeap struct {
	solver *Solver
	heap   []int
	pos    []int
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(a, b int) bool {
	return h.solver.activity[h.heap[a]] > h.solver.activity[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = a
	h.pos[h.heap[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.heap) && h.less(l, best) {
			best = l
		}
		if r < len(h.heap) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) push(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] != -1 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if h.pos[v] != -1 {
		h.up(h.pos[v])
	}
}
