package verify

import (
	"context"
	"fmt"

	"repro/internal/bv"
	"repro/internal/sat"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// Verdict is the outcome of an equivalence query.
type Verdict int

// Verdicts.
const (
	// Equal: proven equivalent on all inputs (UNSAT difference query).
	Equal Verdict = iota
	// NotEqual: a concrete counterexample distinguishes the programs
	// (modulo uninterpreted-function choices; the driver re-checks it
	// concretely before refining the testcase set).
	NotEqual
	// Unknown: the SAT budget was exhausted.
	Unknown
	// Unsupported: an instruction (div family) has no symbolic model.
	Unsupported
)

func (v Verdict) String() string {
	switch v {
	case Equal:
		return "equal"
	case NotEqual:
		return "not-equal"
	case Unknown:
		return "unknown"
	case Unsupported:
		return "unsupported"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// MemRange names a live memory region as a (base register, displacement,
// length) triple — the §5.1 annotation style, e.g. 16 bytes at (rsi).
type MemRange struct {
	Base x64.Reg
	Disp int32
	Len  int32
}

// LiveOut declares the live outputs compared by the validator.
type LiveOut struct {
	GPRs  []testgen.LiveReg
	Xmms  []x64.Reg
	Flags x64.FlagSet
	Mem   []MemRange
}

// Counterexample is a distinguishing initial machine state extracted from a
// SAT model.
type Counterexample struct {
	Regs  [x64.NumGPR]uint64
	Xmm   [x64.NumXMM][2]uint64
	Flags x64.FlagSet
	// Mem maps byte addresses (as resolved by the model) to their initial
	// contents.
	Mem map[uint64]byte
}

// ReasonStructural is the Reason of an Equal proven without a SAT call:
// every live output's two terms matched up to commutative operand order.
const ReasonStructural = "structural"

// Result reports one equivalence query.
type Result struct {
	Verdict   Verdict
	Cex       *Counterexample
	Reason    string
	Conflicts int64
	Clauses   int
}

// Equivalent asks whether target and rewrite produce identical side effects
// on the live outputs for every initial machine state (Equation 7 / §5.2).
// The context cancels a running proof: the SAT search polls it and a
// cancelled query answers Unknown with reason "cancelled".
func Equivalent(ctx context.Context, target, rewrite *x64.Program, live LiveOut, cfg Config) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return Result{Verdict: Unknown, Reason: "cancelled"}
	}
	b := bv.NewBuilder()
	sT := newSymState(b, cfg)
	sT.Exec(target)
	sR := newSymState(b, cfg)
	sR.Exec(rewrite)
	if sT.unsupported != "" || sR.unsupported != "" {
		reason := sT.unsupported
		if reason == "" {
			reason = sR.unsupported
		}
		return Result{Verdict: Unsupported, Reason: reason}
	}

	// Build the difference disjunction over live outputs. An output whose
	// two terms are equal up to commutative operand order cannot differ,
	// so it stays out of the miter.
	diff := b.False()
	differ := func(vT, vR *bv.Term) {
		if !b.CommEqual(vT, vR) {
			diff = b.Or(diff, b.Ne(vT, vR))
		}
	}
	for _, lr := range live.GPRs {
		differ(b.Extract(sT.regs[lr.Reg], 0, w8(lr.Width)), b.Extract(sR.regs[lr.Reg], 0, w8(lr.Width)))
	}
	for _, xr := range live.Xmms {
		differ(sT.xmm[xr][0], sR.xmm[xr][0])
		differ(sT.xmm[xr][1], sR.xmm[xr][1])
	}
	for f := x64.Flag(0); f < x64.NumFlags; f++ {
		if live.Flags.Has(f) {
			differ(sT.flags[f], sR.flags[f])
		}
	}
	// Live memory is addressed relative to the *input* value of the base
	// register (the §5.1 annotation), not its possibly-clobbered final
	// value — hence the fresh Var lookup, which hash-conses to the same
	// input term both programs started from.
	for _, mr := range live.Mem {
		for i := int32(0); i < mr.Len; i++ {
			addr := b.Add(b.Var(64, x64.GPRName(mr.Base, 8)),
				b.Const(64, uint64(int64(mr.Disp+i))))
			differ(finalByte(sT, addr), finalByte(sR, addr))
		}
	}

	// Fast path: when every live output of the two programs is the same
	// term up to commutative operand order — the builder's normal forms
	// having folded away stack round trips and zero-extension wrappers —
	// the difference is constant false and the query is proven without
	// a SAT call.
	if v, ok := diff.IsConst(); ok {
		if v == 0 {
			return Result{Verdict: Equal, Reason: ReasonStructural}
		}
		// Constant-true difference still needs a model for the CEX; fall
		// through to SAT with a trivial query.
	}

	// Formula-size guard: encoding time is the dominant cost on
	// memory-heavy kernels; past the cap the query answers Unknown.
	maxTerms := cfg.MaxTerms
	if maxTerms == 0 {
		maxTerms = DefaultConfig.MaxTerms
	}
	if b.NumTerms() > maxTerms {
		return Result{Verdict: Unknown,
			Reason: fmt.Sprintf("formula too large (%d terms)", b.NumTerms())}
	}

	s := sat.New()
	s.Budget = cfg.Budget
	s.Stop = func() bool { return ctx.Err() != nil }
	bl := bv.NewBlaster(s)
	bl.AssertTrue(diff)
	bl.AssertFunConsistency(b)
	clauses := s.NumClauses() // encoded problem size, before learned clauses

	st, model := s.SolveModel()
	res := Result{Conflicts: s.Conflicts(), Clauses: clauses}
	switch st {
	case sat.Unsat:
		res.Verdict = Equal
	case sat.Unknown:
		res.Verdict = Unknown
		if ctx.Err() != nil {
			res.Reason = "cancelled"
		} else {
			res.Reason = "conflict budget exhausted"
		}
	case sat.Sat:
		res.Verdict = NotEqual
		res.Cex = extractCex(b, bl, model)
	}
	return res
}

// finalByte reads the final value of one byte address from a finished
// symbolic state (all writes applied).
func finalByte(s *symState, addr *bv.Term) *bv.Term {
	return s.memReadByte(addr)
}

// extractCex reads the distinguishing initial state out of a SAT model.
func extractCex(b *bv.Builder, bl *bv.Blaster, model []bool) *Counterexample {
	cex := &Counterexample{Mem: map[uint64]byte{}}
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if v, ok := bl.TryValueOf(b.Var(64, x64.GPRName(r, 8)), model); ok {
			cex.Regs[r] = v
		}
	}
	for r := 0; r < x64.NumXMM; r++ {
		if v, ok := bl.TryValueOf(b.Var(64, fmt.Sprintf("xmm%d_lo", r)), model); ok {
			cex.Xmm[r][0] = v
		}
		if v, ok := bl.TryValueOf(b.Var(64, fmt.Sprintf("xmm%d_hi", r)), model); ok {
			cex.Xmm[r][1] = v
		}
	}
	for f := x64.Flag(0); f < x64.NumFlags; f++ {
		if v, ok := bl.TryValueOf(b.Var(1, f.String()), model); ok && v == 1 {
			cex.Flags |= 1 << f
		}
	}
	// Initial memory: each mem0 application pins one byte at a concrete
	// model address.
	for _, app := range b.Apps["mem0"] {
		addr, ok1 := bl.TryValueOf(app.Args[0], model)
		val, ok2 := bl.TryValueOf(app, model)
		if ok1 && ok2 {
			cex.Mem[addr] = byte(val)
		}
	}
	return cex
}
