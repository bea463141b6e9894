// Package bv implements a hash-consed bit-vector term language with light
// algebraic simplification, a concrete evaluator, and a Tseitin bit-blaster
// onto the CDCL solver in internal/sat. Together with internal/sat it fills
// the role STP plays for STOKE (§5.2): deciding quantifier-free bit-vector
// queries and producing counterexample models.
//
// Builder folds constants and keeps these normal forms, so the values an
// -O0 program routes through the stack and through 32-bit register writes
// hash-cons to the terms they started as:
//
//   - base + offset: adding or subtracting a constant keeps one constant
//     on the right, (x + c1) + c2 is x + (c1+c2), and Eq and Sub decide
//     two terms over one base;
//   - extract(extract(a)) is one extract of a;
//   - extract(zext(a)) is an extract of a when the bits lie inside a, and
//     zero when they lie above it; an extract straddling the boundary
//     stays;
//   - zext(zext(a)) is one zext of a;
//   - concat of adjacent extracts of one term (hi starting where lo ends)
//     is one extract, also when one side is itself a concat, so a word
//     stored byte by byte and reloaded is the stored term again.
//
// Builder keeps operand order: commutative operands are not sorted, so
// the bit-blasted encoding follows the programs' own order. CommEqual
// compares terms up to that order instead.
//
// Terms are at most 64 bits wide; the verifier models 128-bit products as
// pairs of 64-bit terms. Uninterpreted functions (§5.2 treats 64-bit
// multiplication and division as uninterpreted) are App terms; Builder
// records every application so the verifier can assert Ackermann
// consistency constraints.
package bv

import (
	"fmt"
)

// Op is a term constructor.
type Op uint8

// Term constructors.
const (
	OpConst Op = iota
	OpVar
	OpApp // uninterpreted function application

	OpNot
	OpAnd
	OpOr
	OpXor

	OpNeg
	OpAdd
	OpSub
	OpMul

	OpShl  // a << b (b same width; counts >= width give 0)
	OpLshr // a >> b logical
	OpAshr // a >> b arithmetic

	OpExtract // bits [Lo, Lo+Width) of arg
	OpConcat  // hi ++ lo (width = sum)
	OpZext    // zero extend
	OpSext    // sign extend

	OpEq  // 1-bit
	OpUlt // 1-bit, unsigned <
	OpIte // cond(1), then, else
)

// Term is an immutable, hash-consed bit-vector expression node.
type Term struct {
	Op    Op
	Width uint8 // 1..64
	Val   uint64
	Name  string // Var and App
	Lo    uint8  // Extract
	Args  []*Term
	ID    int32
}

func (t *Term) String() string {
	switch t.Op {
	case OpConst:
		return fmt.Sprintf("%d'#x%x", t.Width, t.Val)
	case OpVar:
		return t.Name
	case OpApp:
		s := t.Name + "("
		for i, a := range t.Args {
			if i > 0 {
				s += ","
			}
			s += a.String()
		}
		return s + ")"
	case OpExtract:
		return fmt.Sprintf("%s[%d:%d]", t.Args[0], t.Lo+t.Width-1, t.Lo)
	}
	names := map[Op]string{
		OpNot: "not", OpAnd: "and", OpOr: "or", OpXor: "xor", OpNeg: "neg",
		OpAdd: "add", OpSub: "sub", OpMul: "mul", OpShl: "shl",
		OpLshr: "lshr", OpAshr: "ashr", OpConcat: "concat", OpZext: "zext",
		OpSext: "sext", OpEq: "=", OpUlt: "ult", OpIte: "ite",
	}
	s := names[t.Op] + "("
	for i, a := range t.Args {
		if i > 0 {
			s += ","
		}
		s += a.String()
	}
	return s + ")"
}

// IsConst reports whether t is a constant, returning its value.
func (t *Term) IsConst() (uint64, bool) {
	if t.Op == OpConst {
		return t.Val, true
	}
	return 0, false
}

type key struct {
	op         Op
	width, lo  uint8
	val        uint64
	name       string
	a0, a1, a2 int32
}

// Builder creates and hash-conses terms. It is not safe for concurrent use.
type Builder struct {
	terms map[key]*Term
	next  int32

	// Apps records every uninterpreted application, per function name, for
	// Ackermann expansion.
	Apps map[string][]*Term
	// appNames lists the keys of Apps in first-application order, so
	// consumers of Apps can walk it deterministically.
	appNames []string

	// commID memoizes CommEqual's canonical id per term ID (id+1; 0 is
	// unset), and commIDs interns the canonical keys.
	commID  []int32
	commIDs map[key]int32
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{terms: map[key]*Term{}, Apps: map[string][]*Term{}}
}

func mask(w uint8) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<w - 1
}

func (b *Builder) intern(t *Term) *Term {
	k := key{op: t.Op, width: t.Width, lo: t.Lo, val: t.Val, name: t.Name}
	ids := [3]int32{-1, -1, -1}
	for i, a := range t.Args {
		ids[i] = a.ID
	}
	k.a0, k.a1, k.a2 = ids[0], ids[1], ids[2]
	if got, ok := b.terms[k]; ok {
		return got
	}
	t.ID = b.next
	b.next++
	b.terms[k] = t
	if t.Op == OpApp {
		if _, seen := b.Apps[t.Name]; !seen {
			b.appNames = append(b.appNames, t.Name)
		}
		b.Apps[t.Name] = append(b.Apps[t.Name], t)
	}
	return t
}

// Const builds a w-bit constant.
func (b *Builder) Const(w uint8, v uint64) *Term {
	return b.intern(&Term{Op: OpConst, Width: w, Val: v & mask(w)})
}

// Var builds (or returns) the named w-bit input variable.
func (b *Builder) Var(w uint8, name string) *Term {
	return b.intern(&Term{Op: OpVar, Width: w, Name: name})
}

// App builds an application of the named uninterpreted function.
func (b *Builder) App(name string, w uint8, args ...*Term) *Term {
	return b.intern(&Term{Op: OpApp, Width: w, Name: name, Args: args})
}

// True and False are the 1-bit constants.
func (b *Builder) True() *Term  { return b.Const(1, 1) }
func (b *Builder) False() *Term { return b.Const(1, 0) }

func (b *Builder) unary(op Op, a *Term, f func(uint64) uint64) *Term {
	if v, ok := a.IsConst(); ok {
		return b.Const(a.Width, f(v))
	}
	return b.intern(&Term{Op: op, Width: a.Width, Args: []*Term{a}})
}

// Not is bitwise complement.
func (b *Builder) Not(a *Term) *Term {
	if a.Op == OpNot {
		return a.Args[0]
	}
	return b.unary(OpNot, a, func(v uint64) uint64 { return ^v })
}

// Neg is two's complement negation.
func (b *Builder) Neg(a *Term) *Term {
	return b.unary(OpNeg, a, func(v uint64) uint64 { return -v })
}

func (b *Builder) binary(op Op, x, y *Term, f func(a, c uint64) uint64) *Term {
	if x.Width != y.Width {
		panic(fmt.Sprintf("bv: width mismatch %d vs %d in %v", x.Width, y.Width, op))
	}
	xv, xc := x.IsConst()
	yv, yc := y.IsConst()
	if xc && yc {
		return b.Const(x.Width, f(xv, yv))
	}
	return b.intern(&Term{Op: op, Width: x.Width, Args: []*Term{x, y}})
}

// And is bitwise conjunction.
func (b *Builder) And(x, y *Term) *Term {
	if v, ok := x.IsConst(); ok {
		if v == 0 {
			return b.Const(x.Width, 0)
		}
		if v == mask(x.Width) {
			return y
		}
	}
	if v, ok := y.IsConst(); ok {
		if v == 0 {
			return b.Const(x.Width, 0)
		}
		if v == mask(x.Width) {
			return x
		}
	}
	if x == y {
		return x
	}
	return b.binary(OpAnd, x, y, func(a, c uint64) uint64 { return a & c })
}

// Or is bitwise disjunction.
func (b *Builder) Or(x, y *Term) *Term {
	if v, ok := x.IsConst(); ok {
		if v == 0 {
			return y
		}
		if v == mask(x.Width) {
			return x
		}
	}
	if v, ok := y.IsConst(); ok {
		if v == 0 {
			return x
		}
		if v == mask(y.Width) {
			return y
		}
	}
	if x == y {
		return x
	}
	return b.binary(OpOr, x, y, func(a, c uint64) uint64 { return a | c })
}

// Xor is bitwise exclusive or.
func (b *Builder) Xor(x, y *Term) *Term {
	if x == y {
		return b.Const(x.Width, 0)
	}
	if v, ok := x.IsConst(); ok && v == 0 {
		return y
	}
	if v, ok := y.IsConst(); ok && v == 0 {
		return x
	}
	return b.binary(OpXor, x, y, func(a, c uint64) uint64 { return a ^ c })
}

// Add is modular addition. Adding a constant keeps terms in base+offset
// normal form: (x + c1) + c2 becomes x + (c1+c2 mod 2^w), with the constant
// on the right, so addresses off one base register hash-cons to one base
// term and Eq can decide them without bit-blasting (§5.2's rsp-relative
// stack addresses).
func (b *Builder) Add(x, y *Term) *Term {
	if v, ok := y.IsConst(); ok {
		return b.addConst(x, v)
	}
	if v, ok := x.IsConst(); ok {
		return b.addConst(y, v)
	}
	return b.binary(OpAdd, x, y, func(a, c uint64) uint64 { return a + c })
}

// Sub is modular subtraction. Subtracting a constant adds its negation;
// two terms over the same base differ by the constant c1-c2.
func (b *Builder) Sub(x, y *Term) *Term {
	if v, ok := y.IsConst(); ok {
		return b.addConst(x, -v)
	}
	xb, xo := baseOffset(x)
	yb, yo := baseOffset(y)
	if xb == yb {
		return b.Const(x.Width, xo-yo)
	}
	return b.binary(OpSub, x, y, func(a, c uint64) uint64 { return a - c })
}

// baseOffset splits t into base + c: the arguments of an add-constant
// term, else t itself with offset 0.
func baseOffset(t *Term) (*Term, uint64) {
	if t.Op == OpAdd {
		if c, ok := t.Args[1].IsConst(); ok {
			return t.Args[0], c
		}
	}
	return t, 0
}

// addConst builds x + c in base+offset normal form.
func (b *Builder) addConst(x *Term, c uint64) *Term {
	if v, ok := x.IsConst(); ok {
		return b.Const(x.Width, v+c)
	}
	base, off := baseOffset(x)
	off = (off + c) & mask(x.Width)
	if off == 0 {
		return base
	}
	return b.intern(&Term{Op: OpAdd, Width: x.Width, Args: []*Term{base, b.Const(x.Width, off)}})
}

// Mul is modular multiplication (bit-blasted shift-add; the verifier uses
// uninterpreted functions for wide multiplies instead, per §5.2).
func (b *Builder) Mul(x, y *Term) *Term {
	if v, ok := x.IsConst(); ok {
		switch v {
		case 0:
			return b.Const(x.Width, 0)
		case 1:
			return y
		}
	}
	if v, ok := y.IsConst(); ok {
		switch v {
		case 0:
			return b.Const(x.Width, 0)
		case 1:
			return x
		}
	}
	return b.binary(OpMul, x, y, func(a, c uint64) uint64 { return a * c })
}

// Shl is a left shift by a same-width amount; counts >= width yield zero.
func (b *Builder) Shl(x, y *Term) *Term {
	if v, ok := y.IsConst(); ok && v == 0 {
		return x
	}
	return b.binary(OpShl, x, y, func(a, c uint64) uint64 {
		if c >= uint64(x.Width) {
			return 0
		}
		return a << c
	})
}

// Lshr is a logical right shift; counts >= width yield zero.
func (b *Builder) Lshr(x, y *Term) *Term {
	if v, ok := y.IsConst(); ok && v == 0 {
		return x
	}
	return b.binary(OpLshr, x, y, func(a, c uint64) uint64 {
		if c >= uint64(x.Width) {
			return 0
		}
		return (a & mask(x.Width)) >> c
	})
}

// Ashr is an arithmetic right shift; counts >= width replicate the sign.
func (b *Builder) Ashr(x, y *Term) *Term {
	if v, ok := y.IsConst(); ok && v == 0 {
		return x
	}
	w := x.Width
	return b.binary(OpAshr, x, y, func(a, c uint64) uint64 {
		sign := a >> (w - 1) & 1
		if c >= uint64(w) {
			if sign == 1 {
				return mask(w)
			}
			return 0
		}
		v := (a & mask(w)) >> c
		if sign == 1 {
			v |= mask(w) &^ (mask(w) >> c)
		}
		return v
	})
}

// Extract selects bits [lo, lo+w) of a.
func (b *Builder) Extract(a *Term, lo, w uint8) *Term {
	if lo == 0 && w == a.Width {
		return a
	}
	if lo+w > a.Width {
		panic(fmt.Sprintf("bv: extract [%d,%d) out of %d-bit term", lo, lo+w, a.Width))
	}
	if v, ok := a.IsConst(); ok {
		return b.Const(w, v>>lo)
	}
	switch a.Op {
	case OpExtract:
		return b.Extract(a.Args[0], a.Lo+lo, w)
	case OpZext:
		// Bits wholly inside the extended term or wholly above it; an
		// extract straddling the boundary stays as it is.
		x := a.Args[0]
		if lo+w <= x.Width {
			return b.Extract(x, lo, w)
		}
		if lo >= x.Width {
			return b.Const(w, 0)
		}
	}
	return b.intern(&Term{Op: OpExtract, Width: w, Lo: lo, Args: []*Term{a}})
}

// joinExtracts returns the single extract equal to hi ++ lo when both are
// extracts of one term and hi starts where lo ends.
func (b *Builder) joinExtracts(hi, lo *Term) (*Term, bool) {
	if hi.Op != OpExtract || lo.Op != OpExtract || hi.Args[0] != lo.Args[0] ||
		hi.Lo != lo.Lo+lo.Width {
		return nil, false
	}
	return b.Extract(lo.Args[0], lo.Lo, hi.Width+lo.Width), true
}

// Concat joins hi ++ lo; the result width is the sum (must be <= 64).
func (b *Builder) Concat(hi, lo *Term) *Term {
	w := hi.Width + lo.Width
	if w > 64 || hi.Width+lo.Width < hi.Width {
		panic("bv: concat wider than 64 bits")
	}
	hv, hc := hi.IsConst()
	lv, lc := lo.IsConst()
	if hc && lc {
		return b.Const(w, hv<<lo.Width|lv)
	}
	// Adjacent extracts of one term join into one extract, also across a
	// nested concat, so a word stored byte by byte and reloaded folds back
	// to the stored term.
	if t, ok := b.joinExtracts(hi, lo); ok {
		return t
	}
	if lo.Op == OpConcat {
		if t, ok := b.joinExtracts(hi, lo.Args[0]); ok {
			return b.Concat(t, lo.Args[1])
		}
	}
	if hi.Op == OpConcat {
		if t, ok := b.joinExtracts(hi.Args[1], lo); ok {
			return b.Concat(hi.Args[0], t)
		}
	}
	return b.intern(&Term{Op: OpConcat, Width: w, Args: []*Term{hi, lo}})
}

// Zext zero-extends a to w bits.
func (b *Builder) Zext(a *Term, w uint8) *Term {
	if w == a.Width {
		return a
	}
	if w < a.Width {
		panic("bv: zext narrows")
	}
	if v, ok := a.IsConst(); ok {
		return b.Const(w, v)
	}
	if a.Op == OpZext {
		a = a.Args[0]
	}
	return b.intern(&Term{Op: OpZext, Width: w, Args: []*Term{a}})
}

// Sext sign-extends a to w bits.
func (b *Builder) Sext(a *Term, w uint8) *Term {
	if w == a.Width {
		return a
	}
	if w < a.Width {
		panic("bv: sext narrows")
	}
	if v, ok := a.IsConst(); ok {
		sign := v >> (a.Width - 1) & 1
		if sign == 1 {
			v |= mask(w) &^ mask(a.Width)
		}
		return b.Const(w, v)
	}
	return b.intern(&Term{Op: OpSext, Width: w, Args: []*Term{a}})
}

// Eq is the 1-bit equality predicate.
func (b *Builder) Eq(x, y *Term) *Term {
	if x.Width != y.Width {
		panic("bv: eq width mismatch")
	}
	// Terms over the same base are equal exactly when their offsets are;
	// this decides x == x and the stack-slot comparisons of the write log.
	xb, xo := baseOffset(x)
	yb, yo := baseOffset(y)
	if xb == yb {
		if xo == yo {
			return b.True()
		}
		return b.False()
	}
	xv, xc := x.IsConst()
	yv, yc := y.IsConst()
	if xc && yc {
		if xv == yv {
			return b.True()
		}
		return b.False()
	}
	return b.intern(&Term{Op: OpEq, Width: 1, Args: []*Term{x, y}})
}

// Ult is the 1-bit unsigned less-than predicate.
func (b *Builder) Ult(x, y *Term) *Term {
	if x.Width != y.Width {
		panic("bv: ult width mismatch")
	}
	if x == y {
		return b.False()
	}
	xv, xc := x.IsConst()
	yv, yc := y.IsConst()
	if yc && yv == 0 {
		return b.False()
	}
	if xc && yc {
		if xv < yv {
			return b.True()
		}
		return b.False()
	}
	return b.intern(&Term{Op: OpUlt, Width: 1, Args: []*Term{x, y}})
}

// Ite is the if-then-else selector; cond must be 1-bit.
func (b *Builder) Ite(cond, then, els *Term) *Term {
	if cond.Width != 1 {
		panic("bv: ite condition must be 1-bit")
	}
	if then == els {
		return then
	}
	if v, ok := cond.IsConst(); ok {
		if v == 1 {
			return then
		}
		return els
	}
	if then.Width != els.Width {
		panic("bv: ite arm width mismatch")
	}
	return b.intern(&Term{Op: OpIte, Width: then.Width, Args: []*Term{cond, then, els}})
}

// Implies builds x -> y over 1-bit terms.
func (b *Builder) Implies(x, y *Term) *Term { return b.Or(b.Not(x), y) }

// Ne is the negated equality predicate.
func (b *Builder) Ne(x, y *Term) *Term { return b.Not(b.Eq(x, y)) }

// CommEqual reports whether x and y are equal up to the operand order of
// commutative operators (and, or, xor, add, mul, eq) anywhere in their
// DAGs: xor(a, b) matches xor(b, a), also deep inside both terms.
// Associativity is not normalized. Each term gets one memoized canonical
// id, so comparing costs time linear in the terms not yet seen. Terms keep
// their operand order; only the comparison ignores it.
func (b *Builder) CommEqual(x, y *Term) bool {
	return x == y || b.commCanon(x) == b.commCanon(y)
}

func commutative(op Op) bool {
	switch op {
	case OpAnd, OpOr, OpXor, OpAdd, OpMul, OpEq:
		return true
	}
	return false
}

// commCanon returns t's canonical id: the id of its key with every
// argument replaced by the argument's canonical id, commutative pairs in
// ascending order.
func (b *Builder) commCanon(t *Term) int32 {
	if int(t.ID) < len(b.commID) && b.commID[t.ID] != 0 {
		return b.commID[t.ID] - 1
	}
	ids := [3]int32{-1, -1, -1}
	for i, a := range t.Args {
		ids[i] = b.commCanon(a)
	}
	if commutative(t.Op) && ids[0] > ids[1] {
		ids[0], ids[1] = ids[1], ids[0]
	}
	k := key{op: t.Op, width: t.Width, lo: t.Lo, val: t.Val, name: t.Name,
		a0: ids[0], a1: ids[1], a2: ids[2]}
	if b.commIDs == nil {
		b.commIDs = map[key]int32{}
	}
	id, ok := b.commIDs[k]
	if !ok {
		id = int32(len(b.commIDs))
		b.commIDs[k] = id
	}
	if int(t.ID) >= len(b.commID) {
		b.commID = append(b.commID, make([]int32, int(b.next)-len(b.commID))...)
	}
	b.commID[t.ID] = id + 1
	return id
}

// NumTerms returns the number of distinct terms interned so far.
func (b *Builder) NumTerms() int { return len(b.terms) }
