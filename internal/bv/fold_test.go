package bv

import (
	"math/rand"
	"testing"
)

// Tests for the extract/zext/concat normal forms and for CommEqual. Every
// folded term is checked against concrete evaluation of the unfolded
// expression on random inputs, at widths 1-64.

// foldEnv draws random values for the variables x, y and z.
func foldEnv(rng *rand.Rand) *Env {
	return &Env{Vars: map[string]uint64{"x": rng.Uint64(), "y": rng.Uint64(), "z": rng.Uint64()}}
}

// foldBase returns a w-bit base term over x and y: a variable or a
// compound term.
func foldBase(b *Builder, rng *rand.Rand, w uint8) *Term {
	x, y := b.Var(w, "x"), b.Var(w, "y")
	return normalBases(b, x, y)[rng.Intn(6)]
}

func TestExtractZextFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 2000; iter++ {
		aw := uint8(1 + rng.Intn(63))
		zw := aw + uint8(1+rng.Intn(int(64-aw)))
		lo := uint8(rng.Intn(int(zw)))
		w := uint8(1 + rng.Intn(int(zw-lo)))
		b := NewBuilder()
		a := foldBase(b, rng, aw)
		z := b.Zext(a, zw)
		got := b.Extract(z, lo, w)

		switch {
		case lo == 0 && w == zw:
			if got != z {
				t.Fatalf("full extract of %v gives %v", z, got)
			}
		case lo+w <= aw:
			if want := b.Extract(a, lo, w); got != want {
				t.Fatalf("extract(zext%d(%v), %d, %d) = %v, want %v", zw, a, lo, w, got, want)
			}
		case lo >= aw:
			if v, ok := got.IsConst(); !ok || v != 0 {
				t.Fatalf("extract(zext%d(%v), %d, %d) = %v, want 0", zw, a, lo, w, got)
			}
		default:
			// Straddles the zero-extension boundary: stays unfolded.
			if got.Op != OpExtract || got.Args[0].Op != OpZext {
				t.Fatalf("straddling extract(zext%d(%v), %d, %d) folded to %v", zw, a, lo, w, got)
			}
		}

		env := foldEnv(rng)
		if g, want := Eval(got, env), Eval(a, env)>>lo&mask(w); g != want {
			t.Fatalf("%v evaluates to %#x, unfolded %#x", got, g, want)
		}
	}
}

func TestZextZextFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for iter := 0; iter < 1000; iter++ {
		aw := uint8(1 + rng.Intn(62))
		w1 := aw + uint8(1+rng.Intn(int(63-aw)))
		w2 := w1 + uint8(1+rng.Intn(int(64-w1)))
		b := NewBuilder()
		a := foldBase(b, rng, aw)
		got := b.Zext(b.Zext(a, w1), w2)
		if want := b.Zext(a, w2); got != want || got.Args[0] != a {
			t.Fatalf("zext%d(zext%d(%v)) = %v, want %v", w2, w1, a, got, want)
		}
		env := foldEnv(rng)
		if g, want := Eval(got, env), Eval(a, env); g != want {
			t.Fatalf("%v evaluates to %#x, unfolded %#x", got, g, want)
		}
	}
}

// splitPieces cuts [lo, lo+w) into adjacent extracts of a, lowest first.
func splitPieces(b *Builder, rng *rand.Rand, a *Term, lo, w uint8) []*Term {
	var out []*Term
	for w > 0 {
		n := uint8(1 + rng.Intn(int(w)))
		out = append(out, b.Extract(a, lo, n))
		lo, w = lo+n, w-n
	}
	return out
}

// concatRight joins pieces (lowest first) as hi ++ (... ++ lo), the shape
// of a little-endian load; concatLeft as ((hi ++ ...) ++ lo).
func concatRight(b *Builder, ps []*Term) *Term {
	out := ps[0]
	for _, p := range ps[1:] {
		out = b.Concat(p, out)
	}
	return out
}

func concatLeft(b *Builder, ps []*Term) *Term {
	out := ps[len(ps)-1]
	for i := len(ps) - 2; i >= 0; i-- {
		out = b.Concat(out, ps[i])
	}
	return out
}

// evalConcat is the concrete value of pieces (lowest first) joined.
func evalConcat(ps []*Term, env *Env) uint64 {
	v, sh := uint64(0), uint8(0)
	for _, p := range ps {
		v |= Eval(p, env) << sh
		sh += p.Width
	}
	return v
}

func TestConcatJoinsAdjacentExtracts(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 2000; iter++ {
		aw := uint8(2 + rng.Intn(63))
		lo := uint8(rng.Intn(int(aw) - 1))
		w := uint8(2 + rng.Intn(int(aw-lo)-1))
		b := NewBuilder()
		a := foldBase(b, rng, aw)
		ps := splitPieces(b, rng, a, lo, w)
		want := b.Extract(a, lo, w)
		env := foldEnv(rng)
		for _, got := range []*Term{concatRight(b, ps), concatLeft(b, ps)} {
			if got != want {
				t.Fatalf("%d pieces of %v[%d+:%d] join to %v, want %v", len(ps), a, lo, w, got, want)
			}
			if g, v := Eval(got, env), evalConcat(ps, env); g != v {
				t.Fatalf("%v evaluates to %#x, unfolded %#x", got, g, v)
			}
		}

		// A foreign low piece keeps one concat: the rest joins above it.
		if w == 64 {
			continue
		}
		y := b.Var(uint8(1+rng.Intn(int(64-w))), "z")
		withY := append([]*Term{y}, ps...)
		got := concatRight(b, withY)
		if got.Op != OpConcat || got.Args[1] != y || got.Args[0] != want {
			t.Fatalf("pieces of %v[%d+:%d] over %v join to %v, want concat(%v, %v)", a, lo, w, y, got, want, y)
		}
		if g, v := Eval(got, env), evalConcat(withY, env); g != v {
			t.Fatalf("%v evaluates to %#x, unfolded %#x", got, g, v)
		}
	}
}

// TestConcatKeepsNonAdjacentExtracts: pieces with a gap, in the wrong
// order, or of different terms stay concats.
func TestConcatKeepsNonAdjacentExtracts(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for iter := 0; iter < 2000; iter++ {
		aw := uint8(3 + rng.Intn(62))
		b := NewBuilder()
		a := foldBase(b, rng, aw)
		l := uint8(rng.Intn(int(aw) - 2))
		lw := uint8(1 + rng.Intn(int(aw-l)-2))
		var hi, lo *Term
		switch iter % 3 {
		case 0: // gap of at least one bit
			h := l + lw + 1 + uint8(rng.Intn(int(aw-l-lw-1)))
			lo = b.Extract(a, l, lw)
			hi = b.Extract(a, h, uint8(1+rng.Intn(int(aw-h))))
		case 1: // adjacent but swapped: the higher bits end up low
			lo = b.Extract(a, l+lw, uint8(1+rng.Intn(int(aw-l-lw))))
			hi = b.Extract(a, l, lw)
		case 2: // adjacent ranges of two different terms
			other := b.Not(a)
			lo = b.Extract(a, l, lw)
			hi = b.Extract(other, l+lw, uint8(1+rng.Intn(int(aw-l-lw))))
		}
		if hi.Width+lo.Width > 64 {
			continue
		}
		got := b.Concat(hi, lo)
		if got.Op != OpConcat {
			t.Fatalf("case %d: concat(%v, %v) folded to %v", iter%3, hi, lo, got)
		}
		env := foldEnv(rng)
		if g, v := Eval(got, env), evalConcat([]*Term{lo, hi}, env); g != v {
			t.Fatalf("%v evaluates to %#x, unfolded %#x", got, g, v)
		}
	}
}

// TestStoreReloadRoundTrip: a value stored byte by byte and reloaded as a
// little-endian chain of byte concats is the stored term again, also when
// it was a 32-bit value zero-extended into a 64-bit register.
func TestStoreReloadRoundTrip(t *testing.T) {
	b := NewBuilder()
	for _, w := range []uint8{2, 4, 8} {
		v := foldBase(b, rand.New(rand.NewSource(int64(w))), w*8)
		reg := b.Zext(v, 64)
		out := b.Extract(b.Extract(reg, 0, w*8), 0, 8)
		for i := uint8(1); i < w; i++ {
			out = b.Concat(b.Extract(b.Extract(reg, 0, w*8), i*8, 8), out)
		}
		if out != v {
			t.Fatalf("%d-byte round trip of %v gives %v", w, v, out)
		}
	}
}

// commMirror rebuilds t bottom-up with the operands of every commutative
// operator swapped.
func commMirror(b *Builder, t *Term) *Term {
	switch t.Op {
	case OpConst, OpVar:
		return t
	}
	args := make([]*Term, len(t.Args))
	for i, a := range t.Args {
		args[i] = commMirror(b, a)
	}
	switch t.Op {
	case OpNot:
		return b.Not(args[0])
	case OpNeg:
		return b.Neg(args[0])
	case OpAnd:
		return b.And(args[1], args[0])
	case OpOr:
		return b.Or(args[1], args[0])
	case OpXor:
		return b.Xor(args[1], args[0])
	case OpAdd:
		return b.Add(args[1], args[0])
	case OpMul:
		return b.Mul(args[1], args[0])
	case OpEq:
		return b.Eq(args[1], args[0])
	case OpSub:
		return b.Sub(args[0], args[1])
	case OpShl:
		return b.Shl(args[0], args[1])
	case OpLshr:
		return b.Lshr(args[0], args[1])
	case OpAshr:
		return b.Ashr(args[0], args[1])
	case OpUlt:
		return b.Ult(args[0], args[1])
	case OpIte:
		return b.Ite(args[0], args[1], args[2])
	}
	panic("commMirror: unexpected op")
}

func TestCommEqualMatchesMirrors(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 500; iter++ {
		w := []uint8{1, 8, 16, 32, 64}[rng.Intn(5)]
		b := NewBuilder()
		x, y := b.Var(w, "x"), b.Var(w, "y")
		term := randomTerm(b, rng, x, y, 4)
		mirror := commMirror(b, term)
		if !b.CommEqual(term, mirror) || !b.CommEqual(mirror, term) {
			t.Fatalf("w=%d: %v and its mirror %v do not match", w, term, mirror)
		}
		env := foldEnv(rng)
		if Eval(term, env) != Eval(mirror, env) {
			t.Fatalf("w=%d: %v and its mirror %v evaluate differently", w, term, mirror)
		}
	}
}

// TestCommEqualRejectsSwappedNonCommutative: sub, shifts, ult and concat
// with their operands swapped are different terms, also deep inside a
// commutative one.
func TestCommEqualRejectsSwappedNonCommutative(t *testing.T) {
	for _, w := range []uint8{1, 8, 32} {
		b := NewBuilder()
		x, y, z := b.Var(w, "x"), b.Var(w, "y"), b.Var(w, "z")
		ops := map[string]func(p, q *Term) *Term{
			"sub": b.Sub, "shl": b.Shl, "lshr": b.Lshr, "ashr": b.Ashr,
			"ult": b.Ult, "concat": b.Concat,
		}
		for name, op := range ops {
			l, r := op(x, y), op(y, x)
			if b.CommEqual(l, r) {
				t.Errorf("w=%d: %s(x, y) matches %s(y, x)", w, name, name)
			}
			if b.CommEqual(b.Xor(op(x, y), op(z, z)), b.Xor(op(z, z), op(y, x))) {
				t.Errorf("w=%d: a swapped %s inside xor matches", w, name)
			}
			if !b.CommEqual(b.Xor(op(x, y), op(z, z)), b.Xor(op(z, z), op(x, y))) {
				t.Errorf("w=%d: xor of two %s terms does not match its mirror", w, name)
			}
		}
	}
}

// TestCommEqualLinear compares two 10k-node chains in which every node uses
// its predecessor twice, so a walk without memoization would take 2^10000
// steps; each term must get exactly one canonical id.
func TestCommEqualLinear(t *testing.T) {
	const n = 10000
	b := NewBuilder()
	l, r := b.Var(64, "x"), b.Var(64, "x")
	for i := 0; i < n; i++ {
		leaf := b.Var(64, "y")
		if i%3 == 0 {
			leaf = b.Const(64, uint64(i)*0x9e3779b97f4a7c15)
		}
		if i%2 == 0 {
			l = b.Xor(b.Add(l, leaf), l)
			r = b.Xor(r, b.Add(leaf, r))
		} else {
			l = b.Add(b.Xor(l, leaf), l)
			r = b.Add(r, b.Xor(r, leaf))
		}
	}
	if !b.CommEqual(l, r) {
		t.Fatal("mirrored chains do not match")
	}
	if got := len(b.commIDs); got > b.NumTerms() {
		t.Fatalf("%d canonical ids for %d terms", got, b.NumTerms())
	}
	if b.CommEqual(b.Sub(l, b.Var(64, "y")), b.Sub(b.Var(64, "y"), r)) {
		t.Fatal("swapped sub over mirrored chains matches")
	}
}
