package bv

import (
	"math/rand"
	"testing"
)

// Tests for the base+offset normal form of Add/Sub by a constant and the
// Eq folding it enables. Every folded term is checked against concrete
// evaluation of the unfolded expression on random inputs.

// normalBases returns a few hash-consed base terms of width w over x and
// y: plain variables and compound terms built twice, so pointer identity
// comes from hash-consing rather than reuse of one Go value.
func normalBases(b *Builder, x, y *Term) []*Term {
	return []*Term{x, y, b.Xor(x, y), b.Add(x, y), b.Add(y, x), b.Shl(y, b.Const(x.Width, 2))}
}

func TestAddConstReassociates(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 400; iter++ {
		w := []uint8{1, 8, 16, 32, 64}[rng.Intn(5)]
		b := NewBuilder()
		x, y := b.Var(w, "x"), b.Var(w, "y")
		bases := normalBases(b, x, y)
		base := bases[rng.Intn(len(bases))]
		c1, c2 := rng.Uint64(), rng.Uint64()
		if iter%4 == 0 {
			c2 = -c1 // wrap-around back to the base
		}

		nested := b.Add(b.Add(base, b.Const(w, c1)), b.Const(w, c2))
		left := b.Add(b.Const(w, c2), b.Add(b.Const(w, c1), base))
		single := b.Add(base, b.Const(w, c1+c2))
		if nested != single || left != single {
			t.Fatalf("w=%d: (b+%#x)+%#x gives %v and %v, want %v", w, c1, c2, nested, left, single)
		}
		if (c1+c2)&mask(w) == 0 {
			if nested != base {
				t.Fatalf("w=%d: (b+%#x)+%#x wraps to 0 but gives %v, want %v", w, c1, c2, nested, base)
			}
		} else if nested.Op != OpAdd || nested.Args[0] != base || nested.Args[1].Val != (c1+c2)&mask(w) {
			t.Fatalf("w=%d: %v is not base + constant", w, nested)
		}

		vx, vy := rng.Uint64(), rng.Uint64()
		env := &Env{Vars: map[string]uint64{"x": vx, "y": vy}}
		want := (Eval(base, env) + c1 + c2) & mask(w)
		if got := Eval(nested, env) & mask(w); got != want {
			t.Fatalf("w=%d: %v evaluates to %#x, unfolded %#x", w, nested, got, want)
		}
	}
}

func TestSubConstNormalForm(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 400; iter++ {
		w := []uint8{1, 8, 16, 32, 64}[rng.Intn(5)]
		b := NewBuilder()
		x, y := b.Var(w, "x"), b.Var(w, "y")
		bases := normalBases(b, x, y)
		base := bases[rng.Intn(len(bases))]
		c1, c2 := rng.Uint64(), rng.Uint64()
		if iter%4 == 0 {
			c2 = c1
		}

		// (b + c1) - c2 is b + (c1 - c2), the same term Add builds.
		got := b.Sub(b.Add(base, b.Const(w, c1)), b.Const(w, c2))
		if want := b.Add(base, b.Const(w, c1-c2)); got != want {
			t.Fatalf("w=%d: (b+%#x)-%#x gives %v, want %v", w, c1, c2, got, want)
		}
		// Two terms over one base differ by the constant c1 - c2.
		diff := b.Sub(b.Add(base, b.Const(w, c1)), b.Add(base, b.Const(w, c2)))
		if v, ok := diff.IsConst(); !ok || v != (c1-c2)&mask(w) {
			t.Fatalf("w=%d: (b+%#x)-(b+%#x) gives %v, want constant %#x", w, c1, c2, diff, (c1-c2)&mask(w))
		}

		vx, vy := rng.Uint64(), rng.Uint64()
		env := &Env{Vars: map[string]uint64{"x": vx, "y": vy}}
		vb := Eval(base, env)
		if g, want := Eval(got, env)&mask(w), (vb+c1-c2)&mask(w); g != want {
			t.Fatalf("w=%d: %v evaluates to %#x, unfolded %#x", w, got, g, want)
		}
	}
}

func TestEqFoldsOnlySameBase(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 400; iter++ {
		w := []uint8{8, 16, 32, 64}[rng.Intn(4)]
		b := NewBuilder()
		x, y := b.Var(w, "x"), b.Var(w, "y")
		bases := normalBases(b, x, y)
		i, j := rng.Intn(len(bases)), rng.Intn(len(bases))
		c1, c2 := rng.Uint64(), rng.Uint64()
		if iter%3 == 0 {
			c2 = c1
		}
		if iter%5 == 0 {
			c2 = c1 + 1<<w // equal modulo 2^w
		}
		l := b.Add(bases[i], b.Const(w, c1))
		r := b.Add(bases[j], b.Const(w, c2))
		eq := b.Eq(l, r)

		if i == j {
			v, ok := eq.IsConst()
			if !ok {
				t.Fatalf("w=%d: same-base %v = %v did not fold", w, l, r)
			}
			if want := (c1-c2)&mask(w) == 0; (v == 1) != want {
				t.Fatalf("w=%d: %v = %v folds to %d", w, l, r, v)
			}
		} else if eq.Op != OpEq {
			// Distinct bases — even semantically equal ones such as x+y
			// and y+x — must stay symbolic.
			t.Fatalf("w=%d: cross-base %v = %v folded to %v", w, l, r, eq)
		}

		for k := 0; k < 4; k++ {
			vx, vy := rng.Uint64(), rng.Uint64()
			if k == 0 {
				vy = vx // make distinct bases coincide sometimes
			}
			env := &Env{Vars: map[string]uint64{"x": vx, "y": vy}}
			lv := (Eval(bases[i], env) + c1) & mask(w)
			rv := (Eval(bases[j], env) + c2) & mask(w)
			want := uint64(0)
			if lv == rv {
				want = 1
			}
			if got := Eval(eq, env); got != want {
				t.Fatalf("w=%d: %v evaluates to %d, unfolded %d (x=%#x y=%#x)", w, eq, got, want, vx, vy)
			}
		}
	}
}
