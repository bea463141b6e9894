package bv

import (
	"math/rand"
	"testing"
)

// FuzzNormalFormsVsEval decodes bytes into a term DAG and builds every node
// twice: through the Builder, whose normal forms fold it, and as a raw Term
// that no fold touches. On several variable assignments the folded term
// must evaluate like the raw one, and any two nodes CommEqual calls equal
// must evaluate alike.
func FuzzNormalFormsVsEval(f *testing.F) {
	for _, s := range foldSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFoldDAG(t, data)
	})
}

// TestNormalFormsVsEvalRandom runs the fuzz property on random byte
// strings.
func TestNormalFormsVsEvalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, s := range foldSeeds() {
		checkFoldDAG(t, s)
	}
	for iter := 0; iter < 300; iter++ {
		data := make([]byte, 8+rng.Intn(160))
		rng.Read(data)
		checkFoldDAG(t, data)
	}
}

// foldSeeds are byte strings that reach the zext, extract and concat
// folds and the commutative pairs.
func foldSeeds() [][]byte {
	return [][]byte{
		{17, 0, 0, 0, 12, 0, 0, 24, 12, 1, 0, 32, 11, 1, 0, 0},
		{5, 1, 2, 0, 2, 0, 1, 0, 14, 2, 0, 3, 13, 3, 4, 0},
		{9, 2, 0, 0, 10, 0, 0, 40, 11, 3, 0, 8, 11, 4, 0, 0, 14, 5, 0, 1},
		{33, 1, 2, 3, 4, 0, 1, 0, 4, 1, 0, 0, 15, 2, 3, 0, 16, 1, 2, 0},
	}
}

// foldNode is one DAG node: the folded term and its raw twin.
type foldNode struct{ t, raw *Term }

func rawTerm(op Op, w uint8, lo uint8, args ...*Term) *Term {
	return &Term{Op: op, Width: w, Lo: lo, Args: args}
}

// checkFoldDAG decodes data into at most 48 nodes over the variables x
// (64 bits), y (32 bits) and z (width from the first byte), four bytes per
// node: an operation, two earlier nodes and a parameter.
func checkFoldDAG(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	b := NewBuilder()
	zw := 1 + data[0]%64
	var nodes []foldNode
	leaf := func(v *Term) { nodes = append(nodes, foldNode{v, v}) }
	leaf(b.Var(64, "x"))
	leaf(b.Var(32, "y"))
	leaf(b.Var(zw, "z"))
	// fit brings node n to width w: low bits, or a zero extension.
	fit := func(n foldNode, w uint8) foldNode {
		switch {
		case n.t.Width > w:
			return foldNode{b.Extract(n.t, 0, w), rawTerm(OpExtract, w, 0, n.raw)}
		case n.t.Width < w:
			return foldNode{b.Zext(n.t, w), rawTerm(OpZext, w, 0, n.raw)}
		}
		return n
	}
	binary := []struct {
		op Op
		mk func(x, y *Term) *Term
	}{
		{OpAnd, b.And}, {OpOr, b.Or}, {OpXor, b.Xor}, {OpAdd, b.Add},
		{OpMul, b.Mul}, {OpEq, b.Eq}, {OpSub, b.Sub}, {OpUlt, b.Ult},
	}
	for i := 1; i+3 < len(data) && len(nodes) < 48; i += 4 {
		sel, p := data[i], data[i+3]
		a := nodes[int(data[i+1])%len(nodes)]
		c := nodes[int(data[i+2])%len(nodes)]
		w := a.t.Width
		switch k := int(sel % 19); {
		case k < 8: // binary op, commutative ones in both operand orders
			bo := binary[k]
			c = fit(c, w)
			rw := w
			if bo.op == OpEq || bo.op == OpUlt {
				rw = 1
			}
			nodes = append(nodes, foldNode{bo.mk(a.t, c.t), rawTerm(bo.op, rw, 0, a.raw, c.raw)})
			if commutative(bo.op) {
				nodes = append(nodes, foldNode{bo.mk(c.t, a.t), rawTerm(bo.op, rw, 0, c.raw, a.raw)})
			}
		case k == 8:
			nodes = append(nodes, foldNode{b.Not(a.t), rawTerm(OpNot, w, 0, a.raw)})
		case k == 9:
			sh := b.Const(w, uint64(p%(w+2)))
			nodes = append(nodes, foldNode{b.Shl(a.t, sh), rawTerm(OpShl, w, 0, a.raw, sh)})
		case k == 10, k == 11: // extract
			lo := p % w
			ew := 1 + data[i+2]%(w-lo)
			nodes = append(nodes, foldNode{b.Extract(a.t, lo, ew), rawTerm(OpExtract, ew, lo, a.raw)})
		case k == 12, k == 13: // zero extension
			zw := w + p%(65-w)
			nodes = append(nodes, foldNode{b.Zext(a.t, zw), rawTerm(OpZext, zw, 0, a.raw)})
		case k == 14: // concat
			if w+c.t.Width > 64 {
				c = fit(c, 64-w)
				if w == 64 {
					continue
				}
			}
			nodes = append(nodes, foldNode{b.Concat(a.t, c.t), rawTerm(OpConcat, w+c.t.Width, 0, a.raw, c.raw)})
		case k == 15, k == 16: // split into byte-sized pieces, rejoined as a load does
			n := foldNode{a.t, a.raw}
			for lo := uint8(0); lo < w; lo += 8 {
				pw := min(8, w-lo)
				piece := foldNode{b.Extract(a.t, lo, pw), rawTerm(OpExtract, pw, lo, a.raw)}
				if lo == 0 {
					n = piece
					continue
				}
				n = foldNode{b.Concat(piece.t, n.t), rawTerm(OpConcat, lo+pw, 0, piece.raw, n.raw)}
			}
			nodes = append(nodes, n)
		case k == 17:
			cond := fit(c, 1)
			e := fit(nodes[int(p)%len(nodes)], w)
			nodes = append(nodes, foldNode{b.Ite(cond.t, a.t, e.t), rawTerm(OpIte, w, 0, cond.raw, a.raw, e.raw)})
		case k == 18: // two extracts of one node, overlapping, adjacent or apart
			lo := p % w
			lw := 1 + data[i+2]%(w-lo)
			hl := lo + lw + data[i+1]%3
			if hl == 0 || hl-1 >= w {
				continue
			}
			hl--
			hw := min(1+p/2%(w-hl), 64-lw)
			lo1 := foldNode{b.Extract(a.t, lo, lw), rawTerm(OpExtract, lw, lo, a.raw)}
			hi1 := foldNode{b.Extract(a.t, hl, hw), rawTerm(OpExtract, hw, hl, a.raw)}
			nodes = append(nodes, foldNode{b.Concat(hi1.t, lo1.t), rawTerm(OpConcat, hw+lw, 0, hi1.raw, lo1.raw)})
		}
	}

	rng := rand.New(rand.NewSource(int64(len(data))))
	for trial := 0; trial < 4; trial++ {
		env := foldEnv(rng)
		if trial == 0 {
			env.Vars["y"] = env.Vars["x"]
		}
		folded := make([]uint64, len(nodes))
		for i, n := range nodes {
			folded[i] = Eval(n.t, env)
			if n.t.Width != n.raw.Width {
				t.Fatalf("node %d: %v is %d bits, unfolded %v %d", i, n.t, n.t.Width, n.raw, n.raw.Width)
			}
			if want := Eval(n.raw, env); folded[i] != want {
				t.Fatalf("node %d: %v evaluates to %#x, unfolded %v to %#x", i, n.t, folded[i], n.raw, want)
			}
		}
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				if b.CommEqual(nodes[i].t, nodes[j].t) && folded[i] != folded[j] {
					t.Fatalf("CommEqual(%v, %v) but they evaluate to %#x and %#x",
						nodes[i].t, nodes[j].t, folded[i], folded[j])
				}
			}
		}
	}
}
