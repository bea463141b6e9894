// Package kernels defines the paper's benchmark suite (§6): the 25
// Hacker's Delight programs of Gulwani's benchmark (p01–p25, compiled from
// the C found in the original text via the cc mini-compiler), the
// Montgomery multiplication kernel of Figure 1, the SAXPY kernel of Figure
// 14 and the linked-list traversal fragment of Figure 15 — each with an
// llvm -O0 style target, gcc/icc -O3 style comparators, an annotated input
// spec, and reference Go semantics used by the test suite.
package kernels

import (
	"math/rand"

	"repro/internal/cc"
	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// x, y, a, b, c shorthands for the IR.
const (
	i32 = cc.I32
	i64 = cc.I64
)

func p0() cc.Expr { return cc.P(0, i32) }
func p1() cc.Expr { return cc.P(1, i32) }
func p2() cc.Expr { return cc.P(2, i32) }
func p3() cc.Expr { return cc.P(3, i32) }

func add(x, y cc.Expr) cc.Expr  { return cc.B(cc.OpAdd, x, y) }
func sub(x, y cc.Expr) cc.Expr  { return cc.B(cc.OpSub, x, y) }
func mul(x, y cc.Expr) cc.Expr  { return cc.B(cc.OpMul, x, y) }
func divu(x, y cc.Expr) cc.Expr { return cc.B(cc.OpDivU, x, y) }
func and(x, y cc.Expr) cc.Expr  { return cc.B(cc.OpAnd, x, y) }
func or(x, y cc.Expr) cc.Expr   { return cc.B(cc.OpOr, x, y) }
func xor(x, y cc.Expr) cc.Expr  { return cc.B(cc.OpXor, x, y) }

// typed constant helpers
func c32(v int64) cc.Expr { return cc.C(v, i32) }

func lshr(x cc.Expr, k int64) cc.Expr { return cc.B(cc.OpLshr, x, c32(k)) }
func ashr(x cc.Expr, k int64) cc.Expr { return cc.B(cc.OpAshr, x, c32(k)) }
func not(x cc.Expr) cc.Expr           { return cc.U(cc.OpNot, x) }
func neg(x cc.Expr) cc.Expr           { return cc.U(cc.OpNeg, x) }
func eq(x, y cc.Expr) cc.Expr         { return cc.B(cc.OpEq, x, y) }
func ne(x, y cc.Expr) cc.Expr         { return cc.B(cc.OpNe, x, y) }
func slt(x, y cc.Expr) cc.Expr        { return cc.B(cc.OpSlt, x, y) }
func ule(x, y cc.Expr) cc.Expr        { return cc.B(cc.OpUle, x, y) }
func ugt(x, y cc.Expr) cc.Expr        { return cc.B(cc.OpUgt, x, y) }
func ret(x cc.Expr) []cc.Stmt         { return []cc.Stmt{&cc.Return{X: x}} }
func let(n string, x cc.Expr) *cc.Let { return &cc.Let{Name: n, X: x} }
func v32(n string) cc.Expr            { return cc.V(n, i32) }

// hdDef describes one Hacker's Delight kernel.
type hdDef struct {
	name   string
	params int // number of I32 parameters
	body   []cc.Stmt
	// ref implements the kernel's semantics over uint32 arguments.
	ref func(a []uint32) uint32
	// paramGen overrides random generation per parameter index.
	paramGen map[int]func(rng *rand.Rand) uint32
	// star marks the kernels for which the paper's STOKE found an
	// algorithmically distinct rewrite (Figure 10).
	star bool
	// synthTimeout marks the kernels whose synthesis timed out in the
	// paper (Figure 12: p19, p20, p24).
	synthTimeout bool
}

func bool2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// hdDefs is the p01..p25 table, following the C in Hacker's Delight.
var hdDefs = []hdDef{
	{name: "p01", params: 1, // turn off rightmost 1-bit
		body: ret(and(p0(), sub(p0(), c32(1)))),
		ref:  func(a []uint32) uint32 { return a[0] & (a[0] - 1) }},
	{name: "p02", params: 1, // test for 2^n - 1 form
		body: ret(and(p0(), add(p0(), c32(1)))),
		ref:  func(a []uint32) uint32 { return a[0] & (a[0] + 1) }},
	{name: "p03", params: 1, // isolate rightmost 1-bit
		body: ret(and(p0(), neg(p0()))),
		ref:  func(a []uint32) uint32 { return a[0] & -a[0] }},
	{name: "p04", params: 1, // mask of rightmost 1 and trailing 0s
		body: ret(xor(p0(), sub(p0(), c32(1)))),
		ref:  func(a []uint32) uint32 { return a[0] ^ (a[0] - 1) }},
	{name: "p05", params: 1, // right-propagate rightmost 1-bit
		body: ret(or(p0(), sub(p0(), c32(1)))),
		ref:  func(a []uint32) uint32 { return a[0] | (a[0] - 1) }},
	{name: "p06", params: 1, // turn on rightmost 0-bit
		body: ret(or(p0(), add(p0(), c32(1)))),
		ref:  func(a []uint32) uint32 { return a[0] | (a[0] + 1) }},
	{name: "p07", params: 1, // isolate rightmost 0-bit
		body: ret(and(not(p0()), add(p0(), c32(1)))),
		ref:  func(a []uint32) uint32 { return ^a[0] & (a[0] + 1) }},
	{name: "p08", params: 1, // mask of trailing 0s
		body: ret(and(not(p0()), sub(p0(), c32(1)))),
		ref:  func(a []uint32) uint32 { return ^a[0] & (a[0] - 1) }},
	{name: "p09", params: 1, // absolute value
		body: []cc.Stmt{
			let("t", ashr(p0(), 31)),
			&cc.Return{X: sub(xor(p0(), v32("t")), v32("t"))},
		},
		ref: func(a []uint32) uint32 {
			t := uint32(int32(a[0]) >> 31)
			return (a[0] ^ t) - t
		}},
	{name: "p10", params: 2, // test if nlz(x) == nlz(y)
		body: ret(ule(xor(p0(), p1()), and(p0(), p1()))),
		ref: func(a []uint32) uint32 {
			return bool2u32(a[0]^a[1] <= a[0]&a[1])
		}},
	{name: "p11", params: 2, // test if nlz(x) < nlz(y)
		body: ret(ugt(and(p0(), not(p1())), p1())),
		ref: func(a []uint32) uint32 {
			return bool2u32(a[0]&^a[1] > a[1])
		}},
	{name: "p12", params: 2, // test if nlz(x) <= nlz(y)
		body: ret(ule(and(p1(), not(p0())), p0())),
		ref: func(a []uint32) uint32 {
			return bool2u32(a[1]&^a[0] <= a[0])
		}},
	{name: "p13", params: 1, // sign function
		body: ret(or(ashr(p0(), 31), lshr(neg(p0()), 31))),
		ref: func(a []uint32) uint32 {
			return uint32(int32(a[0])>>31) | (-a[0])>>31
		}},
	{name: "p14", params: 2, // floor of average
		body: ret(add(and(p0(), p1()), lshr(xor(p0(), p1()), 1))),
		ref: func(a []uint32) uint32 {
			return a[0]&a[1] + (a[0]^a[1])>>1
		}},
	{name: "p15", params: 2, // ceiling of average
		body: ret(sub(or(p0(), p1()), lshr(xor(p0(), p1()), 1))),
		ref: func(a []uint32) uint32 {
			return a[0] | a[1] - (a[0]^a[1])>>1
		}},
	{name: "p16", params: 2, // max of two signed integers
		body: ret(xor(p0(), and(xor(p0(), p1()), neg(slt(p0(), p1()))))),
		ref: func(a []uint32) uint32 {
			return a[0] ^ (a[0]^a[1])&-bool2u32(int32(a[0]) < int32(a[1]))
		}},
	{name: "p17", params: 1, // turn off rightmost contiguous run of 1s
		body: ret(and(add(or(p0(), sub(p0(), c32(1))), c32(1)), p0())),
		ref: func(a []uint32) uint32 {
			return (a[0] | (a[0] - 1) + 1) & a[0]
		}},
	{name: "p18", params: 1, star: true, // is a power of 2
		body: []cc.Stmt{
			let("z", and(p0(), sub(p0(), c32(1)))),
			&cc.Return{X: and(eq(v32("z"), c32(0)), ne(p0(), c32(0)))},
		},
		ref: func(a []uint32) uint32 {
			return bool2u32(a[0]&(a[0]-1) == 0 && a[0] != 0)
		}},
	{name: "p19", params: 3, synthTimeout: true, // exchange two bitfields
		body: []cc.Stmt{
			let("t", and(xor(p0(), cc.B(cc.OpLshr, p0(), p1())), p2())),
			&cc.Return{X: xor(xor(p0(), v32("t")), cc.B(cc.OpShl, v32("t"), p1()))},
		},
		ref: func(a []uint32) uint32 {
			t := (a[0] ^ a[0]>>(a[1]&31)) & a[2]
			return a[0] ^ t ^ t<<(a[1]&31)
		},
		paramGen: map[int]func(rng *rand.Rand) uint32{
			1: func(rng *rand.Rand) uint32 { return uint32(rng.Intn(32)) },
		}},
	{name: "p20", params: 1, synthTimeout: true, // next higher with same popcount
		body: []cc.Stmt{
			let("s", and(p0(), neg(p0()))),
			let("r", add(p0(), v32("s"))),
			let("y", xor(p0(), v32("r"))),
			let("q", divu(lshr(v32("y"), 2), v32("s"))),
			&cc.Return{X: or(v32("r"), v32("q"))},
		},
		ref: func(a []uint32) uint32 {
			s := a[0] & -a[0]
			r := a[0] + s
			y := a[0] ^ r
			return r | (y>>2)/s
		},
		paramGen: map[int]func(rng *rand.Rand) uint32{
			0: func(rng *rand.Rand) uint32 {
				// s must be non-zero: any non-zero input works; keep the
				// value away from the wrap-around edge as in HD.
				return rng.Uint32()%0x7ffffffe + 1
			},
		}},
	{name: "p21", params: 4, star: true, // cycle through 3 values (Figure 13)
		body: ret(xor(xor(
			and(neg(eq(p0(), p3())), xor(p1(), p3())),
			and(neg(eq(p0(), p1())), xor(p2(), p3()))),
			p3())),
		ref: func(a []uint32) uint32 {
			x, va, vb, vc := a[0], a[1], a[2], a[3]
			return -bool2u32(x == vc)&(va^vc) ^ -bool2u32(x == va)&(vb^vc) ^ vc
		}},
	{name: "p22", params: 1, star: true, // parity
		body: []cc.Stmt{
			let("y1", xor(p0(), lshr(p0(), 1))),
			let("y2", xor(v32("y1"), lshr(v32("y1"), 2))),
			let("y3", xor(v32("y2"), lshr(v32("y2"), 4))),
			let("y4", xor(v32("y3"), lshr(v32("y3"), 8))),
			let("y5", xor(v32("y4"), lshr(v32("y4"), 16))),
			&cc.Return{X: and(v32("y5"), c32(1))},
		},
		ref: func(a []uint32) uint32 {
			y := a[0] ^ a[0]>>1
			y ^= y >> 2
			y ^= y >> 4
			y ^= y >> 8
			y ^= y >> 16
			return y & 1
		}},
	{name: "p23", params: 1, star: true, // population count (SWAR)
		body: []cc.Stmt{
			let("x1", sub(p0(), and(lshr(p0(), 1), c32(0x55555555)))),
			let("x2", add(and(v32("x1"), c32(0x33333333)),
				and(lshr(v32("x1"), 2), c32(0x33333333)))),
			let("x3", and(add(v32("x2"), lshr(v32("x2"), 4)), c32(0x0f0f0f0f))),
			let("x4", add(v32("x3"), lshr(v32("x3"), 8))),
			let("x5", add(v32("x4"), lshr(v32("x4"), 16))),
			&cc.Return{X: and(v32("x5"), c32(0x3f))},
		},
		ref: func(a []uint32) uint32 {
			x := a[0] - a[0]>>1&0x55555555
			x = x&0x33333333 + x>>2&0x33333333
			x = (x + x>>4) & 0x0f0f0f0f
			x += x >> 8
			x += x >> 16
			return x & 0x3f
		}},
	{name: "p24", params: 1, synthTimeout: true, // round up to next power of 2
		body: []cc.Stmt{
			let("x1", sub(p0(), c32(1))),
			let("x2", or(v32("x1"), lshr(v32("x1"), 1))),
			let("x3", or(v32("x2"), lshr(v32("x2"), 2))),
			let("x4", or(v32("x3"), lshr(v32("x3"), 4))),
			let("x5", or(v32("x4"), lshr(v32("x4"), 8))),
			let("x6", or(v32("x5"), lshr(v32("x5"), 16))),
			&cc.Return{X: add(v32("x6"), c32(1))},
		},
		ref: func(a []uint32) uint32 {
			x := a[0] - 1
			x |= x >> 1
			x |= x >> 2
			x |= x >> 4
			x |= x >> 8
			x |= x >> 16
			return x + 1
		}},
	{name: "p25", params: 2, star: true, // high 32 bits of 64-bit product
		body: []cc.Stmt{
			let("u0", and(p0(), c32(0xffff))),
			let("u1", lshr(p0(), 16)),
			let("vv0", and(p1(), c32(0xffff))),
			let("vv1", lshr(p1(), 16)),
			let("t", add(mul(v32("u1"), v32("vv0")),
				lshr(mul(v32("u0"), v32("vv0")), 16))),
			let("w1", add(mul(v32("u0"), v32("vv1")), and(v32("t"), c32(0xffff)))),
			&cc.Return{X: add(add(mul(v32("u1"), v32("vv1")), lshr(v32("t"), 16)),
				lshr(v32("w1"), 16))},
		},
		ref: func(a []uint32) uint32 {
			return uint32(uint64(a[0]) * uint64(a[1]) >> 32)
		}},
}

// hdSpec builds the testcase spec for an HD kernel: parameters arrive in
// the low 32 bits of the System V argument registers, the result is eax.
func hdSpec(def hdDef) testgen.Spec {
	argRegs := []x64.Reg{x64.RDI, x64.RSI, x64.RDX, x64.RCX}
	return testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x100000)
			a.AllocStack(1 << 10)
			for i := 0; i < def.params; i++ {
				var v uint32
				if g, ok := def.paramGen[i]; ok {
					v = g(rng)
				} else {
					v = rng.Uint32()
				}
				a.SetReg(argRegs[i], uint64(v))
			}
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 4}}},
	}
}

// hdFunc builds the cc function for one definition.
func hdFunc(def hdDef) *cc.Func {
	params := make([]cc.Type, def.params)
	for i := range params {
		params[i] = i32
	}
	return &cc.Func{Name: def.name, Params: params, Body: def.body}
}
