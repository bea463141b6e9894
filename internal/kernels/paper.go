package kernels

import (
	"math/rand"

	"repro/internal/cc"
	"repro/internal/emu"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// --- Montgomery multiplication (Figure 1) -------------------------------
//
// Inputs: rsi=np, ecx=mh, edx=ml, rdi=c0, r8=c1.
// Outputs: r8:rdi = np * (mh:ml) + c0 + c1 (128-bit).

// montO0 is the llvm -O0 style target: the 128-bit product computed from
// 32-bit pieces with every temporary on the stack and carries materialised
// through setb (the paper's unshown 116-line target has this shape).
const montO0 = `
  movq rdi, -8(rsp)
  movq rsi, -16(rsp)
  mov edx, edx
  movq rdx, -24(rsp)
  mov ecx, ecx
  movq rcx, -32(rsp)
  movq r8, -40(rsp)
  movq -16(rsp), rax
  mov eax, eax
  movq rax, -48(rsp)
  movq -16(rsp), rax
  shrq 32, rax
  movq rax, -56(rsp)
  movq -32(rsp), rax
  imulq -48(rsp), rax
  movq rax, -64(rsp)
  movq -24(rsp), rax
  imulq -56(rsp), rax
  movq rax, -72(rsp)
  movq -24(rsp), rax
  imulq -48(rsp), rax
  movq rax, -80(rsp)
  movq -32(rsp), rax
  imulq -56(rsp), rax
  movq rax, -88(rsp)
  movq -64(rsp), rax
  addq -72(rsp), rax
  movq rax, -96(rsp)
  setb al
  movzbq al, rax
  shlq 32, rax
  movq rax, -104(rsp)
  movq -96(rsp), rax
  shrq 32, rax
  addq -88(rsp), rax
  addq -104(rsp), rax
  movq rax, -112(rsp)
  movq -96(rsp), rax
  shlq 32, rax
  addq -80(rsp), rax
  movq rax, -120(rsp)
  setb al
  movzbq al, rax
  addq -112(rsp), rax
  movq rax, -112(rsp)
  movq -120(rsp), rax
  addq -8(rsp), rax
  movq rax, -120(rsp)
  setb al
  movzbq al, rax
  addq -112(rsp), rax
  movq rax, -112(rsp)
  movq -120(rsp), rax
  addq -40(rsp), rax
  movq rax, -120(rsp)
  setb al
  movzbq al, rax
  addq -112(rsp), rax
  movq rax, -112(rsp)
  movq -120(rsp), rdi
  movq -112(rsp), r8
`

// montGccO3 is the gcc -O3 sequence printed in Figure 1 (left), with the
// paper's c0/c1 constant-name swap on the andl corrected.
const montGccO3 = `
.set c0 0xffffffff
.set c1 0x100000000
.L0
  movq rsi, r9
  mov ecx, ecx
  shrq 32, rsi
  andl c0, r9d
  movq rcx, rax
  mov edx, edx
  imulq r9, rax
  imulq rdx, r9
  imulq rsi, rdx
  imulq rsi, rcx
  addq rdx, rax
  jae .L2
  movabsq c1, rdx
  addq rdx, rcx
.L2
  movq rax, rsi
  movq rax, rdx
  shrq 32, rsi
  salq 32, rdx
  addq rsi, rcx
  addq r9, rdx
  adcq 0, rcx
  addq r8, rdx
  adcq 0, rcx
  addq rdi, rdx
  adcq 0, rcx
  movq rcx, r8
  movq rdx, rdi
`

// montStoke is the 11-instruction rewrite STOKE discovered (Figure 1,
// right): the 128-bit multiply done with the hardware widening mulq.
const montStoke = `
.L0
  shlq 32, rcx
  mov edx, edx
  xorq rdx, rcx
  movq rcx, rax
  mulq rsi
  addq r8, rdi
  adcq 0, rdx
  addq rdi, rax
  adcq 0, rdx
  movq rdx, r8
  movq rax, rdi
`

func montSpec() testgen.Spec {
	return testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x100000)
			a.AllocStack(1 << 10)
			a.SetReg(x64.RSI, rng.Uint64())
			a.SetReg(x64.RCX, uint64(rng.Uint32()))
			a.SetReg(x64.RDX, uint64(rng.Uint32()))
			a.SetReg(x64.RDI, rng.Uint64())
			a.SetReg(x64.R8, rng.Uint64())
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{GPRs: []testgen.LiveReg{
			{Reg: x64.RDI, Width: 8}, {Reg: x64.R8, Width: 8},
		}},
	}
}

// --- SAXPY (Figure 14) ---------------------------------------------------
//
// x[i..i+3] = a*x[i..i+3] + y[i..i+3]; inputs edi=a, rsi=x, rdx=y, rcx=i.

// saxpyFunc is the four-times hand-unrolled source of Figure 14.
func saxpyFunc() *cc.Func {
	// Params: a (i32), x (i64 pointer), y (i64 pointer), i (i64 index).
	a := cc.P(0, i32)
	xp := cc.P(1, i64)
	yp := cc.P(2, i64)
	ip := cc.P(3, i64)
	body := []cc.Stmt{
		&cc.Let{Name: "bx", X: cc.B(cc.OpAdd, xp, cc.B(cc.OpMul, ip, cc.C(4, i64)))},
		&cc.Let{Name: "by", X: cc.B(cc.OpAdd, yp, cc.B(cc.OpMul, ip, cc.C(4, i64)))},
	}
	bx := cc.V("bx", i64)
	by := cc.V("by", i64)
	for k := 0; k < 4; k++ {
		off := int32(4 * k)
		body = append(body, &cc.Store{
			Base: bx, Off: off,
			X: cc.B(cc.OpAdd, cc.B(cc.OpMul, a, cc.Ld(i32, bx, off)), cc.Ld(i32, by, off)),
		})
	}
	return &cc.Func{Name: "saxpy", Params: []cc.Type{i32, i64, i64, i64}, Body: body}
}

// saxpyStoke is the SSE rewrite of Figure 14 (with pmulld for the 32-bit
// lanes of our int32 arrays; the paper prints pmullw against its 16-bit
// test values).
const saxpyStoke = `
.L0
  movd edi, xmm0
  shufps 0, xmm0, xmm0
  movups (rsi,rcx,4), xmm1
  pmulld xmm1, xmm0
  movups (rdx,rcx,4), xmm1
  paddd xmm1, xmm0
  movups xmm0, (rsi,rcx,4)
`

func saxpySpec() testgen.Spec {
	return testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x200000)
			a.AllocStack(1 << 10)
			xBase := a.Alloc(16, func(int) byte { return byte(rng.Uint32()) })
			yBase := a.Alloc(16, func(int) byte { return byte(rng.Uint32()) })
			a.SetReg(x64.RDI, uint64(rng.Uint32()))
			a.SetReg(x64.RSI, xBase)
			a.SetReg(x64.RDX, yBase)
			a.SetReg(x64.RCX, 0) // i = 0; the arrays are exactly one vector
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{LiveSegs: []int{1}}, // x[] is segment 1 (0 = stack)
	}
}

// --- Linked list traversal (Figure 15) -----------------------------------
//
// The loop-free inner fragment of: while (head) { head->val *= 2; head =
// head->next; }. The head pointer lives in the stack slot -8(rsp); a node
// is {int32 val; pad; node* next} (16 bytes).

// listO0 is the llvm -O0 style fragment: head reloaded from the stack
// around every access.
const listO0 = `
  movq -8(rsp), rax
  movl (rax), ecx
  movl ecx, -12(rsp)
  movl -12(rsp), ecx
  addl ecx, ecx
  movq -8(rsp), rax
  movl ecx, (rax)
  movq -8(rsp), rax
  movq 8(rax), rax
  movq rax, -8(rsp)
`

// listStoke is the rewrite the paper reports STOKE finding (Figure 15
// right): stack traffic reduced and the multiply strength-reduced, but the
// head pointer still round-trips through memory every iteration.
const listStoke = `
.L4
  movq -8(rsp), rdi
  sall (rdi)
  movq 8(rdi), rdi
  movq rdi, -8(rsp)
.L6
`

// listGccO3 is the loop body gcc -O3 produces (Figure 15 left): the head
// pointer cached in rdi across iterations, so the fragment touches the
// stack only on loop entry (modelled here as the bare body).
const listGccO3 = `
.L4
  sall (rdi)
  movq 8(rdi), rdi
`

// listIccO3 models the paper's observation that icc fails to
// strength-reduce the multiplication.
const listIccO3 = `
.L4
  imull 2, (rdi), ecx
  movl ecx, (rdi)
  movq 8(rdi), rdi
`

func listSpec() testgen.Spec {
	return testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			// Hand-built layout: the head variable is its own 8-byte
			// segment at rsp-8 (a live output: the loop continues from
			// it), while the scratch stack below it is dead on exit.
			const sp = 0x300200
			mkSeg := func(base uint64, size int, defined bool) emu.MemImage {
				im := emu.NewMemImage(base, size)
				if defined {
					im.Def.SetRange(0, size)
				}
				im.Valid.SetRange(0, size)
				return im
			}
			scratch := mkSeg(sp-256, 248, false) // [sp-256, sp-8)
			head := mkSeg(sp-8, 8, true)
			node0 := mkSeg(0x300400, 16, true)
			node1 := mkSeg(0x300500, 16, true)

			val := rng.Uint32()
			for i := 0; i < 4; i++ {
				node0.Data[i] = byte(val >> (8 * i))
			}
			for i := 0; i < 8; i++ {
				node0.Data[8+i] = byte(node1.Base >> (8 * i))
				head.Data[i] = byte(node0.Base >> (8 * i))
			}

			s := &emu.Snapshot{} // flags undefined at fragment entry
			s.Mem = []emu.MemImage{scratch, head, node0, node1}
			s.Regs[x64.RSP] = sp
			s.RegDef |= 1 << x64.RSP
			return s
		},
		// Live outputs: the updated head slot and the doubled node value.
		LiveOut: testgen.LiveSet{LiveSegs: []int{1, 2}},
	}
}

// listLiveMem: only the rsp-relative head slot is expressible for the
// validator; the node contents are covered by testcases (see DESIGN.md).
func listLiveMem() []verify.MemRange {
	return []verify.MemRange{{Base: x64.RSP, Disp: -8, Len: 8}}
}
