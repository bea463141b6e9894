package verify_test

// Stack-address resolution: -O0 code spills and reloads through
// rsp/rbp-relative slots, and the bit-vector builder's base+offset normal
// form decides those addresses structurally. These tests pin the verdicts
// on round trips and overlapping-width accesses against the emulator, keep
// addresses over different base registers symbolic, and bound the size of
// the encoded -O0 proof so spills cannot quietly go back to SAT.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

const (
	stackSegBase = 0x10000
	stackSegSize = 128
)

// stackState draws random registers and stack contents, with rsp in the
// middle of one fully valid, defined stack segment.
func stackState(rng *rand.Rand) *emu.Snapshot {
	s := &emu.Snapshot{RegDef: 0xffff, XmmDef: 0xffff, FlagsDef: x64.AllFlags}
	for r := range s.Regs {
		s.Regs[r] = rng.Uint64()
	}
	s.Regs[x64.RSP] = stackSegBase + stackSegSize/2
	im := emu.NewMemImage(stackSegBase, stackSegSize)
	rng.Read(im.Data)
	im.Def.SetRange(0, stackSegSize)
	im.Valid.SetRange(0, stackSegSize)
	s.Mem = []emu.MemImage{im}
	return s
}

// emulatorAgrees runs both programs on random stack states and reports
// whether their live registers always match.
func emulatorAgrees(t *testing.T, a, b *x64.Program, live []testgen.LiveReg) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	m := emu.New()
	for i := 0; i < 64; i++ {
		s := stackState(rng)
		outs := [2][]uint64{}
		for k, p := range []*x64.Program{a, b} {
			m.LoadSnapshot(s)
			if o := m.Run(p); o.SigSegv != 0 || o.Undef != 0 {
				t.Fatalf("program faults on the stack state (%+v):\n%s", o, p)
			}
			for _, lr := range live {
				outs[k] = append(outs[k], m.RegValue(lr.Reg, lr.Width))
			}
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			return false
		}
	}
	return true
}

func liveRegs(regs ...x64.Reg) []testgen.LiveReg {
	var out []testgen.LiveReg
	for _, r := range regs {
		out = append(out, testgen.LiveReg{Reg: r, Width: 8})
	}
	return out
}

func TestStackVerdictsMatchEmulator(t *testing.T) {
	cases := []struct {
		name, target, rewrite string
		live                  []testgen.LiveReg
		want                  verify.Verdict
	}{
		{"push-pop", "pushq rdi\npopq rax", "movq rdi, rax",
			liveRegs(x64.RAX, x64.RSP), verify.Equal},
		{"push-push-pop-pop", "pushq rdi\npushq rsi\npopq rax\npopq rcx",
			"movq rsi, rax\nmovq rdi, rcx", liveRegs(x64.RAX, x64.RCX, x64.RSP), verify.Equal},
		{"pop-order-swapped", "pushq rdi\npushq rsi\npopq rax\npopq rcx",
			"movq rdi, rax\nmovq rsi, rcx", liveRegs(x64.RAX, x64.RCX), verify.NotEqual},
		{"rbp-frame", `
  pushq rbp
  movq rsp, rbp
  movq rdi, -8(rbp)
  movl esi, -12(rbp)
  movq -8(rbp), rax
  movslq -12(rbp), rcx
  addq rcx, rax
  popq rbp
`, "movslq esi, rax\naddq rdi, rax", liveRegs(x64.RAX, x64.RBP, x64.RSP), verify.Equal},
		// A qword store at -8(rsp) and a dword load at -6(rsp): the load
		// takes bytes 2..5 of the stored value.
		{"overlap-qword-store-dword-load", "movq rdi, -8(rsp)\nmovl -6(rsp), eax",
			"movq rdi, rax\nshrq 16, rax\nmovl eax, eax", liveRegs(x64.RAX), verify.Equal},
		{"overlap-wrong-shift", "movq rdi, -8(rsp)\nmovl -6(rsp), eax",
			"movq rdi, rax\nshrq 8, rax\nmovl eax, eax", liveRegs(x64.RAX), verify.NotEqual},
		// A load straddling a store and the initial stack contents.
		{"overlap-initial-memory", "movq rdi, -8(rsp)\nmovq -4(rsp), rax",
			"movl (rsp), eax\nshlq 32, rax\nmovq rdi, rcx\nshrq 32, rcx\norq rcx, rax",
			liveRegs(x64.RAX), verify.Equal},
		{"overlap-initial-memory-wrong-slot", "movq rdi, -8(rsp)\nmovq -4(rsp), rax",
			"movl 4(rsp), eax\nshlq 32, rax\nmovq rdi, rcx\nshrq 32, rcx\norq rcx, rax",
			liveRegs(x64.RAX), verify.NotEqual},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := x64.MustParse(c.target), x64.MustParse(c.rewrite)
			res := verify.Equivalent(context.Background(), a, b,
				verify.LiveOut{GPRs: c.live}, verify.DefaultConfig)
			if res.Verdict != c.want {
				t.Fatalf("verdict %v (%s), want %v", res.Verdict, res.Reason, c.want)
			}
			if agree := emulatorAgrees(t, a, b, c.live); agree != (c.want == verify.Equal) {
				t.Fatalf("emulator agreement %v contradicts verdict %v", agree, res.Verdict)
			}
		})
	}
}

// TestCrossBaseAliasingStaysSymbolic: a store through rdi and a load
// through rsi at different displacements alias exactly when
// rdi+8 and rsi+16 overlap; the verifier must find that state.
func TestCrossBaseAliasingStaysSymbolic(t *testing.T) {
	a := x64.MustParse("movq rcx, 8(rdi)\nmovq 16(rsi), rax")
	b := x64.MustParse("movq 16(rsi), rax")
	res := verify.Equivalent(context.Background(), a, b,
		verify.LiveOut{GPRs: liveRegs(x64.RAX)}, verify.DefaultConfig)
	if res.Verdict != verify.NotEqual || res.Cex == nil {
		t.Fatalf("verdict %v (%s), want not-equal with a counterexample", res.Verdict, res.Reason)
	}
	gap := int64(res.Cex.Regs[x64.RSI] + 16 - (res.Cex.Regs[x64.RDI] + 8))
	if gap <= -8 || gap >= 8 {
		t.Fatalf("counterexample rdi=%#x rsi=%#x does not overlap the store and the load",
			res.Cex.Regs[x64.RDI], res.Cex.Regs[x64.RSI])
	}
}

func kernelLive(k kernels.Bench) verify.LiveOut {
	return verify.LiveOut{GPRs: k.Spec.LiveOut.GPRs, Xmms: k.Spec.LiveOut.Xmms,
		Flags: k.Spec.LiveOut.Flags, Mem: k.LiveMem}
}

// TestO0ProofEncodingSize pins the p01 -O0 target against its gcc -O3
// version to a small encoding: every spill and reload resolves before
// bit-blasting, leaving only the arithmetic.
func TestO0ProofEncodingSize(t *testing.T) {
	k, err := kernels.ByName("p01")
	if err != nil {
		t.Fatal(err)
	}
	res := verify.Equivalent(context.Background(), k.Target, k.GccO3, kernelLive(k), verify.DefaultConfig)
	if res.Verdict != verify.Equal {
		t.Fatalf("p01 vs gcc -O3: %v (%s)", res.Verdict, res.Reason)
	}
	if res.Clauses > 5000 {
		t.Fatalf("p01 vs gcc -O3 encodes to %d clauses, want <= 5000", res.Clauses)
	}
}

// TestProofsDeterministic repeats a query with two uninterpreted function
// families (initial memory and the wide-multiply halves): conflicts,
// encoding size and counterexample must be identical on every run.
func TestProofsDeterministic(t *testing.T) {
	k, err := kernels.ByName("mont")
	if err != nil {
		t.Fatal(err)
	}
	var first verify.Result
	for i := 0; i < 10; i++ {
		res := verify.Equivalent(context.Background(), k.Target, k.GccO3, kernelLive(k), verify.DefaultConfig)
		if i == 0 {
			first = res
			continue
		}
		if res.Verdict != first.Verdict || res.Conflicts != first.Conflicts ||
			res.Clauses != first.Clauses || !reflect.DeepEqual(res.Cex, first.Cex) {
			t.Fatalf("run %d differs: %v, %d conflicts, %d clauses, cex %+v; run 0: %v, %d conflicts, %d clauses, cex %+v",
				i, res.Verdict, res.Conflicts, res.Clauses, res.Cex,
				first.Verdict, first.Conflicts, first.Clauses, first.Cex)
		}
	}
}
