package testgen_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// referenceFromInput is the per-byte construction of a testcase: every
// byte of every segment asks the trace whether its address was read or
// written, and every byte of every live segment asks again whether it was
// written. FromInput derives the same testcase from the trace's bitsets
// in time proportional to the bytes touched; this is the oracle it must
// match.
func referenceFromInput(target *x64.Program, spec testgen.Spec, in *emu.Snapshot) (testgen.Testcase, bool) {
	m := emu.New()
	trace := emu.NewTrace()
	m.SetTrace(trace)
	m.LoadSnapshot(in)
	out := m.Run(target)
	m.SetTrace(nil)
	if out.SigSegv+out.SigFpe > 0 || out.Exhaust {
		return testgen.Testcase{}, false
	}
	// touched looks an address up the way a map keyed by address would:
	// find the segment holding it, then its bit.
	touched := func(set [][]uint64, addr uint64) bool {
		for si, im := range in.Mem {
			if addr >= im.Base && addr-im.Base < uint64(len(im.Data)) {
				off := addr - im.Base
				return set[si][off/64]>>(off%64)&1 == 1
			}
		}
		return false
	}

	tc := testgen.Testcase{In: in.Clone()}
	for si := range tc.In.Mem {
		im := &tc.In.Mem[si]
		clear(im.Valid)
		for i := range im.Data {
			addr := im.Base + uint64(i)
			if touched(trace.Reads, addr) || touched(trace.Writes, addr) {
				im.Valid.Set(i)
			}
		}
	}
	for _, lr := range spec.LiveOut.GPRs {
		tc.WantGPR = append(tc.WantGPR, m.RegValue(lr.Reg, lr.Width))
	}
	for _, xr := range spec.LiveOut.Xmms {
		tc.WantXmm = append(tc.WantXmm, m.Xmm[xr])
	}
	tc.WantFlags = m.Flags & spec.LiveOut.Flags
	for si := range tc.In.Mem {
		if !isLive(spec, si) {
			continue
		}
		im := &tc.In.Mem[si]
		for i := range im.Data {
			addr := im.Base + uint64(i)
			if !touched(trace.Writes, addr) {
				continue
			}
			b, _, _ := m.MemByte(addr)
			tc.WantMem = append(tc.WantMem, testgen.MemCheck{Addr: addr, Want: b})
		}
	}
	return tc, true
}

// checkSandboxWithoutTrace pins a testcase's sandbox and live memory
// without consulting any trace. The target must run on tc.In without a
// fault and reproduce the expected outputs; clearing any one Valid byte
// must make it fault (so Valid holds no byte the target leaves alone);
// and with every input byte marked undefined, the bytes of live segments
// that end up defined are exactly the WantMem addresses, in order.
func checkSandboxWithoutTrace(t *testing.T, name string, target *x64.Program, spec testgen.Spec, tc testgen.Testcase) {
	t.Helper()
	m := emu.New()
	m.LoadSnapshot(tc.In)
	if out := m.Run(target); out.SigSegv+out.SigFpe > 0 || out.Exhaust {
		t.Fatalf("%s: target faults inside its own sandbox: %+v", name, out)
	}
	for i, lr := range spec.LiveOut.GPRs {
		if got := m.RegValue(lr.Reg, lr.Width); got != tc.WantGPR[i] {
			t.Fatalf("%s: %v = %#x on replay, testcase wants %#x", name, lr.Reg, got, tc.WantGPR[i])
		}
	}

	for si := range tc.In.Mem {
		for i := range tc.In.Mem[si].Data {
			if !tc.In.Mem[si].Valid.Has(i) {
				continue
			}
			narrowed := tc.In.Clone()
			narrowed.Mem[si].Valid[i/64] &^= 1 << (i % 64)
			m.LoadSnapshot(narrowed)
			if out := m.Run(target); out.SigSegv == 0 {
				t.Fatalf("%s: byte %#x is in the sandbox but the target never touches it",
					name, tc.In.Mem[si].Base+uint64(i))
			}
		}
	}

	blank := tc.In.Clone()
	for si := range blank.Mem {
		clear(blank.Mem[si].Def)
	}
	m.LoadSnapshot(blank)
	m.Run(target)
	var written []testgen.MemCheck
	for si := range blank.Mem {
		if !isLive(spec, si) {
			continue
		}
		im := &blank.Mem[si]
		for i := range im.Data {
			if b, def, _ := m.MemByte(im.Base + uint64(i)); def {
				written = append(written, testgen.MemCheck{Addr: im.Base + uint64(i), Want: b})
			}
		}
	}
	if !reflect.DeepEqual(tc.WantMem, written) {
		t.Fatalf("%s: WantMem %v, bytes written %v", name, tc.WantMem, written)
	}
}

func isLive(spec testgen.Spec, si int) bool {
	for _, s := range spec.LiveOut.LiveSegs {
		if s == si {
			return true
		}
	}
	return false
}

// TestFromInputMatchesPerByteOracle runs every kernel's target (and its
// gcc -O3 comparator) on random inputs under three seeds and requires
// FromInput to build exactly the testcase the per-byte construction
// builds: the same input with the same Valid plane, the same expected
// registers and flags, and the same live memory bytes in the same order.
func TestFromInputMatchesPerByteOracle(t *testing.T) {
	const inputsPerSeed = 4
	for _, b := range kernels.All() {
		targets := map[string]*x64.Program{b.Name: b.Target}
		if b.GccO3 != nil {
			targets[b.Name+"/gcc-O3"] = b.GccO3
		}
		for name, target := range targets {
			m := emu.New() // shared across inputs, as Generate shares it
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				for n := 0; n < inputsPerSeed; n++ {
					in := b.Spec.BuildInput(rng)
					testgen.FillUndefined(in, rng)
					want, ok := referenceFromInput(target, b.Spec, in)
					got, err := testgen.FromInput(m, target, b.Spec, in.Clone())
					if ok != (err == nil) {
						t.Fatalf("%s seed %d input %d: FromInput err %v, oracle ok %v", name, seed, n, err, ok)
					}
					if !ok {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d input %d: FromInput differs from the per-byte oracle\ngot  %+v\nwant %+v",
							name, seed, n, got, want)
					}
					if seed == 1 && n == 0 {
						checkSandboxWithoutTrace(t, name, target, b.Spec, got)
					}
				}
			}
		}
	}
}

// TestFromInputTwoSegments is the hand-built case: a scratch stack and a
// live array of 130 bytes, so the array's bitsets span three words. The
// target reads bytes it never writes (one load straddling the boundary
// between the first two bitset words), makes a multi-byte store, a
// 16-byte vector store, a one-byte store at the array's last byte, and a
// store to the dead stack.
func TestFromInputTwoSegments(t *testing.T) {
	target := x64.MustParse(`
  movq (rdi), rax
  movq 60(rdi), rcx
  movl eax, 120(rdi)
  movups 64(rdi), xmm0
  movups xmm0, 96(rdi)
  movb cl, 129(rdi)
  movq rcx, -8(rsp)
`)
	spec := testgen.Spec{
		BuildInput: func(rng *rand.Rand) *emu.Snapshot {
			a := testgen.NewArena(0x20000)
			a.AllocStack(256)
			base := a.Alloc(130, func(int) byte { return byte(rng.Uint32()) })
			a.SetReg(x64.RDI, base)
			return a.Snapshot()
		},
		LiveOut: testgen.LiveSet{
			GPRs:     []testgen.LiveReg{{Reg: x64.RAX, Width: 8}, {Reg: x64.RCX, Width: 8}},
			Xmms:     []x64.Reg{0},
			LiveSegs: []int{1},
		},
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 3; n++ {
		in := spec.BuildInput(rng)
		testgen.FillUndefined(in, rng)
		got, err := testgen.FromInput(nil, target, spec, in.Clone())
		if err != nil {
			t.Fatal(err)
		}
		want, ok := referenceFromInput(target, spec, in)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("FromInput differs from the per-byte oracle\ngot  %+v\nwant %+v", got, want)
		}
		checkSandboxWithoutTrace(t, "two-segment", target, spec, got)

		arr := got.In.Mem[1]
		var valid []int
		for i := range arr.Data {
			if arr.Valid.Has(i) {
				valid = append(valid, i)
			}
		}
		wantValid := span(0, 8)
		wantValid = append(wantValid, span(60, 80)...) // 60..67 read, 64..79 vector load
		wantValid = append(wantValid, span(96, 112)...)
		wantValid = append(wantValid, span(120, 124)...)
		wantValid = append(wantValid, 129)
		if !reflect.DeepEqual(valid, wantValid) {
			t.Fatalf("array sandbox %v, want %v", valid, wantValid)
		}
		var addrs []int
		for _, mc := range got.WantMem {
			addrs = append(addrs, int(mc.Addr-arr.Base))
		}
		wantAddrs := append(span(96, 112), append(span(120, 124), 129)...)
		if !reflect.DeepEqual(addrs, wantAddrs) {
			t.Fatalf("live bytes at offsets %v, want %v", addrs, wantAddrs)
		}
		stack := got.In.Mem[0]
		sp := int(in.Regs[x64.RSP] - stack.Base)
		for i := range stack.Data {
			if ok := stack.Valid.Has(i); ok != (i >= sp-8 && i < sp) {
				t.Fatalf("stack byte %d: valid %v", i, ok)
			}
		}
	}
}

func span(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
