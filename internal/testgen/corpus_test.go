package testgen

// Self-verification of the fuzz seed corpus: every named seed must decode
// to the edge case it advertises, so corpus drift (an encoder/decoder
// mismatch, a reshuffled menu) fails here instead of silently weakening
// the fuzz targets' starting points.

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/x64"
)

func seedByName(t *testing.T, name string) *FuzzCase {
	t.Helper()
	for _, s := range SeedCorpus() {
		if s.Name == name {
			return DecodeFuzzCase(s.Data)
		}
	}
	t.Fatalf("no seed named %q", name)
	return nil
}

func TestSeedCorpusDecodesDeterministically(t *testing.T) {
	for _, s := range SeedCorpus() {
		a, b := DecodeFuzzCase(s.Data), DecodeFuzzCase(s.Data)
		if a.Prog.String() != b.Prog.String() || len(a.Edits) != len(b.Edits) {
			t.Errorf("%s: decode is not deterministic", s.Name)
		}
	}
}

func TestSeedCorpusCoversDivideFaults(t *testing.T) {
	fc := seedByName(t, "div64-by-zero")
	if fc.Prog.Insts[0].Op != x64.DIV {
		t.Fatalf("div64-by-zero decodes to %v, want div", fc.Prog.Insts[0])
	}
	if v := fc.Snap.Regs[x64.RSI]; v != 0 {
		t.Fatalf("div64-by-zero divisor = %#x, want 0", v)
	}

	fc = seedByName(t, "div64-quotient-overflow")
	if hi, d := fc.Snap.Regs[x64.RDX], fc.Snap.Regs[x64.RSI]; hi < d {
		t.Fatalf("overflow seed has RDX=%#x < divisor %#x; no #DE", hi, d)
	}

	fc = seedByName(t, "idiv64-intmin-neg1")
	if fc.Prog.Insts[0].Op != x64.IDIV {
		t.Fatalf("idiv64-intmin-neg1 decodes to %v", fc.Prog.Insts[0])
	}
	if fc.Snap.Regs[x64.RAX] != 1<<63 || fc.Snap.Regs[x64.RSI] != ^uint64(0) {
		t.Fatalf("idiv64-intmin-neg1 state: RAX=%#x RSI=%#x",
			fc.Snap.Regs[x64.RAX], fc.Snap.Regs[x64.RSI])
	}

	fc = seedByName(t, "idiv32-intmin-neg1")
	if uint32(fc.Snap.Regs[x64.RAX]) != 0x80000000 || uint32(fc.Snap.Regs[x64.RSI]) != 0xffffffff {
		t.Fatalf("idiv32-intmin-neg1 state: RAX=%#x RSI=%#x",
			fc.Snap.Regs[x64.RAX], fc.Snap.Regs[x64.RSI])
	}
}

func TestSeedCorpusCoversSSE(t *testing.T) {
	fc := seedByName(t, "sse-saxpy-shape")
	want := []x64.Opcode{x64.MOVD, x64.SHUFPS, x64.MOVUPS, x64.PMULLD,
		x64.MOVUPS, x64.PADDD, x64.MOVUPS}
	for i, op := range want {
		if fc.Prog.Insts[i].Op != op {
			t.Fatalf("sse-saxpy-shape slot %d = %v, want %v\n%s",
				i, fc.Prog.Insts[i], op, fc.Prog)
		}
	}
	if last := fc.Prog.Insts[6]; last.Opd[1].Kind != x64.KindMem {
		t.Fatalf("sse-saxpy-shape must end in a vector store, got %v", last)
	}

	fc = seedByName(t, "sse-fixed-point-edges")
	first := fc.Prog.Insts[0]
	if first.Op != x64.PXOR || first.Opd[0].Reg != first.Opd[1].Reg {
		t.Fatalf("sse-fixed-point-edges slot 0 = %v, want the pxor zero idiom", first)
	}
	if c := fc.Prog.Insts[1]; c.Op != x64.PSLLD || c.Opd[0].Imm != 32 {
		t.Fatalf("sse-fixed-point-edges slot 1 = %v, want pslld by 32 (lane width)", c)
	}
	if c := fc.Prog.Insts[2]; c.Op != x64.PSRLQ || c.Opd[0].Imm != 64 {
		t.Fatalf("sse-fixed-point-edges slot 2 = %v, want psrlq by 64", c)
	}
	if mem := fc.Prog.Insts[3]; mem.Op != x64.PMULLW || mem.Opd[0].Kind != x64.KindMem {
		t.Fatalf("sse-fixed-point-edges slot 3 = %v, want memory-source pmullw", mem)
	}
}

func TestSeedCorpusCoversPaddingAndRelink(t *testing.T) {
	fc := seedByName(t, "unused-padding-patches")
	unused := 0
	for _, in := range fc.Prog.Insts {
		if in.Op == x64.UNUSED {
			unused++
		}
	}
	if unused < 8 {
		t.Fatalf("padding seed has %d UNUSED slots, want ≥ 8", unused)
	}
	if len(fc.Edits) != 5 || !fc.Edits[2].Swap {
		t.Fatalf("padding seed edits = %+v, want 5 with a swap at index 2", fc.Edits)
	}

	fc = seedByName(t, "patch-control-relink")
	hasJcc, hasLabel := false, false
	for _, in := range fc.Prog.Insts {
		hasJcc = hasJcc || in.Op == x64.Jcc
		hasLabel = hasLabel || in.Op == x64.LABEL
	}
	if !hasJcc || !hasLabel {
		t.Fatalf("relink seed lacks control structure:\n%s", fc.Prog)
	}
	if e := fc.Edits[0]; e.Swap || e.Slot != 1 || e.With.Op != x64.UNUSED {
		t.Fatalf("relink seed edit 0 = %+v, want the jump deleted", e)
	}
	if e := fc.Edits[2]; e.With.Op != x64.Jcc {
		t.Fatalf("relink seed edit 2 = %+v, want the jump re-created", e)
	}
}

// TestSeedCorpusCoversLivenessEdges: the dead-flag-elimination seeds must
// decode to the dataflow shapes they are named for — carry chains, the
// partial-kill inc, disagreeing branch successors, and liveness flowing
// across UNUSED padding under relink edits.
func TestSeedCorpusCoversLivenessEdges(t *testing.T) {
	fc := seedByName(t, "flags-adc-carry-chain")
	if fc.Prog.Insts[0].Op != x64.ADD || fc.Prog.Insts[1].Op != x64.ADC || fc.Prog.Insts[2].Op != x64.ADC {
		t.Fatalf("carry-chain seed decodes to:\n%s", fc.Prog)
	}
	if e := fc.Edits[0]; e.With.Op != x64.XOR || e.With.Opd[0].Reg != e.With.Opd[1].Reg {
		t.Fatalf("carry-chain edit 0 = %+v, want the xor-zero kill", e.With)
	}

	fc = seedByName(t, "flags-inc-preserves-cf")
	if fc.Prog.Insts[0].Op != x64.CMP || fc.Prog.Insts[1].Op != x64.INC || fc.Prog.Insts[2].Op != x64.ADC {
		t.Fatalf("inc-preserves-cf seed decodes to:\n%s", fc.Prog)
	}
	if fc.Edits[0].With.Op != x64.NOT {
		t.Fatalf("inc-preserves-cf edit 0 = %v, want a flagless not", fc.Edits[0].With)
	}

	fc = seedByName(t, "flags-jcc-successors-disagree")
	if fc.Prog.Insts[1].Op != x64.Jcc || fc.Prog.Insts[2].Op != x64.XOR ||
		fc.Prog.Insts[3].Op != x64.LABEL || fc.Prog.Insts[4].Op != x64.SETcc {
		t.Fatalf("jcc-disagree seed decodes to:\n%s", fc.Prog)
	}
	if e := fc.Edits[0]; e.Slot != 1 || e.With.Op != x64.UNUSED {
		t.Fatalf("jcc-disagree edit 0 = %+v, want the jump deleted", e)
	}

	fc = seedByName(t, "flags-live-across-padding")
	unused := 0
	for _, in := range fc.Prog.Insts {
		if in.Op == x64.UNUSED {
			unused++
		}
	}
	if fc.Prog.Insts[0].Op != x64.CMP || fc.Prog.Insts[5].Op != x64.SETcc || unused != 4 {
		t.Fatalf("padding seed decodes to:\n%s", fc.Prog)
	}
	if len(fc.Edits) != 4 || fc.Edits[2].With.Op != x64.Jcc {
		t.Fatalf("padding seed edits = %+v, want 4 with a relinking jcc", fc.Edits)
	}
}

// TestSeedCorpusCoversRegLiveness: the register-liveness seeds must decode
// to the deadness edges they are named for — narrow-write merge chains,
// zero-extending 32-bit kills, the backward-label jcc whose taken edge is
// an exit, the divide family's implicit defs, and dead XMM destinations.
func TestSeedCorpusCoversRegLiveness(t *testing.T) {
	fc := seedByName(t, "regs-partial-write-merge-chain")
	for i, w := range []uint8{1, 2, 1} {
		in := fc.Prog.Insts[i]
		if in.Op != x64.MOV || in.Opd[1].Width != w {
			t.Fatalf("merge-chain slot %d = %v, want a %d-byte mov", i, in, w)
		}
	}
	if kill := fc.Prog.Insts[3]; kill.Op != x64.MOV || kill.Opd[1].Width != 8 ||
		kill.Opd[1].Reg != x64.RAX {
		t.Fatalf("merge-chain slot 3 = %v, want the wide kill of %%rax", kill)
	}
	if e := fc.Edits[1].With; e.Opd[1].Width != 4 || e.Opd[1].Reg != x64.RAX {
		t.Fatalf("merge-chain edit 1 = %v, want the 32-bit re-kill", e)
	}

	fc = seedByName(t, "regs-zero-extend-kill")
	if in := fc.Prog.Insts[1]; in.Op != x64.MOV || in.Opd[1].Width != 4 {
		t.Fatalf("zero-extend seed slot 1 = %v, want a 32-bit mov", in)
	}
	if in := fc.Prog.Insts[3]; in.Op != x64.XOR || in.Opd[0].Reg != in.Opd[1].Reg {
		t.Fatalf("zero-extend seed slot 3 = %v, want the xor zero idiom", in)
	}
	if len(fc.Edits) != 2 || !fc.Edits[0].Swap {
		t.Fatalf("zero-extend seed edits = %+v, want two swaps", fc.Edits)
	}

	fc = seedByName(t, "regs-dead-write-jcc-resurrect")
	if fc.Prog.Insts[0].Op != x64.LABEL || fc.Prog.Insts[1].Op != x64.MOV {
		t.Fatalf("jcc-resurrect seed decodes to:\n%s", fc.Prog)
	}
	if e := fc.Edits[0]; e.Slot != 2 || e.With.Op != x64.Jcc ||
		e.With.Opd[0].Label != fc.Prog.Insts[0].Opd[0].Label {
		t.Fatalf("jcc-resurrect edit 0 = %+v, want a jcc to the backward label", e)
	}
	if e := fc.Edits[1]; e.With.Op != x64.UNUSED {
		t.Fatalf("jcc-resurrect edit 1 = %+v, want the jump deleted again", e)
	}

	fc = seedByName(t, "regs-div-implicit-defs")
	if fc.Prog.Insts[0].Op != x64.DIV || fc.Prog.Insts[1].Op != x64.XOR ||
		fc.Prog.Insts[2].Op != x64.XOR {
		t.Fatalf("div-implicit seed decodes to:\n%s", fc.Prog)
	}
	if e := fc.Edits[2].With; e.Op != x64.DIV || e.Opd[0].Reg != x64.RBP {
		t.Fatalf("div-implicit edit 2 = %v, want divq %%rbp", e)
	}
	if v := fc.Snap.Regs[x64.RBP]; v != 0 {
		t.Fatalf("div-implicit RBP = %#x, want the zero divisor the edit switches to", v)
	}

	fc = seedByName(t, "regs-dead-xmm-lanes")
	if in := fc.Prog.Insts[1]; in.Op != x64.PXOR || in.Opd[0].Reg != in.Opd[1].Reg {
		t.Fatalf("xmm seed slot 1 = %v, want the pxor zero idiom", in)
	}
	if in := fc.Prog.Insts[3]; in.Op != x64.MOVUPS || in.Opd[0].Kind != x64.KindMem {
		t.Fatalf("xmm seed slot 3 = %v, want a vector load kill", in)
	}
	if in := fc.Prog.Insts[4]; in.Op != x64.MOVD {
		t.Fatalf("xmm seed slot 4 = %v, want a cross-file movd", in)
	}
}

// TestSeedCorpusCoversBatchDivergence: the batched-evaluator seeds must
// decode to the lockstep edges they are named for — a branch on the input
// flags, a lane-subset divide fault followed by a branch, and a shape that
// re-splits the peeled side.
func TestSeedCorpusCoversBatchDivergence(t *testing.T) {
	fc := seedByName(t, "batch-jcc-on-input-flags")
	if fc.Prog.Insts[0].Op != x64.Jcc {
		t.Fatalf("batch-jcc-on-input-flags must branch first:\n%s", fc.Prog)
	}
	if fc.Snap.FlagsDef == x64.AllFlags {
		t.Fatalf("batch-jcc-on-input-flags wants partially-defined input flags, got %v",
			fc.Snap.FlagsDef)
	}

	fc = seedByName(t, "batch-divergent-de")
	if fc.Prog.Insts[0].Op != x64.DIV || fc.Prog.Insts[1].Op != x64.Jcc {
		t.Fatalf("batch-divergent-de decodes to:\n%s", fc.Prog)
	}
	if v := fc.Snap.Regs[x64.RBP]; v != 0 {
		t.Fatalf("batch-divergent-de divisor = %#x, want 0 so the base lane faults", v)
	}

	fc = seedByName(t, "batch-peel-resplit")
	jccs := 0
	for _, in := range fc.Prog.Insts {
		if in.Op == x64.Jcc {
			jccs++
		}
	}
	if jccs != 2 {
		t.Fatalf("batch-peel-resplit has %d conditional jumps, want 2:\n%s", jccs, fc.Prog)
	}
	if len(fc.Edits) != 2 || fc.Edits[0].With.Op != x64.UNUSED || fc.Edits[1].With.Op != x64.Jcc {
		t.Fatalf("batch-peel-resplit edits = %+v, want delete-then-recreate of the jump", fc.Edits)
	}
}

// TestDecodeFuzzCaseTotal: arbitrary and empty inputs must decode without
// panicking into runnable scenarios.
func TestDecodeFuzzCaseTotal(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0xff},
		{0x0b, 0xde, 0xad, 0xbe, 0xef},
		make([]byte, 4096),
	}
	for i := 0; i < 256; i++ {
		inputs = append(inputs, []byte{byte(i), byte(i * 7), byte(i * 13)})
	}
	for _, in := range inputs {
		fc := DecodeFuzzCase(in)
		if fc.Prog == nil || fc.Snap == nil || len(fc.Prog.Insts) == 0 {
			t.Fatalf("decode of %x produced an empty case", in)
		}
		if len(fc.Edits) > 128 {
			t.Fatalf("edit script unbounded: %d", len(fc.Edits))
		}
	}
}

// TestSeedCorpusCoversMemoryAddressing: the memory-addressing seeds must
// decode to the address shapes they are named for, run fault-free, and
// end in a candidate whose rax differs from the target's, so the verifier
// fuzz target reaches its symbolic query on them.
func TestSeedCorpusCoversMemoryAddressing(t *testing.T) {
	type access struct {
		slot  int
		store bool
		base  x64.Reg
		disp  int32
		width uint8
	}
	cases := []struct {
		seed     string
		accesses []access
	}{
		{"mem-same-base-overlap-width", []access{
			{0, true, x64.RDI, -8, 8}, {1, false, x64.RDI, -6, 4}}},
		{"mem-rdi-rsi-alias-disp", []access{
			{0, true, x64.RDI, 0, 8}, {1, false, x64.RSI, 8, 8}}},
		{"mem-int8-disp-wrap", []access{
			{0, true, x64.RDI, -1, 8}, {1, false, x64.RDI, 0, 4}, {2, false, x64.RSI, 127, 1}}},
	}
	for _, c := range cases {
		fc := seedByName(t, c.seed)
		for _, a := range c.accesses {
			in := fc.Prog.Insts[a.slot]
			mem := in.Opd[0]
			if a.store {
				mem = in.Opd[1]
			}
			if in.Op != x64.MOV || mem.Kind != x64.KindMem || mem.Base != a.base ||
				mem.Disp != a.disp || mem.Width != a.width {
				t.Fatalf("%s slot %d = %v, want a %d-byte access at %d(%s)",
					c.seed, a.slot, in, a.width, a.disp, x64.GPRName(a.base, 8))
			}
		}

		cand := fc.Prog.Clone()
		for _, e := range fc.Edits {
			if e.Swap {
				cand.Insts[e.Slot], cand.Insts[e.Other] = cand.Insts[e.Other], cand.Insts[e.Slot]
			} else {
				cand.Insts[e.Slot] = e.With
			}
		}
		m := emu.New()
		var rax [2]uint64
		for i, p := range []*x64.Program{fc.Prog, cand} {
			m.LoadSnapshot(fc.Snap)
			if o := m.Run(p); o.SigSegv != 0 {
				t.Fatalf("%s faults:\n%s", c.seed, p)
			}
			rax[i] = m.Regs[x64.RAX]
		}
		if rax[0] == rax[1] {
			t.Fatalf("%s: patched candidate agrees with the target on rax (%#x)", c.seed, rax[0])
		}
	}

	fc := seedByName(t, "mem-rdi-rsi-alias-disp")
	if fc.Snap.Regs[x64.RDI] != fc.Snap.Regs[x64.RSI]+8 {
		t.Fatalf("alias seed: rdi=%#x rsi=%#x, want rdi == rsi+8",
			fc.Snap.Regs[x64.RDI], fc.Snap.Regs[x64.RSI])
	}
}
