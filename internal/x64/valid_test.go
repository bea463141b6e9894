package x64

import (
	"strings"
	"testing"
)

// TestValidBreaksEachRule pins one instruction per rule Validate checks:
// Valid rejects it, and Validate's message names the broken rule.
func TestValidBreaksEachRule(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: NumOpcodes}, "invalid opcode"},
		{MakeInst(CMOVcc, R(RSI, 8), R(RAX, 8)), "requires a condition code"},
		{MakeCCInst(ADD, CondE, R(RSI, 8), R(RAX, 8)), "does not take a condition code"},
		{MakeInst(ADD, R(RSI, 8), R(RAX, 4)), "no signature"},
		{MakeInst(ADD, Imm(1, 4), R(RAX, 8)), "immediate width"},
		{MakeInst(SHL, R(RDX, 1), R(RAX, 8)), "shift count must be cl"},
		{MakeInst(ADD, MemSIB(RDI, RSI, 3, 0, 8), R(RAX, 8)), "bad scale"},
		{MakeInst(ADD, MemSIB(NoReg, NoReg, 1, 8, 8), R(RAX, 8)), "absolute memory operand"},
		{MakeInst(ADD, Mem(Reg(NumGPR), 0, 8), R(RAX, 8)), "bad base register"},
		{MakeInst(ADD, MemSIB(RDI, RSP, 1, 0, 8), R(RAX, 8)), "bad index register"},
	}
	for _, c := range cases {
		err := c.in.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want an error containing %q", c.in, err, c.want)
		}
		if c.in.Valid() {
			t.Errorf("Valid(%+v) = true, want false (%s)", c.in, c.want)
		}
	}
}

// TestValidMatchesValidate mutates random valid instructions one field at
// a time and holds Valid to Validate on every result.
func TestValidMatchesValidate(t *testing.T) {
	rng := newTestRand(17)
	valid, invalid := 0, 0
	for iter := 0; iter < 20000; iter++ {
		in, ok := randomInstForTest(rng)
		if !ok {
			continue
		}
		switch rng.Intn(6) {
		case 0:
			in.Op = Opcode(rng.Intn(int(NumOpcodes)))
		case 1:
			in.CC = Cond(rng.Intn(int(NumConds)))
		case 2, 3:
			if in.N > 0 {
				o := &in.Opd[rng.Intn(int(in.N))]
				switch rng.Intn(4) {
				case 0:
					o.Width = []uint8{1, 2, 4, 8, 16}[rng.Intn(5)]
				case 1:
					o.Reg = Reg(rng.Intn(NumGPR))
				case 2:
					o.Scale = uint8(rng.Intn(9))
				case 3:
					o.Base, o.Index = Reg(rng.Intn(NumGPR+1)), Reg(rng.Intn(NumGPR+1))
				}
			}
		}
		got, want := in.Valid(), in.Validate() == nil
		if got != want {
			t.Fatalf("%+v: Valid %v, Validate %v", in, got, in.Validate())
		}
		if got {
			valid++
		} else {
			invalid++
		}
	}
	if valid == 0 || invalid == 0 {
		t.Fatalf("mutations gave %d valid and %d invalid instructions, want both", valid, invalid)
	}
}

func TestValidAllocatesNothing(t *testing.T) {
	bad := MakeInst(ADD, R(RSI, 8), R(RAX, 4))
	good := MakeInst(ADD, R(RSI, 8), R(RAX, 8))
	if n := testing.AllocsPerRun(100, func() {
		if bad.Valid() || !good.Valid() {
			t.Fatal("wrong verdict")
		}
	}); n != 0 {
		t.Fatalf("Valid allocates %v times per call pair, want 0", n)
	}
}
