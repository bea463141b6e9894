package testgen

// Seed corpus for the emulator's differential fuzz targets: hand-picked
// scenarios covering the edges the DIV/IDIV and SSE lowering hinges on —
// divide faults (#DE on zero divisors, 128/64 quotient overflow,
// INT_MIN/-1), the denormal-free fixed-point lane boundaries of the SSE
// subset, UNUSED-slot padding, and patch scripts that cross the control
// relink path. The encoder here mirrors DecodeFuzzCase's layout byte for
// byte (fixed-width slots make drift impossible); corpus_test.go decodes
// every seed and asserts it still exercises the edge it is named for.

import "repro/internal/x64"

// Seed is one named corpus entry.
type Seed struct {
	Name string
	Data []byte
}

// fzSlot encodes one program slot (or the instruction half of an edit):
// a menu selector plus exactly four argument bytes.
func fzSlot(menu byte, args ...byte) []byte {
	out := []byte{menu, 0, 0, 0, 0}
	copy(out[1:], args)
	return out
}

// fzEdit encodes a replacement edit of slot i.
func fzEdit(i byte, inst []byte) []byte {
	return append([]byte{i &^ 0x80}, inst...)
}

// fzSwap encodes a swap edit of slots i and j.
func fzSwap(i, j byte) []byte {
	return []byte{0x80 | i, j, 0, 0, 0, 0}
}

// fzSnap is the encoder-side snapshot spec, mirroring DecodeFuzzCase's
// fixed-size block field for field.
type fzSnap struct {
	gprIdx    [16]byte // value-table index per GPR
	xmmIdx    [16][2]byte
	regDef    uint16
	xmmDef    uint16
	flags     byte
	flagsDef  byte
	memSeed   byte
	defMask   byte
	validMask byte
	rdi, rsi  byte // segment offsets; 0x80 keeps the table value
}

// defaultFzSnap: everything defined, values staggered over the table,
// fully valid and defined memory, both pointer registers in the segment.
func defaultFzSnap() fzSnap {
	s := fzSnap{
		regDef: 0xffff, xmmDef: 0xffff,
		flagsDef: 0x1f,
		defMask:  0xff, validMask: 0xff,
		rdi: 0, rsi: 64,
	}
	for i := range s.gprIdx {
		s.gprIdx[i] = byte(i)
	}
	for i := range s.xmmIdx {
		s.xmmIdx[i] = [2]byte{byte(i), byte(15 - i)}
	}
	return s
}

func (s fzSnap) bytes() []byte {
	var out []byte
	for _, idx := range s.gprIdx {
		out = append(out, idx, 0)
	}
	out = append(out, byte(s.regDef), byte(s.regDef>>8))
	for _, lanes := range s.xmmIdx {
		out = append(out, lanes[0], 0, lanes[1], 0)
	}
	out = append(out, byte(s.xmmDef), byte(s.xmmDef>>8))
	out = append(out, s.flags, s.flagsDef)
	out = append(out, s.memSeed, s.defMask, s.validMask)
	out = append(out, s.rdi, s.rsi)
	return out
}

// seed assembles one corpus entry: program length byte, slots, snapshot,
// edit script.
func seed(name string, snap fzSnap, slots [][]byte, edits ...[]byte) Seed {
	data := []byte{byte(len(slots) - 1)}
	for _, s := range slots {
		data = append(data, s...)
	}
	data = append(data, snap.bytes()...)
	for _, e := range edits {
		data = append(data, e...)
	}
	return Seed{Name: name, Data: data}
}

// rsiReg is the FzDiv/FzIdiv argument selecting RSI as the divisor source.
const rsiReg = 6

// SeedCorpus returns the named seed entries both fuzz targets start from.
func SeedCorpus() []Seed {
	divSnap := func(rax, rdx, rsi byte) fzSnap {
		s := defaultFzSnap()
		s.gprIdx[0] = rax // RAX
		s.gprIdx[2] = rdx // RDX
		s.gprIdx[6] = rsi // RSI
		s.rsi = 0x80      // keep the table divisor, don't repoint RSI
		return s
	}

	var seeds []Seed
	seeds = append(seeds,
		seed("div64-by-zero", divSnap(fvThree, fvZero, fvZero),
			[][]byte{fzSlot(FzDiv, 0, rsiReg)}),
		seed("div64-quotient-overflow", divSnap(fvThree, fvThree, fvTwo),
			[][]byte{fzSlot(FzDiv, 0, rsiReg)}),
		seed("idiv64-intmin-neg1", divSnap(fvInt64Min, fvAllOnes, fvAllOnes),
			[][]byte{fzSlot(FzIdiv, 0, rsiReg)}),
		seed("idiv32-intmin-neg1", divSnap(fvInt32Min, fvU32Max, fvAllOnes),
			[][]byte{fzSlot(FzIdiv, 1, rsiReg)}),
		seed("div32-then-store", defaultFzSnap(),
			[][]byte{
				fzSlot(FzALU, 4, 1, 0, 2), // xor RAX-family noise
				fzSlot(FzDiv, 1, 0x80, 0, 8),
				fzSlot(FzMovScalar, 3, 2, 0, 16),
			}),
	)

	vec := defaultFzSnap()
	vec.xmmIdx[0] = [2]byte{fvInt32Max, fvInt32Min}
	vec.xmmIdx[1] = [2]byte{fvU32Max, fvOne}
	seeds = append(seeds,
		// The saxpy shape: broadcast, packed multiply, packed add, store.
		seed("sse-saxpy-shape", vec,
			[][]byte{
				fzSlot(FzMovGX, 0, 1, 7, 0),   // movd edi, xmm0
				fzSlot(FzShuffle, 0, 0, 0, 0), // shufps 0, xmm0, xmm0
				fzSlot(FzMovups, 1, 0, 2, 0),  // movups (rdi), xmm1
				fzSlot(FzPacked, 5, 1, 0),     // pmulld xmm1, xmm0
				fzSlot(FzMovups, 1, 0, 3, 0),  // movups (rsi), xmm1
				fzSlot(FzPacked, 3, 1, 0),     // paddd xmm1, xmm0
				fzSlot(FzMovups, 2, 0, 0, 0),  // movups xmm0, (rdi)
			}),
		// Lane-boundary arithmetic, the pxor zero idiom, and shift counts
		// at the lane width.
		seed("sse-fixed-point-edges", vec,
			[][]byte{
				fzSlot(FzPacked, 9, 2, 2),        // pxor xmm2, xmm2 (zero idiom)
				fzSlot(FzPackedShift, 0, 32, 1),  // pslld 32, xmm1
				fzSlot(FzPackedShift, 3, 64, 1),  // psrlq 64, xmm1
				fzSlot(FzPacked, 2, 0x80, 3, 0),  // pmullw (rdi), xmm3
				fzSlot(FzPacked, 0, 0, 0),        // paddw xmm0, xmm0
				fzSlot(FzShuffle, 1, 0x1b, 1, 2), // pshufd 0x1b, xmm1, xmm2
			}),
	)

	pad := defaultFzSnap()
	seeds = append(seeds,
		// Mostly-UNUSED padding with edits that grow, shrink and swap the
		// live slots — the skip-chain repair path of Patch.
		seed("unused-padding-patches", pad,
			[][]byte{
				fzSlot(FzUnused),
				fzSlot(FzUnused),
				fzSlot(FzALU, 0, 2, 0, 6),
				fzSlot(FzUnused),
				fzSlot(FzUnused),
				fzSlot(FzUnused),
				fzSlot(FzUnused),
				fzSlot(FzMovScalar, 0, 3, 7, 0),
				fzSlot(FzUnused),
				fzSlot(FzUnused),
				fzSlot(FzUnused),
				fzSlot(FzUnused),
			},
			fzEdit(4, fzSlot(FzPacked, 3, 0, 1)),
			fzEdit(2, fzSlot(FzUnused)),
			fzSwap(2, 7),
			fzEdit(9, fzSlot(FzDiv, 0, rsiReg)),
			fzSwap(9, 0),
		),
		// Liveness edges of the dead-flag elimination pass. Carry chain:
		// every CF must stay live into its adc consumer, and the edit that
		// turns the tail adc into a xor-zero kill flips the head add dead.
		seed("flags-adc-carry-chain", pad,
			[][]byte{
				fzSlot(FzALU, 0, 3, 0, 6), // addq rsi, rax (CF → adc)
				fzSlot(FzALU, 5, 3, 2, 1), // adcq rcx, rdx
				fzSlot(FzALU, 5, 3, 0, 1), // adcq rcx, rax
			},
			fzEdit(2, fzSlot(FzALU, 4, 3, 2, 2)), // xorq rdx, rdx: kill
			fzEdit(2, fzSlot(FzALU, 5, 3, 0, 1)), // adc back: re-liven
		),
		// inc writes PF|ZF|SF|OF but preserves CF: the cmp's carry must
		// stay live across it into the adc, while the inc's own writes are
		// dead; edits interpose a full kill and a no-flag not.
		seed("flags-inc-preserves-cf", pad,
			[][]byte{
				fzSlot(FzCmpTest, 0, 0, 7, 6), // cmpq rsi, rdi
				fzSlot(FzIncDec, 0, 3, 0),     // incq rax (CF untouched)
				fzSlot(FzALU, 5, 3, 1, 1),     // adcq rcx, rcx (reads CF)
			},
			fzEdit(1, fzSlot(FzIncDec, 3, 3, 0)), // notq rax: no flags at all
			fzEdit(1, fzSlot(FzALU, 4, 3, 5, 5)), // xorq rbp, rbp: kills CF
		),
		// A conditional jump whose successors disagree: the taken path
		// reaches a setcc with the cmp's flags live, the fall-through
		// kills them first — live-out of the cmp is the union.
		seed("flags-jcc-successors-disagree", pad,
			[][]byte{
				fzSlot(FzCmpTest, 0, 0, 7, 6), // cmpq rsi, rdi
				fzSlot(FzJcc, 0, 1),           // jcc .L1
				fzSlot(FzALU, 4, 3, 2, 2),     // xorq rdx, rdx: kill path
				fzSlot(FzLabel, 1),
				fzSlot(FzCmpTest, 2, 0, 1, 3), // setcc cl: live path
			},
			fzEdit(1, fzSlot(FzUnused)),    // delete the jump: relink, one path
			fzEdit(1, fzSlot(FzJcc, 0, 1)), // and re-create it
		),
		// Flags live across an UNUSED-padding run, with edits that drop a
		// kill into the padding, take it back out, and force a relink
		// while the producer's liveness depends on slots beyond the gap.
		seed("flags-live-across-padding", pad,
			[][]byte{
				fzSlot(FzCmpTest, 0, 0, 7, 6), // cmpq rsi, rdi
				fzSlot(FzUnused),
				fzSlot(FzUnused),
				fzSlot(FzUnused),
				fzSlot(FzUnused),
				fzSlot(FzCmpTest, 2, 0, 1, 3), // setcc cl
			},
			fzEdit(2, fzSlot(FzALU, 4, 3, 2, 2)), // kill inside the padding
			fzEdit(2, fzSlot(FzUnused)),          // and remove it again
			fzEdit(3, fzSlot(FzJcc, 0, 2)),       // relink across the gap
			fzEdit(3, fzSlot(FzUnused)),
		),
		// Control structure under patching: a conditional crossing a label,
		// edits that delete and re-create the jump (full relink path).
		seed("patch-control-relink", pad,
			[][]byte{
				fzSlot(FzCmpTest, 0, 0, 7, 6), // cmp
				fzSlot(FzJcc, 2, 1),           // jcc .L1
				fzSlot(FzALU, 0, 3, 0, 1),
				fzSlot(FzLabel, 1),
				fzSlot(FzALU, 1, 3, 0, 2),
				fzSlot(FzRet),
			},
			fzEdit(1, fzSlot(FzUnused)),
			fzSwap(3, 2),
			fzEdit(1, fzSlot(FzJcc, 5, 1)),
			fzEdit(5, fzSlot(FzALU, 2, 2, 4, 4)),
		),
	)

	// Register-liveness seeds: the deadness edges of the register pass,
	// each paired with a patch script that resurrects the dead write and
	// kills it again, so the patched/fresh selection comparison crosses
	// both transitions.
	rbpZero := defaultFzSnap()
	rbpZero.gprIdx[5] = fvZero // RBP: the zero divisor an edit switches to
	seeds = append(seeds,
		// 8/16-bit partial writes merge into untouched bytes, which makes
		// each narrow write a reader of its destination: the movb stays
		// live through the movw's merge read, and only the last narrow
		// write before the wide kill dies; edits swap the kill for another
		// narrow write (resurrect) and a 32-bit zero-extending one (kill).
		seed("regs-partial-write-merge-chain", defaultFzSnap(),
			[][]byte{
				fzSlot(FzRegLiveness, 0, 0, 0, 0x11), // movb $0x11, %al (live: merged below)
				fzSlot(FzRegLiveness, 1, 0, 0, 2),    // movw $2, %ax (dead)
				fzSlot(FzRegLiveness, 0, 1, 0, 0x22), // movb $0x22, %cl (live: read below)
				fzSlot(FzRegLiveness, 3, 0, 0, 1),    // movq %rcx, %rax: wide kill
			},
			fzEdit(3, fzSlot(FzRegLiveness, 0, 0, 0, 0x33)), // narrow again: resurrect
			fzEdit(3, fzSlot(FzRegLiveness, 2, 0, 0, 1)),    // movl %ecx, %eax: kill anew
		),
		// 32-bit writes zero-extend, so both the plain movl and the xorl
		// zero idiom are full kills of their 64-bit register; the swap
		// reverses which of the two movs is the dead one.
		seed("regs-zero-extend-kill", defaultFzSnap(),
			[][]byte{
				fzSlot(FzRegLiveness, 3, 0, 0, 6), // movq %rsi, %rax (dead)
				fzSlot(FzRegLiveness, 2, 0, 0, 1), // movl %ecx, %eax: zero-extend kill
				fzSlot(FzRegLiveness, 3, 2, 0, 6), // movq %rsi, %rdx (dead)
				fzSlot(FzRegLiveness, 4, 2, 0, 1), // xorl %edx, %edx: zero-idiom kill
			},
			fzSwap(0, 1),
			fzSwap(0, 1),
		),
		// A dead write resurrected by a Jcc whose label sits backward: the
		// forward-scan link resolves the taken edge to the program end, an
		// exit where every register is live — the relink edit flips the
		// mov from dead to live and the second edit flips it back.
		seed("regs-dead-write-jcc-resurrect", defaultFzSnap(),
			[][]byte{
				fzSlot(FzLabel, 1),
				fzSlot(FzRegLiveness, 3, 0, 0, 1), // movq %rcx, %rax (dead)
				fzSlot(FzUnused),
				fzSlot(FzRegLiveness, 2, 0, 0, 1), // movl %ecx, %eax: kill
			},
			fzEdit(2, fzSlot(FzJcc, 0, 1)), // jcc .L1 (backward → exit edge): resurrect
			fzEdit(2, fzSlot(FzUnused)),    // and back to dead
		),
		// DIV's implicit RAX:RDX defs die when both are overwritten before
		// any read — the div still reads RAX/RDX/divisor when suppressed.
		// Edits resurrect the RAX def via a reader, kill it again, and
		// switch to a zero divisor so the #DE accounting runs suppressed.
		seed("regs-div-implicit-defs", rbpZero,
			[][]byte{
				fzSlot(FzDiv, 0, rsiReg),          // divq %rsi
				fzSlot(FzRegLiveness, 4, 0, 0, 1), // xorl %eax, %eax
				fzSlot(FzRegLiveness, 4, 2, 0, 1), // xorl %edx, %edx
			},
			fzEdit(1, fzSlot(FzALU, 0, 3, 1, 0)),         // addq %rax, %rcx: resurrect
			fzEdit(1, fzSlot(FzRegLiveness, 4, 0, 0, 1)), // xorl back: dead again
			fzEdit(0, fzSlot(FzRegLiveness, 5, 0, 5, 0)), // divq %rbp: #DE while dead
		),
		// Dead XMM writes: packed arithmetic killed by the pxor zero
		// idiom, a shuffle killed by a vector load, and a cross-file movd;
		// the edit makes the consumer read the dead destination.
		seed("regs-dead-xmm-lanes", defaultFzSnap(),
			[][]byte{
				fzSlot(FzPacked, 0, 0, 1),         // paddw xmm0, xmm1 (dead)
				fzSlot(FzRegLiveness, 6, 0, 0, 1), // pxor xmm1, xmm1: kill
				fzSlot(FzShuffle, 1, 0x1b, 0, 2),  // pshufd 0x1b, xmm0, xmm2 (dead)
				fzSlot(FzMovups, 1, 0, 4, 0),      // movups (rdi), xmm2: load kill
				fzSlot(FzRegLiveness, 7, 0, 3, 1), // movd %xmm3, %eax
			},
			fzEdit(1, fzSlot(FzPacked, 3, 1, 2)),         // paddd xmm1, xmm2: resurrect
			fzEdit(1, fzSlot(FzRegLiveness, 6, 0, 0, 1)), // pxor back: dead again
		),
	)

	// Control-flow edge seeds (named batch-* after the lockstep evaluator
	// they were first written for; the names stay so the checked-in corpus
	// files keep matching). Each pins a scalar edge of the compiled
	// pipeline against the interpreter and against a fresh compile: a jcc
	// on partially-defined input flags, a #DE that continues in line
	// followed by a jcc, and a jump deleted and recreated by patch edits.
	jflags := defaultFzSnap()
	jflags.flagsDef = 0x0a // jcc straight on a partially-defined flag word
	de := defaultFzSnap()
	de.gprIdx[0] = fvThree // RAX dividend
	de.gprIdx[2] = fvZero  // RDX high half: quotient fits
	de.gprIdx[5] = fvZero  // RBP divisor: zero, so the divide faults
	seeds = append(seeds,
		// The first slot branches on input flags that are only partially
		// defined, so the jcc itself reads undefined flags and must charge
		// them exactly as the interpreter does.
		seed("batch-jcc-on-input-flags", jflags,
			[][]byte{
				fzSlot(FzJcc, 0, 1),       // jcc .L1 on the input flags
				fzSlot(FzALU, 0, 3, 0, 6), // addq rsi, rax (fall-through side)
				fzSlot(FzLabel, 1),
				fzSlot(FzALU, 1, 3, 0, 7), // subq rdi, rax (join)
			}),
		// #DE with a zero divisor: the fault is counted and execution
		// continues in line, and the jcc after it reads the flags the
		// faulting divide left behind.
		seed("batch-divergent-de", de,
			[][]byte{
				fzSlot(FzDiv, 0, 5),       // divq rbp
				fzSlot(FzJcc, 4, 2),       // jcc .L2 on the post-div flags
				fzSlot(FzIncDec, 0, 3, 0), // incq rax
				fzSlot(FzLabel, 2),
				fzSlot(FzMovScalar, 3, 2, 0, 16), // movl eax, 16(rdi)
			}),
		// Two jccs in sequence, joined at .L1; the edits delete and
		// re-create the first jump, so Patch must unlink and relink its
		// target and the same program runs with and without the branch.
		seed("batch-peel-resplit", defaultFzSnap(),
			[][]byte{
				fzSlot(FzCmpTest, 0, 0, 7, 6), // cmpq rsi, rdi
				fzSlot(FzJcc, 0, 1),           // jcc .L1
				fzSlot(FzALU, 0, 3, 0, 6),     // addq rsi, rax
				fzSlot(FzLabel, 1),
				fzSlot(FzCmpTest, 0, 0, 0, 6), // cmpq rsi, rax
				fzSlot(FzJcc, 3, 2),           // jcc .L2 after the join
				fzSlot(FzIncDec, 2, 3, 0),     // negq rax
				fzSlot(FzLabel, 2),
				fzSlot(FzCmpTest, 2, 0, 1, 3), // setcc cl
			},
			fzEdit(1, fzSlot(FzUnused)),    // delete the first jump: fall through to .L1
			fzEdit(1, fzSlot(FzJcc, 0, 1)), // and re-create it
		),
	)

	// Memory-addressing seeds for the symbolic validator's base+offset
	// address normal form: same-base accesses of different widths must
	// resolve byte by byte, distinct base registers must stay symbolic
	// even when they alias, and int8 displacements must sign-extend and
	// wrap modulo 2^64 exactly as the emulator computes them.
	overlap := defaultFzSnap()
	overlap.gprIdx[1] = fvInt32Max // RCX: bytes ff ff ff 7f 00 ..
	overlap.rdi = 32
	alias := defaultFzSnap()
	alias.gprIdx[1] = fvInt32Max
	alias.rdi, alias.rsi = 40, 32 // rdi == rsi+8
	wrap := defaultFzSnap()
	wrap.gprIdx[1] = fvInt32Max
	wrap.rdi, wrap.rsi = 8, 0
	seeds = append(seeds,
		// A qword store and a dword load two bytes into it, both off rdi;
		// edits narrow the load and then stretch it past the store into
		// initial memory.
		seed("mem-same-base-overlap-width", overlap,
			[][]byte{
				fzSlot(FzMovScalar, 3, 3, 2, 0xf8), // movq rcx, -8(rdi)
				fzSlot(FzMovScalar, 2, 2, 0, 0xfa), // movl -6(rdi), eax
			},
			fzEdit(1, fzSlot(FzMovScalar, 2, 1, 0, 0xf9)), // movw -7(rdi), ax
			fzEdit(1, fzSlot(FzMovScalar, 2, 3, 0, 0xfc)), // movq -4(rdi), rax
		),
		// rdi == rsi+8: the load 8(rsi) reads exactly what (rdi) stored,
		// through two different base registers; edits reorder the pair and
		// shift the store half a qword off the load.
		seed("mem-rdi-rsi-alias-disp", alias,
			[][]byte{
				fzSlot(FzMovScalar, 3, 3, 2, 0), // movq rcx, (rdi)
				fzSlot(FzMovScalar, 2, 3, 1, 8), // movq 8(rsi), rax
			},
			fzSwap(0, 1),
			fzSwap(0, 1),
			fzEdit(0, fzSlot(FzMovScalar, 3, 3, 2, 4)), // movq rcx, 4(rdi)
		),
		// Displacement bytes at the int8 boundaries: 0xff is -1, so the
		// qword store's second byte wraps to offset 0 of rdi; 0x7f is +127,
		// the last byte of the segment off rsi.
		seed("mem-int8-disp-wrap", wrap,
			[][]byte{
				fzSlot(FzMovScalar, 3, 3, 2, 0xff), // movq rcx, -1(rdi)
				fzSlot(FzMovScalar, 2, 2, 0, 0),    // movl (rdi), eax
				fzSlot(FzMovScalar, 2, 0, 5, 0x7f), // movb 127(rsi), dl
			},
			fzEdit(1, fzSlot(FzMovScalar, 2, 2, 0, 0xff)), // movl -1(rdi), eax
		),
	)

	// Memory-operand seeds for the compiled pipeline's memory-aware
	// handlers (FzMemOp): read-modify-write destinations resolve their
	// address twice, as the interpreter does, so undef and sigsegv
	// accounting on both the load and the store is what these pin.
	undefBase := defaultFzSnap()
	undefBase.gprIdx[7] = 0x80  // RDI: a pointer to the segment start...
	undefBase.rdi = 0x80        // ...kept as the table value...
	undefBase.regDef &^= 1 << 7 // ...and undefined
	unmapped := defaultFzSnap()
	unmapped.gprIdx[6] = fvAllOnes // RSI: far outside the segment
	unmapped.rsi = 0x80
	clZero := defaultFzSnap()
	clZero.gprIdx[1] = fvZero // RCX: a zero CL shift count
	undefCF := defaultFzSnap()
	undefCF.flagsDef = byte(x64.AllFlags &^ x64.CF)
	seeds = append(seeds,
		// Every memory access goes through an undefined base register:
		// an RMW add counts the undefined read on its load and its store.
		seed("mem-undef-base", undefBase,
			[][]byte{
				fzSlot(FzMemOp, 0, 3, 0, 8),  // addq rax, 8(rdi)
				fzSlot(FzMemOp, 6, 2, 2, 16), // popcntq 16(rdi), rcx
				fzSlot(FzMemOp, 3, 0, 0, 24), // sete 24(rdi)
			},
			fzEdit(0, fzSlot(FzMemOp, 7, 3, 2, 0)), // adcq (rdi), rcx
		),
		// Accesses through an address no segment maps: each RMW faults on
		// its load and again on its store.
		seed("mem-unmapped-address", unmapped,
			[][]byte{
				fzSlot(FzMemOp, 1, 2, 1, 4),      // incl 4(rsi)
				fzSlot(FzMemOp, 10, 3, 7, 0),     // shrq 3, (rsi)
				fzSlot(FzMemOp, 15, 1, 5, 0),     // sbbw (rsi), dx
				fzSlot(FzMemOp, 4|2<<3, 3, 1, 0), // cmpq (rsi), rax
			},
			fzSwap(0, 3),
		),
		// 1- and 2-byte memory operands: narrow RMW ALU, negation, sign
		// extension and popcnt from memory.
		seed("mem-narrow-widths", defaultFzSnap(),
			[][]byte{
				fzSlot(FzMemOp, 1<<3, 0, 2, 3),     // subb cl, 3(rdi)
				fzSlot(FzMemOp, 3<<3, 0x81, 11, 6), // orw $0x80, 6(rsi)
				fzSlot(FzMemOp, 1|2<<3, 0, 0, 1),   // negb 1(rdi)
				fzSlot(FzMemOp, 6|1<<3, 1, 0, 2),   // movsbl 2(rdi), eax
				fzSlot(FzMemOp, 6|1<<3, 3, 7, 4),   // movswl 4(rsi), ebx
				fzSlot(FzMemOp, 6, 0, 4, 8),        // popcntw 8(rdi), dx
			},
			fzEdit(0, fzSlot(FzMemOp, 4<<3, 1, 2, 3)), // xorw cx, 3(rdi)
		),
		// Shifts of memory by CL and by immediates whose masked count is
		// zero: the store still happens, the flags stay untouched (the
		// setb reads the incoming CF); the edit makes CL 32, zero again
		// after masking for the 32-bit rotate.
		seed("mem-shift-cl-zero-count", clZero,
			[][]byte{
				fzSlot(FzMemOp, 2, 0x83, 0, 0),      // shlq cl, (rdi) with CL = 0
				fzSlot(FzMemOp, 3, 4, 0, 8),         // setb 8(rdi)
				fzSlot(FzMemOp, 2|2<<3, 1, 1, 2),    // sarw 0, 2(rsi)
				fzSlot(FzRegLiveness, 0, 1, 0, 5),   // movb 5, cl
				fzSlot(FzMemOp, 2|3<<3, 0x80, 0, 3), // rolb cl, 3(rdi)
				fzSlot(FzMemOp, 2|4<<3, 0x82, 1, 4), // rorl cl, 4(rsi)
			},
			fzEdit(3, fzSlot(FzRegLiveness, 0, 1, 0, 32)), // movb 32, cl
		),
		// adc/sbb against memory with CF undefined on entry: each carry
		// read counts; the edit defines CF first with a cmp, then the
		// next edit undoes it.
		seed("mem-adc-sbb-undef-cf", undefCF,
			[][]byte{
				fzSlot(FzMemOp, 5<<3, 3, 12, 0),   // adcq rsi, (rdi)
				fzSlot(FzMemOp, 6<<3, 0x82, 3, 8), // sbbl $1, 8(rsi)
				fzSlot(FzMemOp, 7, 1, 1, 16),      // adcw 16(rsi), ax
				fzSlot(FzMemOp, 15, 0, 2, 24),     // sbbb 24(rdi), cl
			},
			fzEdit(0, fzSlot(FzCmpTest, 0, 0, 7, 6)), // cmpq rsi, rdi
			fzEdit(0, fzSlot(FzMemOp, 5<<3, 3, 12, 0)),
		),
		// setcc to memory on flags from memory compares, between the
		// memory-source multiplies; edits change the condition and swap
		// a multiply in front of the compare that feeds it.
		seed("mem-setcc", defaultFzSnap(),
			[][]byte{
				fzSlot(FzMemOp, 4, 0x82, 6, 4),     // cmpl $3, 4(rdi)
				fzSlot(FzMemOp, 3, 1, 0, 12),       // setne 12(rdi)
				fzSlot(FzMemOp, 4|1<<3, 1, 1, 2),   // testw ax, 2(rsi)
				fzSlot(FzMemOp, 3, 6, 1, 0),        // setg (rsi)
				fzSlot(FzMemOp, 5|2<<3, 1, 0, 8),   // mull 8(rdi)
				fzSlot(FzMemOp, 5|1<<3, 1, 10, 16), // imull $0x80, 16(rdi), ebp
			},
			fzEdit(1, fzSlot(FzMemOp, 3, 4, 0, 12)), // setb 12(rdi)
			fzSwap(0, 4),
		),
	)
	return seeds
}
