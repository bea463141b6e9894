package testgen

// Seed corpus for the emulator's differential fuzz targets: hand-picked
// scenarios covering the edges the DIV/IDIV and SSE lowering hinges on —
// divide faults (#DE on zero divisors, 128/64 quotient overflow,
// INT_MIN/-1), the denormal-free fixed-point lane boundaries of the SSE
// subset, UNUSED-slot padding, and patch scripts that cross the control
// relink path. The encoder here mirrors DecodeFuzzCase's layout byte for
// byte (fixed-width slots make drift impossible); corpus_test.go decodes
// every seed and asserts it still exercises the edge it is named for.

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
	// kills it again, so the patched/fresh/batched selection comparison
	// crosses both transitions.
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

	// Batched-evaluator divergence seeds. The batched fuzz target perturbs
	// registers, flags, and definedness per lane, so these shapes make the
	// lockstep loop split at a conditional jump, fault on a strict subset
	// of lanes, and re-split on the peeled majority.
	jflags := defaultFzSnap()
	jflags.flagsDef = 0x0a // jcc straight on a partially-defined flag word
	de := defaultFzSnap()
	de.gprIdx[0] = fvThree // RAX dividend
	de.gprIdx[2] = fvZero  // RDX high half: quotient fits
	de.gprIdx[5] = fvZero  // RBP divisor: zero except on the lane that perturbs it
	seeds = append(seeds,
		// The first slot branches on the input flags, which vary (in value
		// and definedness) across lanes: an immediate two-way split plus
		// per-lane undef accounting at the jcc itself.
		seed("batch-jcc-on-input-flags", jflags,
			[][]byte{
				fzSlot(FzJcc, 0, 1),       // jcc .L1 on the input flags
				fzSlot(FzALU, 0, 3, 0, 6), // addq rsi, rax (fall-through side)
				fzSlot(FzLabel, 1),
				fzSlot(FzALU, 1, 3, 0, 7), // subq rdi, rax (join)
			}),
		// #DE on most lanes but not all: the divisor register is zero in
		// the base snapshot and nonzero on the lane that perturbs RBP. The
		// fault continues in line — the batch must NOT split — and the jcc
		// after it reads flags that are defined (zeroed) on faulting lanes
		// and undefined on the surviving one.
		seed("batch-divergent-de", de,
			[][]byte{
				fzSlot(FzDiv, 0, 5),       // divq rbp
				fzSlot(FzJcc, 4, 2),       // jcc .L2 on the post-div flags
				fzSlot(FzIncDec, 0, 3, 0), // incq rax
				fzSlot(FzLabel, 2),
				fzSlot(FzMovScalar, 3, 2, 0, 16), // movl eax, 16(rdi)
			}),
		// Two splits in sequence: the peel survivors rejoin at .L1 and must
		// split again at the second jcc; edits delete and re-create the
		// first jump so the same program runs both pure-lockstep and
		// peeled.
		seed("batch-peel-resplit", defaultFzSnap(),
			[][]byte{
				fzSlot(FzCmpTest, 0, 0, 7, 6), // cmpq rsi, rdi
				fzSlot(FzJcc, 0, 1),           // jcc .L1: first split
				fzSlot(FzALU, 0, 3, 0, 6),     // addq rsi, rax
				fzSlot(FzLabel, 1),
				fzSlot(FzCmpTest, 0, 0, 0, 6), // cmpq rsi, rax
				fzSlot(FzJcc, 3, 2),           // jcc .L2: re-split after the join
				fzSlot(FzIncDec, 2, 3, 0),     // negq rax
				fzSlot(FzLabel, 2),
				fzSlot(FzCmpTest, 2, 0, 1, 3), // setcc cl
			},
			fzEdit(1, fzSlot(FzUnused)),    // delete the first split: lockstep to .L1
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
	return seeds
}
