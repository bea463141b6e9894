// Package emu implements a sandboxed emulator for the x64 subset ISA with a
// two-phase, decode-once evaluation pipeline.
//
// It plays the role of the hardware emulator in §4.1 of the paper: candidate
// rewrites are run against testcases at high throughput, and the three
// classes of undefined behaviour the cost function penalises are trapped and
// counted rather than allowed to crash the process — dereferences outside
// the sandbox (sigsegv), divide faults (sigfpe), and reads from undefined
// registers, flags or memory (undef). Invalid dereferences read as constant
// zero and invalid stores are dropped, exactly as described in §5.1.
//
// Execution comes in two forms:
//
//   - Machine.Run interprets an *x64.Program directly, re-decoding each
//     instruction through the opcode switch on every execution. It is the
//     semantic reference: simple, obviously faithful, and kept alive so the
//     differential tests can pin the fast path against it.
//   - Compile lowers a program once into a *Compiled — per-slot handlers
//     with operands, widths, masks and jump targets pre-resolved — and
//     Machine.RunCompiled dispatches over that form. The MCMC search
//     evaluates millions of candidates that differ in at most two slots
//     from their predecessor, so Compiled supports O(1) slot patching
//     instead of recompilation (see compile.go). Every shape of the opcode
//     signature table, memory operands included, lowers to a specialised
//     handler; only instructions built outside that table reach the
//     interpreting fallback (GenericDispatches counts them). A backward
//     liveness pass over one packed set of flags, GPRs and XMMs per slot
//     additionally suppresses the flag computation of slots whose writes
//     no condition consumer or exit can observe (the nf bit), and the
//     register stores of slots none of whose written registers or flags is
//     live-out (the nr bit and the mkDead* codes), re-selecting both
//     incrementally as patches shift liveness (see liveness.go).
//
// Both forms agree on every observable (Outcome counters, registers, flags,
// memory, definedness); randomized differential tests enforce this. Under
// CompileLive the exit observation narrows to a kernel's live-out masks:
// final values and definedness of non-live registers may then differ from
// a full run, while every cost observable — live-out state, memory, flags
// at reads, the error counters — is preserved.
//
// A testcase's memory is a list of MemImage segments whose definedness and
// sandbox planes are bitsets in the machine's own layout, so a snapshot
// load copies bytes and definedness words and shares the sandbox plane,
// and a reload of the same snapshot restores only the bytes stores
// dirtied. Execution never writes a snapshot.
package emu

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/x64"
)

// MemImage describes one contiguous memory segment of a testcase: its
// contents, which bytes hold defined data, and which bytes are inside the
// sandbox (dereferenceable because the target dereferenced them). Def and
// Valid are bitsets in the machine's own layout (bit i covers byte Base+i,
// padded to bitWords(len(Data)) words): a snapshot load copies Def and
// shares both planes, Valid as the segment's sandbox and Def as the source
// cached reloads restore from. Build images with NewMemImage.
type MemImage struct {
	Base  uint64
	Data  []byte
	Def   Bits
	Valid Bits
}

// Bits is one per-byte plane of a MemImage.
type Bits []uint64

// NewMemImage returns a zeroed size-byte image at base whose bytes are all
// undefined and outside the sandbox.
func NewMemImage(base uint64, size int) MemImage {
	w := bitWords(size)
	planes := make(Bits, 2*w)
	return MemImage{Base: base, Data: make([]byte, size), Def: planes[:w:w], Valid: planes[w:]}
}

// Set sets bit i.
func (b Bits) Set(i int) { b[i/64] |= 1 << (i % 64) }

// SetRange sets bits [lo, hi), whole words at a time where it can.
func (b Bits) SetRange(lo, hi int) {
	for ; lo < hi && lo%64 != 0; lo++ {
		b.Set(lo)
	}
	for ; lo+64 <= hi; lo += 64 {
		b[lo/64] = ^uint64(0)
	}
	for ; lo < hi; lo++ {
		b.Set(lo)
	}
}

// Has reports whether bit i is set.
func (b Bits) Has(i int) bool { return b[i/64]>>(i%64)&1 == 1 }

// Clone returns a deep copy of the image.
func (im MemImage) Clone() MemImage {
	out := MemImage{Base: im.Base}
	out.Data = append([]byte(nil), im.Data...)
	out.Def = append(Bits(nil), im.Def...)
	out.Valid = append(Bits(nil), im.Valid...)
	return out
}

// Snapshot is a complete initial machine state: a testcase input in the
// sense of §5.1 (registers, flags, and the first-dereferenced memory values
// recorded by instrumentation).
type Snapshot struct {
	Regs     [x64.NumGPR]uint64
	RegDef   uint16 // bitset: which registers hold defined data
	Xmm      [x64.NumXMM][2]uint64
	XmmDef   uint16
	Flags    x64.FlagSet
	FlagsDef x64.FlagSet
	Mem      []MemImage
}

// Clone returns a deep copy of the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	out := *s
	out.Mem = make([]MemImage, len(s.Mem))
	for i, im := range s.Mem {
		out.Mem[i] = im.Clone()
	}
	return &out
}

// segment is the machine's mutable view of one MemImage. Definedness and
// sandbox validity are kept as bitsets (one bit per byte), so the per-access
// checks of loadBytes/storeBytes are one or two word operations instead of
// byte loops — the sandbox accounting was the hottest path of the
// memory-bound kernels. dirtyLo/dirtyHi bound the bytes stores have touched
// since the last snapshot load (empty when dirtyHi <= dirtyLo), so a cached
// reload restores only that range from the snapshot's Def plane; valid
// aliases the snapshot's Valid plane, which execution never writes, and
// needs no restore at all.
type segment struct {
	base    uint64
	data    []byte
	def     []uint64
	valid   []uint64
	dirtyLo int
	dirtyHi int
}

// bitWords returns the bitset length for n bytes, padded by one word so
// two-word extractions near the end never bounds-check out.
func bitWords(n int) int { return n/64 + 2 }

// allSet reports whether bits [off, off+n) are all one (n <= 48).
func allSet(bits []uint64, off uint64, n int) bool {
	i, b := off/64, off%64
	v := bits[i] >> b
	if b+uint64(n) > 64 {
		v |= bits[i+1] << (64 - b)
	}
	mask := uint64(1)<<n - 1
	return v&mask == mask
}

// setBits sets bits [off, off+n) (n <= 48).
func setBits(bits []uint64, off uint64, n int) {
	i, b := off/64, off%64
	mask := uint64(1)<<n - 1
	bits[i] |= mask << b
	if b+uint64(n) > 64 {
		bits[i+1] |= mask >> (64 - b)
	}
}

// Outcome summarises one execution.
type Outcome struct {
	Steps   int
	SigSegv int // dereferences outside the sandbox
	SigFpe  int // divide faults
	Undef   int // reads of undefined registers, flags or memory bytes
	Exhaust bool
}

// Machine is a reusable interpreter. A Machine is not safe for concurrent
// use; each search thread owns one.
type Machine struct {
	Regs     [x64.NumGPR]uint64
	RegDef   uint16
	Xmm      [x64.NumXMM][2]uint64
	XmmDef   uint16
	Flags    x64.FlagSet
	FlagsDef x64.FlagSet

	segs []segment

	// Error counters for the current run.
	sigsegv int
	sigfpe  int
	undef   int

	// MaxSteps bounds one execution; the default covers any loop-free
	// sequence of the paper's length plus slack.
	MaxSteps int

	// trace, when non-nil, records every segment byte the program
	// dereferences. It stands in for the PinTool instrumentation of §5.1:
	// the addresses the target touches define the sandbox for rewrites.
	trace *Trace

	// lastSnap and memDirty drive LoadSnapshotCached: when the machine is
	// pinned to one testcase (the compiled evaluation pipeline runs one
	// machine per testcase) and the last execution never stored to memory,
	// reloading the same snapshot skips the segment copies entirely.
	lastSnap *Snapshot
	memDirty bool

	// regsWritten is the bitset of GPRs written since the last snapshot
	// load; the cached reload restores exactly those instead of copying
	// the whole register file. Every GPR mutation path (writeGPR, the
	// compiled setReg, and the direct rsp updates of push/pop) records
	// into it. xmmWritten is the same bitset for the XMM file, so an SSE
	// candidate that touches one vector register restores 16 bytes on
	// reload, not 256.
	regsWritten uint16
	xmmWritten  uint16

	// segCache is the index of the segment the last dereference hit.
	segCache int

	// xmmRestores counts individual XMM register restores performed by
	// LoadSnapshotCached over the machine's lifetime — a white-box
	// diagnostic for the dirty-tracking regression tests.
	xmmRestores int

	// generic counts compiled-slot executions that fell back to the
	// interpreting handler (the opcode-switch path the decode-once
	// pipeline exists to avoid). The dispatch-counter tests pin it to
	// zero on the tracked kernels.
	generic int
}

// Trace records the bytes an instrumented run dereferenced, as one read and
// one write bitset per memory segment: bit i of Reads[s] is set when the
// run loaded byte Base+i of the loaded snapshot's segment s. The machine
// sizes and clears both when it loads a snapshot with the trace installed
// (and when the trace is installed), so the record covers the run since
// the last load. An access that fits in no segment faults and is not
// recorded: every address that can enter a testcase lies in a segment.
type Trace struct {
	Reads  [][]uint64
	Writes [][]uint64
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// reset gives the trace one cleared bitset pair per segment, reusing the
// bitsets of the last run when the segment shapes match.
func (t *Trace) reset(segs []segment) {
	if len(t.Reads) != len(segs) {
		t.Reads = make([][]uint64, len(segs))
		t.Writes = make([][]uint64, len(segs))
	}
	for i := range segs {
		if w := bitWords(len(segs[i].data)); len(t.Reads[i]) != w {
			t.Reads[i] = make([]uint64, w)
			t.Writes[i] = make([]uint64, w)
			continue
		}
		clear(t.Reads[i])
		clear(t.Writes[i])
	}
}

// SetTrace installs (or, with nil, removes) instrumentation on the machine.
func (m *Machine) SetTrace(t *Trace) {
	m.trace = t
	if t != nil {
		t.reset(m.segs)
	}
}

// New returns a machine with an empty address space.
func New() *Machine {
	return &Machine{MaxSteps: 4096}
}

// LoadSnapshot resets the machine to the given initial state, reusing
// existing segment storage when shapes match (the hot path re-runs the same
// testcases millions of times). Each segment copies the image's bytes and
// Def words and aliases its Valid plane; execution writes neither plane.
func (m *Machine) LoadSnapshot(s *Snapshot) {
	m.Regs = s.Regs
	m.RegDef = s.RegDef
	m.Xmm = s.Xmm
	m.XmmDef = s.XmmDef
	m.Flags = s.Flags
	m.FlagsDef = s.FlagsDef
	m.sigsegv, m.sigfpe, m.undef = 0, 0, 0

	if len(m.segs) != len(s.Mem) {
		m.segs = make([]segment, len(s.Mem))
	}
	for i := range s.Mem {
		im := &s.Mem[i]
		w := bitWords(len(im.Data))
		if len(im.Def) != w || len(im.Valid) != w {
			panic(fmt.Sprintf("emu: segment %d has %d/%d plane words, want %d (build images with NewMemImage)",
				i, len(im.Def), len(im.Valid), w))
		}
		sg := &m.segs[i]
		if sg.base != im.Base || len(sg.data) != len(im.Data) {
			sg.base = im.Base
			sg.data = make([]byte, len(im.Data))
			sg.def = make([]uint64, w)
		}
		copy(sg.data, im.Data)
		copy(sg.def, im.Def)
		sg.valid = im.Valid
		sg.dirtyLo, sg.dirtyHi = len(sg.data), 0
	}
	m.lastSnap = s
	m.memDirty = false
	m.regsWritten = 0
	m.xmmWritten = 0
	if m.trace != nil {
		m.trace.reset(m.segs)
	}
}

// LoadSnapshotCached is LoadSnapshot for a machine pinned to one testcase:
// when s is the snapshot loaded last time, only registers, flags and fault
// counters are restored (and the XMM file only if an XMM write dirtied
// it), plus the byte range stores dirtied, copied back from the image's
// Data and Def. The caller must treat a snapshot's contents as immutable
// while reusing it this way (testcase snapshots are).
func (m *Machine) LoadSnapshotCached(s *Snapshot) {
	if m.lastSnap != s {
		m.LoadSnapshot(s)
		return
	}
	if m.memDirty {
		for i := range m.segs {
			sg := &m.segs[i]
			if sg.dirtyHi <= sg.dirtyLo {
				continue
			}
			im := &s.Mem[i]
			copy(sg.data[sg.dirtyLo:sg.dirtyHi], im.Data[sg.dirtyLo:sg.dirtyHi])
			lo, hi := sg.dirtyLo/64, sg.dirtyHi/64+1
			copy(sg.def[lo:hi], im.Def[lo:hi])
			sg.dirtyLo, sg.dirtyHi = len(sg.data), 0
		}
		m.memDirty = false
	}
	for w := m.regsWritten; w != 0; w &= w - 1 {
		r := bits.TrailingZeros16(w)
		m.Regs[r] = s.Regs[r]
	}
	m.regsWritten = 0
	m.RegDef = s.RegDef
	for w := m.xmmWritten; w != 0; w &= w - 1 {
		r := bits.TrailingZeros16(w)
		m.Xmm[r] = s.Xmm[r]
		m.xmmRestores++
	}
	m.xmmWritten = 0
	m.XmmDef = s.XmmDef
	m.Flags = s.Flags
	m.FlagsDef = s.FlagsDef
	m.sigsegv, m.sigfpe, m.undef = 0, 0, 0
	if m.trace != nil {
		m.trace.reset(m.segs)
	}
}

// findSeg returns the segment containing [addr, addr+n), or nil. The last
// hit is cached: -O0 code streams stack accesses, so consecutive
// dereferences overwhelmingly land in one segment (the cache changes
// nothing observable, only the scan). After a hit, m.segCache is the
// returned segment's index.
func (m *Machine) findSeg(addr uint64, n int) *segment {
	if m.segCache < len(m.segs) {
		sg := &m.segs[m.segCache]
		if addr >= sg.base && addr-sg.base+uint64(n) <= uint64(len(sg.data)) {
			return sg
		}
	}
	for i := range m.segs {
		sg := &m.segs[i]
		if addr >= sg.base && addr-sg.base+uint64(n) <= uint64(len(sg.data)) {
			m.segCache = i
			return sg
		}
	}
	return nil
}

// loadBytes reads n bytes at addr under the sandbox discipline: any byte
// outside the sandbox makes the whole access fault (counted once) and the
// access reads as zero; undefined bytes count one undef read.
func (m *Machine) loadBytes(addr uint64, n int, out []byte) {
	sg := m.findSeg(addr, n)
	if sg == nil {
		m.sigsegv++
		for i := 0; i < n; i++ {
			out[i] = 0
		}
		return
	}
	off := addr - sg.base
	if m.trace != nil {
		setBits(m.trace.Reads[m.segCache], off, n)
	}
	if !allSet(sg.valid, off, n) {
		m.sigsegv++
		for i := 0; i < n; i++ {
			out[i] = 0
		}
		return
	}
	copy(out, sg.data[off:off+uint64(n)])
	if !allSet(sg.def, off, n) {
		m.undef++
	}
}

// storeBytes writes n bytes at addr; stores outside the sandbox are dropped
// after counting a fault.
func (m *Machine) storeBytes(addr uint64, n int, in []byte) {
	sg := m.findSeg(addr, n)
	if sg == nil {
		m.sigsegv++
		return
	}
	off := addr - sg.base
	if m.trace != nil {
		setBits(m.trace.Writes[m.segCache], off, n)
	}
	if !allSet(sg.valid, off, n) {
		m.sigsegv++
		return
	}
	copy(sg.data[off:off+uint64(n)], in[:n])
	setBits(sg.def, off, n)
	if int(off) < sg.dirtyLo {
		sg.dirtyLo = int(off)
	}
	if int(off)+n > sg.dirtyHi {
		sg.dirtyHi = int(off) + n
	}
	m.memDirty = true
}

// load reads an n-byte little-endian value (n <= 8). The untraced path
// reads straight out of the segment (no intermediate buffer, word-wide
// sandbox checks); instrumented runs take the recording loadBytes path.
func (m *Machine) load(addr uint64, n int) uint64 {
	if m.trace == nil {
		sg := m.findSeg(addr, n)
		if sg == nil {
			m.sigsegv++
			return 0
		}
		off := addr - sg.base
		if !allSet(sg.valid, off, n) {
			m.sigsegv++
			return 0
		}
		if !allSet(sg.def, off, n) {
			m.undef++
		}
		switch n {
		case 8:
			return binary.LittleEndian.Uint64(sg.data[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(sg.data[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(sg.data[off:]))
		default:
			return uint64(sg.data[off])
		}
	}
	var buf [8]byte
	m.loadBytes(addr, n, buf[:n])
	v := uint64(0)
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v
}

// store writes an n-byte little-endian value (n <= 8), with the same
// direct untraced path as load.
func (m *Machine) store(addr uint64, n int, v uint64) {
	if m.trace == nil {
		sg := m.findSeg(addr, n)
		if sg == nil {
			m.sigsegv++
			return
		}
		off := addr - sg.base
		if !allSet(sg.valid, off, n) {
			m.sigsegv++
			return
		}
		switch n {
		case 8:
			binary.LittleEndian.PutUint64(sg.data[off:], v)
		case 4:
			binary.LittleEndian.PutUint32(sg.data[off:], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(sg.data[off:], uint16(v))
		default:
			sg.data[off] = byte(v)
		}
		setBits(sg.def, off, n)
		if int(off) < sg.dirtyLo {
			sg.dirtyLo = int(off)
		}
		if int(off)+n > sg.dirtyHi {
			sg.dirtyHi = int(off) + n
		}
		m.memDirty = true
		return
	}
	var buf [8]byte
	for i := 0; i < n; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	m.storeBytes(addr, n, buf[:n])
}

// MemByte returns the current contents and definedness of one byte, for
// cost-function comparison of live memory outputs.
func (m *Machine) MemByte(addr uint64) (b byte, defined, ok bool) {
	sg := m.findSeg(addr, 1)
	if sg == nil {
		return 0, false, false
	}
	off := addr - sg.base
	return sg.data[off], sg.def[off/64]>>(off%64)&1 == 1, true
}

// RegValue returns the current value of a register viewed at width bytes.
func (m *Machine) RegValue(r x64.Reg, width uint8) uint64 {
	return m.Regs[r] & widthMask(width)
}

// effectiveAddr computes base + index*scale + disp, counting undefined
// address registers.
func (m *Machine) effectiveAddr(o x64.Operand) uint64 {
	var a uint64
	if o.Base != x64.NoReg {
		m.undef += int(^m.RegDef >> o.Base & 1)
		a += m.Regs[o.Base]
	}
	if o.Index != x64.NoReg {
		m.undef += int(^m.RegDef >> o.Index & 1)
		a += m.Regs[o.Index] * uint64(o.Scale)
	}
	return a + uint64(int64(o.Disp))
}

func widthMask(w uint8) uint64 {
	switch w {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	case 4:
		return 0xffffffff
	case 8:
		return ^uint64(0)
	}
	return 0
}

func widthBits(w uint8) uint { return uint(w) * 8 }

func signBit(w uint8) uint64 { return 1 << (widthBits(w) - 1) }

// readGPR reads a register view, counting undefined reads (branch-free:
// definedness is data-dependent on the search workload and mispredicts).
func (m *Machine) readGPR(r x64.Reg, w uint8) uint64 {
	m.undef += int(^m.RegDef >> r & 1)
	return m.Regs[r] & widthMask(w)
}

// writeGPR writes a register view with hardware merge semantics: 32-bit
// writes zero the upper half; 8- and 16-bit writes merge — and merging
// with an undefined register reads its undefined upper bits, which counts
// against the undef term just like any other undefined read.
func (m *Machine) writeGPR(r x64.Reg, w uint8, v uint64) {
	m.regsWritten |= 1 << r
	switch w {
	case 8:
		m.Regs[r] = v
	case 4:
		m.Regs[r] = v & 0xffffffff
	case 2:
		m.undef += int(^m.RegDef >> r & 1)
		m.Regs[r] = m.Regs[r]&^uint64(0xffff) | v&0xffff
	case 1:
		m.undef += int(^m.RegDef >> r & 1)
		m.Regs[r] = m.Regs[r]&^uint64(0xff) | v&0xff
	}
	m.RegDef |= 1 << r
}

// readOperand reads a GPR, immediate or memory operand as a value masked to
// its width.
func (m *Machine) readOperand(o x64.Operand) uint64 {
	switch o.Kind {
	case x64.KindReg:
		return m.readGPR(o.Reg, o.Width)
	case x64.KindImm:
		return uint64(o.Imm) & widthMask(o.Width)
	case x64.KindMem:
		return m.load(m.effectiveAddr(o), int(o.Width))
	}
	panic(fmt.Sprintf("emu: readOperand on %v", o.Kind))
}

// writeOperand writes a GPR or memory operand.
func (m *Machine) writeOperand(o x64.Operand, v uint64) {
	switch o.Kind {
	case x64.KindReg:
		m.writeGPR(o.Reg, o.Width, v)
	case x64.KindMem:
		m.store(m.effectiveAddr(o), int(o.Width), v)
	default:
		panic(fmt.Sprintf("emu: writeOperand on %v", o.Kind))
	}
}

// readXmm reads an XMM register, counting undefined reads.
func (m *Machine) readXmm(r x64.Reg) [2]uint64 {
	m.undef += int(^m.XmmDef >> r & 1)
	return m.Xmm[r]
}

func (m *Machine) writeXmm(r x64.Reg, v [2]uint64) {
	m.Xmm[r] = v
	m.XmmDef |= 1 << r
	m.xmmWritten |= 1 << r
}

// GenericDispatches reports how many compiled-slot executions have fallen
// back to the generic interpreting handler over the machine's lifetime.
// Zero means every instruction the machine ran through RunCompiled was
// served by a specialised micro-op.
func (m *Machine) GenericDispatches() int { return m.generic }

// readFlags checks definedness of the flags a condition inspects and
// returns the current flag valuation.
func (m *Machine) readFlagsFor(cc x64.Cond) x64.FlagSet {
	need := x64.FlagsReadByCond(cc)
	if need&^m.FlagsDef != 0 {
		m.undef++
	}
	return m.Flags
}

// setFlag sets or clears one flag and marks it defined.
func (m *Machine) setFlag(f x64.FlagSet, on bool) {
	if on {
		m.Flags |= f
	} else {
		m.Flags &^= f
	}
	m.FlagsDef |= f
}
