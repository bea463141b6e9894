package emu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/x64"
)

// TestBitsSetRangeMatchesPerBit pins the word-at-a-time SetRange to the
// one-bit-at-a-time definition (Set), across ranges that start and end
// mid-word and span several words, over a plane holding stale bits; Has
// reads back exactly the bits set.
func TestBitsSetRangeMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 260; n++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		got := make(Bits, bitWords(n))
		for i := range got {
			got[i] = rng.Uint64() & rng.Uint64()
		}
		want := append(Bits(nil), got...)
		got.SetRange(lo, hi)
		for i := lo; i < hi; i++ {
			want.Set(i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d [%d,%d): set %x, want %x", n, lo, hi, got, want)
		}
		for i := lo; i < hi; i++ {
			if !got.Has(i) {
				t.Fatalf("n=%d [%d,%d): bit %d not set", n, lo, hi, i)
			}
		}
	}
}

func traceSegment(base uint64, size int) MemImage {
	im := NewMemImage(base, size)
	im.Def.SetRange(0, size)
	im.Valid.SetRange(0, size)
	return im
}

// bitsOf lists the set bits of a bitset.
func bitsOf(set []uint64) []int {
	var out []int
	for i := 0; i < 64*len(set); i++ {
		if set[i/64]>>(i%64)&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

func span(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestTraceRecordsSegmentBytes checks the instrumentation's per-segment
// bitsets: scalar and vector accesses, an access straddling two bitset
// words, accesses in a second segment, and a faulting access outside every
// segment (counted, not recorded). A reload clears the record, and a
// snapshot of another shape resizes it.
func TestTraceRecordsSegmentBytes(t *testing.T) {
	s := snapshotWithRegs(map[x64.Reg]uint64{x64.RDI: 0x1000, x64.RSI: 0x2000})
	s.Mem = []MemImage{traceSegment(0x1000, 100), traceSegment(0x2000, 16)}
	p := x64.MustParse(`
  movq 60(rdi), rax
  movl eax, 90(rdi)
  movups 16(rdi), xmm0
  movups xmm0, (rsi)
  movb 99(rdi), cl
  movq 0x3000(rdi), rdx
`)
	m := New()
	tr := NewTrace()
	m.SetTrace(tr)
	m.LoadSnapshot(s)
	if out := m.Run(p); out.SigSegv != 1 {
		t.Fatalf("want exactly the out-of-segment load to fault: %+v", out)
	}
	if len(tr.Reads) != 2 || len(tr.Writes) != 2 {
		t.Fatalf("trace sized to %d/%d segments, want 2", len(tr.Reads), len(tr.Writes))
	}
	wantReads := append(span(16, 32), span(60, 68)...)
	wantReads = append(wantReads, 99)
	if got := bitsOf(tr.Reads[0]); !reflect.DeepEqual(got, wantReads) {
		t.Fatalf("segment 0 reads %v, want %v", got, wantReads)
	}
	if got := bitsOf(tr.Writes[0]); !reflect.DeepEqual(got, span(90, 94)) {
		t.Fatalf("segment 0 writes %v, want 90..93", got)
	}
	if got := bitsOf(tr.Reads[1]); got != nil {
		t.Fatalf("segment 1 reads %v, want none", got)
	}
	if got := bitsOf(tr.Writes[1]); !reflect.DeepEqual(got, span(0, 16)) {
		t.Fatalf("segment 1 writes %v, want 0..15", got)
	}

	// Reloading clears the record, on the cached path too.
	for _, load := range []func(*Snapshot){m.LoadSnapshot, m.LoadSnapshotCached} {
		m.Run(p)
		load(s)
		for si := range s.Mem {
			if bitsOf(tr.Reads[si]) != nil || bitsOf(tr.Writes[si]) != nil {
				t.Fatalf("segment %d: record survived a reload", si)
			}
		}
	}

	// A snapshot of another shape resizes the record.
	one := snapshotWithRegs(map[x64.Reg]uint64{x64.RDI: 0x1000})
	one.Mem = []MemImage{traceSegment(0x1000, 200)}
	m.LoadSnapshot(one)
	m.Run(x64.MustParse("movq rdi, 192(rdi)"))
	if len(tr.Writes) != 1 || !reflect.DeepEqual(bitsOf(tr.Writes[0]), span(192, 200)) {
		t.Fatalf("resized trace writes %v", tr.Writes)
	}

	// Installing a trace after the load sizes it to the loaded segments.
	m.SetTrace(nil)
	m.LoadSnapshot(s)
	late := NewTrace()
	m.SetTrace(late)
	m.Run(x64.MustParse("movq (rsi), rax"))
	if len(late.Reads) != 2 || !reflect.DeepEqual(bitsOf(late.Reads[1]), span(0, 8)) {
		t.Fatalf("late trace reads %v", late.Reads)
	}
}
