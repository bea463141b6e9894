package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func entry(fp string, consts []int64, rewrite string) *Entry {
	return &Entry{
		Version: Version,
		FP:      fp,
		Consts:  consts,
		Target:  "movq rcx, rax\naddq rdx, rax",
		Rewrite: rewrite,
		CostH:   2,
		Profile: []int64{5, 0, 3},
		Meta:    Meta{Kernel: "add", Verdict: "equal", Proposals: 1234},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := entry("aa11", []int64{42, 7}, "leaq (rcx,rdx,1), rax")
	e.Cexs = []Cex{{Regs: [16]uint64{1, 2, 3}, Flags: 0x1f}}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("aa11", []int64{42, 7})
	if !ok {
		t.Fatal("exact key missed")
	}
	if got.Rewrite != e.Rewrite || got.Profile[0] != 5 || got.Cexs[0].Regs[2] != 3 {
		t.Fatalf("round trip mangled entry: %+v", got)
	}
	if _, ok := s.Get("aa11", []int64{42, 8}); ok {
		t.Fatal("different constants must be a different exact key")
	}
	if _, ok := s.Get("bb22", []int64{42, 7}); ok {
		t.Fatal("different fingerprint must miss")
	}

	// Reopen: persistence survives the process boundary.
	s2, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.Get("aa11", []int64{42, 7})
	if !ok || got.Rewrite != e.Rewrite {
		t.Fatalf("reopened store lost the entry")
	}
	st := s2.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.BadRecords != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLatestWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, _ := Open(path, 8)
	s.Put(entry("aa", nil, "old rewrite"))
	s.Put(entry("aa", nil, "new rewrite"))
	if got, _ := s.Get("aa", nil); got.Rewrite != "new rewrite" {
		t.Fatalf("in-memory: got %q", got.Rewrite)
	}
	s2, _ := Open(path, 8)
	if got, ok := s2.Get("aa", nil); !ok || got.Rewrite != "new rewrite" {
		t.Fatalf("reloaded: latest record must win")
	}
	if s2.Len() != 1 {
		t.Fatalf("Len %d, want 1", s2.Len())
	}
}

func TestCorruptRecordsSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	good, _ := json.Marshal(entry("aa", nil, "keep me"))
	futured, _ := json.Marshal(&Entry{Version: Version + 1, FP: "ff", Rewrite: "future"})
	content := strings.Join([]string{
		string(good),
		`{"v":1,"fp":"trunc`, // crash mid-append
		"not json at all",
		string(futured),
		`{"v":1,"rewrite":"no fingerprint"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, 8)
	if err != nil {
		t.Fatalf("corrupt file must not be fatal: %v", err)
	}
	if _, ok := s.Get("aa", nil); !ok {
		t.Fatal("good record lost among bad ones")
	}
	if st := s.Stats(); st.BadRecords != 4 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 4 bad records and 1 entry", st)
	}
}

func TestLRUEvictionFallsBackToDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, _ := Open(path, 2)
	for i := 0; i < 5; i++ {
		s.Put(entry(fmt.Sprintf("fp%d", i), nil, fmt.Sprintf("rw%d", i)))
	}
	st := s.Stats()
	if st.Evictions != 3 {
		t.Fatalf("evictions %d, want 3", st.Evictions)
	}
	// fp0 was evicted from memory but must still be served (from disk).
	got, ok := s.Get("fp0", nil)
	if !ok || got.Rewrite != "rw0" {
		t.Fatalf("evicted entry not recovered from disk: %v %v", got, ok)
	}
	if s.Stats().DiskReads == 0 {
		t.Fatal("expected a disk read for the evicted key")
	}
	// And it is back in the memory front now: no further disk read.
	before := s.Stats().DiskReads
	if _, ok := s.Get("fp0", nil); !ok {
		t.Fatal("re-promoted entry missed")
	}
	if s.Stats().DiskReads != before {
		t.Fatal("re-promoted entry hit disk again")
	}
}

func TestMemoryOnlyStoreDropsEvicted(t *testing.T) {
	s, _ := Open("", 2)
	for i := 0; i < 4; i++ {
		s.Put(entry(fmt.Sprintf("fp%d", i), nil, "rw"))
	}
	if _, ok := s.Get("fp0", nil); ok {
		t.Fatal("memory-only store has no disk to fall back to")
	}
	if _, ok := s.Get("fp3", nil); !ok {
		t.Fatal("recent entry must survive")
	}
}

func TestNearMissClass(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, _ := Open(path, 8)
	s.Put(entry("classA", []int64{1}, "rwA1"))
	s.Put(entry("classA", []int64{2}, "rwA2"))
	s.Put(entry("classB", []int64{1}, "rwB1"))
	near := s.Near("classA")
	if len(near) != 2 {
		t.Fatalf("near-miss class size %d, want 2", len(near))
	}
	for _, e := range near {
		if e.FP != "classA" {
			t.Fatalf("foreign entry in class: %+v", e)
		}
	}
	if got := s.Near("classC"); len(got) != 0 {
		t.Fatalf("unknown class returned %d entries", len(got))
	}
	// The class survives eviction and reload.
	s2, _ := Open(path, 1)
	if near := s2.Near("classA"); len(near) != 2 {
		t.Fatalf("reloaded near-miss class size %d, want 2", len(near))
	}
}

func TestCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, _ := Open(path, 8)
	// Rewrite one key many times: the log accumulates records.
	for i := 0; i < 200; i++ {
		s.Put(entry("hot", nil, fmt.Sprintf("rw%d", i)))
		s.Put(entry("cold", nil, "stable"))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 2 {
		t.Fatalf("compacted log has %d records, want 2", lines)
	}
	s2, _ := Open(path, 8)
	if got, ok := s2.Get("hot", nil); !ok || got.Rewrite != "rw199" {
		t.Fatalf("compaction lost the latest version: %+v", got)
	}
	// Auto-compaction must have fired during the churn above too.
	if s.Stats().Compacts == 0 {
		t.Fatal("auto-compaction never fired over 400 appends of 2 keys")
	}
}

func TestConcurrentAccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, _ := Open(path, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				fp := fmt.Sprintf("fp%d", i%20)
				if i%3 == 0 {
					s.Put(entry(fp, nil, fmt.Sprintf("rw%d-%d", g, i)))
				} else {
					s.Get(fp, nil)
					s.Near(fp)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Fatal("no entries after concurrent churn")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 16); err != nil {
		t.Fatalf("store unreadable after concurrent churn: %v", err)
	}
}
