package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func cex(seed uint64) Cex {
	var cx Cex
	for i := range cx.Regs {
		cx.Regs[i] = seed + uint64(i)
	}
	cx.Flags = uint8(seed)
	return cx
}

func TestBankPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddCexs([]Cex{cex(1), cex(2), cex(1)}); err != nil {
		t.Fatal(err)
	}
	if s.BankLen() != 2 {
		t.Fatalf("BankLen %d, want 2 (duplicate must fold)", s.BankLen())
	}

	// Reopen: the bank survives the process boundary, ordered and intact.
	s2, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.BankCexs()
	if len(got) != 2 || got[0] != cex(1) || got[1] != cex(2) {
		t.Fatalf("reloaded bank %+v, want [cex(1) cex(2)]", got)
	}
	if st := s2.Stats(); st.BankSize != 2 {
		t.Fatalf("BankSize %d, want 2", st.BankSize)
	}
	// The reserved bank record must not masquerade as a rewrite entry.
	if s2.Len() != 0 {
		t.Fatalf("bank record leaked into the key space: Len %d", s2.Len())
	}
	if _, ok := s2.Get(bankFP, nil); ok {
		t.Fatal("reserved bank key served as a rewrite entry")
	}
}

// TestBankSchemaVersioning: records of an older format version — the
// global !cexbank record and a regular entry, whose counterexamples were
// stored in the submitter's registers — load as bad records and contribute
// nothing to the bank (a cold cache, never a misread cex), while a
// current-version entry's counterexamples fold into the global bank.
func TestBankSchemaVersioning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	old := entry("aa11", nil, "legacy rewrite")
	old.Version = Version - 1
	oldLine, _ := json.Marshal(old)
	oldBank := &Entry{Version: Version - 1, FP: bankFP, Cexs: []Cex{cex(9)}}
	oldBankLine, _ := json.Marshal(oldBank)
	content := string(oldLine) + "\n" + string(oldBankLine) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("aa11", nil); ok {
		t.Fatal("old-version record served")
	}
	if st := s.Stats(); st.BadRecords != 2 {
		t.Fatalf("BadRecords %d, want 2 (both old-version records)", st.BadRecords)
	}
	if s.BankLen() != 0 {
		t.Fatalf("old-version cexs folded anyway: BankLen %d", s.BankLen())
	}
	// A current-version entry's counterexamples fold into the global bank.
	e := entry("bb22", nil, "banked rewrite")
	e.Cexs = []Cex{cex(3)}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if s.BankLen() != 1 {
		t.Fatalf("current-version entry cexs not folded: BankLen %d", s.BankLen())
	}
	s2, _ := Open(path, 8)
	if s2.BankLen() != 1 {
		t.Fatalf("reloaded entry-carried bank: BankLen %d, want 1", s2.BankLen())
	}
}

func TestBankSurvivesCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, _ := Open(path, 8)
	if err := s.AddCexs([]Cex{cex(1), cex(2)}); err != nil {
		t.Fatal(err)
	}
	s.Put(entry("aa", nil, "rw"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Fatalf("compacted log has %d records, want 2 (entry + bank)", lines)
	}
	s2, _ := Open(path, 8)
	if s2.BankLen() != 2 {
		t.Fatalf("compaction dropped the bank: BankLen %d", s2.BankLen())
	}
	if _, ok := s2.Get("aa", nil); !ok {
		t.Fatal("compaction dropped the entry")
	}
}

// TestOpenCompactsDenseLog: short-lived sessions that append without ever
// compacting (no Close, under the per-session auto-compact threshold) used
// to grow the log forever — Open itself must compact once dead lines
// dominate live keys.
func TestOpenCompactsDenseLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	for session := 0; session < 2; session++ {
		s, err := Open(path, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			if err := s.Put(entry("hot", nil, "rw")); err != nil {
				t.Fatal(err)
			}
		}
		// No Close: the session ends without the compaction it would run.
	}
	data, _ := os.ReadFile(path)
	if lines := strings.Count(string(data), "\n"); lines != 120 {
		t.Fatalf("precondition: log has %d lines, want 120 superseded appends", lines)
	}

	s, err := Open(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Compacts != 1 {
		t.Fatalf("Open did not compact a log of 120 lines over 1 live key")
	}
	data, _ = os.ReadFile(path)
	if lines := strings.Count(string(data), "\n"); lines != 1 {
		t.Fatalf("post-Open log has %d lines, want 1", lines)
	}
	if _, ok := s.Get("hot", nil); !ok {
		t.Fatal("Open-side compaction lost the live entry")
	}

	// A healthy log (live keys dominate) must NOT be rewritten on Open.
	s2, _ := Open(path, 8)
	if s2.Stats().Compacts != 0 {
		t.Fatal("Open compacted an already-compact log")
	}
}

func TestAddCexsConcurrentDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s, _ := Open(path, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s.AddCexs([]Cex{cex(7)}) // same cex from every goroutine
			}
		}()
	}
	wg.Wait()
	if s.BankLen() != 1 {
		t.Fatalf("BankLen %d, want 1 (concurrent duplicates must fold)", s.BankLen())
	}
	s2, _ := Open(path, 8)
	if s2.BankLen() != 1 {
		t.Fatalf("reloaded BankLen %d, want 1", s2.BankLen())
	}
}
