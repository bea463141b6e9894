// Package store is the persistent content-addressed rewrite cache behind
// the serving mode: a map from canonical fingerprint (internal/canon) to
// proven rewrites with their Eq.13 cost, the counterexample set that
// hardened them, the learned testcase-rejection profile, and search
// metadata.
//
// The layout is an in-memory LRU front over an append-only JSONL file.
// Reads hit memory first and fall back to a file scan (an entry evicted
// from the LRU is never lost, only slower); writes append a record and the
// file is compacted — latest record per key wins, rewritten via a
// temporary file and an atomic rename — once the append log outgrows the
// live set. Records are versioned and loading is corruption-tolerant: a
// truncated or garbled line is counted and skipped, never fatal, so a
// crash mid-append costs at most the interrupted record.
package store

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Version is the record format version; records with any other version are
// skipped on load (forward- and backward-compatibly: they count as bad
// records, not errors).
const Version = 1

// BankVersion is the schema version of the counterexample-bank field
// (Entry.BankV / Entry.Bank). Bank payloads with any other version are
// ignored on load — old logs without the field (BankV zero) still load,
// they just contribute nothing to the bank.
const BankVersion = 1

// bankFP is the reserved pseudo-fingerprint under which the global
// counterexample bank is persisted as an ordinary JSONL record. It is not
// valid hex, so it can never collide with a real canon fingerprint.
const bankFP = "!cexbank"

// bankCap bounds the in-memory (and persisted) bank; the oldest
// counterexamples are dropped first once it fills.
const bankCap = 1024

// Cex is a stored counterexample input: the register state that once
// distinguished a candidate from the target. Memory is not stored — replay
// rebuilds a shape-correct snapshot from the kernel's own input spec and
// overrides the non-pointer registers, exactly like live refinement does.
type Cex struct {
	Regs  [16]uint64    `json:"regs"`
	Xmm   [16][2]uint64 `json:"xmm,omitempty"`
	Flags uint8         `json:"flags,omitempty"`
}

// Meta records how the cached rewrite was found.
type Meta struct {
	Kernel      string `json:"kernel,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	Proposals   int64  `json:"proposals,omitempty"`
	Refinements int    `json:"refinements,omitempty"`
	SearchMS    int64  `json:"search_ms,omitempty"`
	Verdict     string `json:"verdict,omitempty"`
}

// Entry is one proven rewrite for one exact fingerprint+constants key.
// Programs are stored as canonical-space assembly text (the x64 printer's
// format, re-parsed on load), so records stay inspectable and survive
// instruction-encoding refactors.
type Entry struct {
	Version int     `json:"v"`
	FP      string  `json:"fp"`
	Consts  []int64 `json:"consts,omitempty"`
	Target  string  `json:"target"`
	Rewrite string  `json:"rewrite"`

	// CostH is the Eq.13 static latency sum of the canonical rewrite.
	CostH float64 `json:"cost_h"`

	// Cexs is the counterexample set that refined this kernel's τ; served
	// hits replay it as cheap revalidation, near-misses seed their τ with
	// it.
	Cexs []Cex `json:"cexs,omitempty"`

	// Profile is the SharedProfile counter snapshot (testcase-rejection
	// profile) learned during the search that produced the rewrite.
	Profile []int64 `json:"profile,omitempty"`

	// BankV versions the Bank field independently of the record format;
	// payloads whose BankV differs from BankVersion are ignored on load.
	BankV int `json:"bank_v,omitempty"`

	// Bank holds counterexamples in *canonical* register space (mapped
	// through the submitting kernel's canon.Form bijection), so a cex found
	// on one kernel replays on every α-renamed sibling. Entries under the
	// reserved bank key carry the whole global bank here; regular entries
	// carry the canonicalised cexs of their own kernel.
	Bank []Cex `json:"bank,omitempty"`

	Meta Meta `json:"meta"`
}

// Key returns the exact content address of an entry: fingerprint plus a
// hash of the constant vector. Entries sharing a fingerprint but differing
// in constants are distinct exact keys in the same near-miss class.
func Key(fp string, consts []int64) string {
	if len(consts) == 0 {
		return fp
	}
	h := sha256.New()
	var buf [8]byte
	for _, c := range consts {
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		h.Write(buf[:])
	}
	return fp + "+" + hex.EncodeToString(h.Sum(nil)[:8])
}

// Stats counts store traffic since Open.
type Stats struct {
	Entries    int   `json:"entries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	NearHits   int64 `json:"near_hits"`
	Puts       int64 `json:"puts"`
	Evictions  int64 `json:"evictions"`
	BadRecords int64 `json:"bad_records"`
	DiskReads  int64 `json:"disk_reads"`
	Compacts   int64 `json:"compacts"`
	BankSize   int   `json:"bank_size,omitempty"`
}

// Store is the cache. All methods are safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	path string // "" = memory-only
	cap  int

	mem  map[string]*list.Element // key → element whose Value is *Entry
	lru  *list.List               // front = most recently used
	byFP map[string][]string      // fingerprint → exact keys (all, incl. evicted)

	appended int // records appended since the last compaction
	stats    Stats

	bank     []Cex            // global cross-kernel counterexample bank, oldest first
	bankSeen map[Cex]struct{} // dedup index over bank
}

// DefaultCap is the in-memory entry cap used when Open is given a
// non-positive one.
const DefaultCap = 4096

// Open loads (or creates) a store at path; an empty path makes a
// memory-only store. Loading tolerates a missing file and corrupt records.
func Open(path string, memCap int) (*Store, error) {
	if memCap <= 0 {
		memCap = DefaultCap
	}
	s := &Store{
		path:     path,
		cap:      memCap,
		mem:      make(map[string]*list.Element),
		lru:      list.New(),
		byFP:     make(map[string][]string),
		bankSeen: make(map[Cex]struct{}),
	}
	if path == "" {
		return s, nil
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lines := s.scan(f, func(e *Entry) {
		s.foldBank(e)
		if e.FP == bankFP {
			return // reserved bank record, not a rewrite entry
		}
		s.insert(e, false)
	})
	f.Close()
	// Open replays the whole log; a long-lived process restarted against a
	// log dominated by superseded lines would otherwise pay that cost on
	// every start, forever (compaction only ran on Put paths). Compact here
	// when dead lines dominate live keys. Failure is non-fatal: the store
	// loaded fine, compaction is an optimisation.
	live := s.keyCount()
	if len(s.bank) > 0 {
		live++
	}
	if lines > 64 && lines > 2*live {
		_ = s.compactLocked()
	}
	return s, nil
}

// foldBank merges any versioned bank payload carried by e into the global
// counterexample bank (deduplicated, bounded). Caller holds mu or is still
// single-threaded in Open.
func (s *Store) foldBank(e *Entry) {
	if e.BankV != BankVersion {
		return
	}
	for _, cx := range e.Bank {
		s.addCexLocked(cx)
	}
}

// addCexLocked adds one cex to the bank unless already present, evicting
// the oldest once the bank is full. Reports whether cx was new.
func (s *Store) addCexLocked(cx Cex) bool {
	if _, ok := s.bankSeen[cx]; ok {
		return false
	}
	if len(s.bank) >= bankCap {
		delete(s.bankSeen, s.bank[0])
		s.bank = s.bank[1:]
	}
	s.bank = append(s.bank, cx)
	s.bankSeen[cx] = struct{}{}
	return true
}

// scan walks a JSONL stream, calling emit for every well-formed
// current-version record and counting the rest as bad. Returns the number
// of non-empty lines seen (well-formed or not), so Open can judge the
// dead-line ratio.
func (s *Store) scan(f *os.File, emit func(*Entry)) int {
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		lines++
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil || e.Version != Version || e.FP == "" {
			s.stats.BadRecords++
			continue
		}
		emit(&e)
	}
	// A read error mid-file (or an over-long line) truncates the scan; what
	// loaded so far stays usable.
	if sc.Err() != nil {
		s.stats.BadRecords++
	}
	return lines
}

// insert places e in the memory front (latest version of a key wins) and
// indexes its fingerprint. Caller holds mu (or is still single-threaded in
// Open).
func (s *Store) insert(e *Entry, isPut bool) {
	key := Key(e.FP, e.Consts)
	if el, ok := s.mem[key]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		return
	}
	s.mem[key] = s.lru.PushFront(e)
	if !contains(s.byFP[e.FP], key) {
		s.byFP[e.FP] = append(s.byFP[e.FP], key)
	}
	for s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		old := oldest.Value.(*Entry)
		delete(s.mem, Key(old.FP, old.Consts))
		s.lru.Remove(oldest)
		if isPut || s.path != "" {
			s.stats.Evictions++
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Get returns the entry at the exact key (fp, consts), consulting the
// memory front first and falling back to a file scan for evicted entries.
func (s *Store) Get(fp string, consts []int64) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lookup(fp, consts)
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return e, ok
}

// lookup is Get without stats accounting; caller holds mu.
func (s *Store) lookup(fp string, consts []int64) (*Entry, bool) {
	key := Key(fp, consts)
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*Entry), true
	}
	if !contains(s.byFP[fp], key) {
		return nil, false
	}
	// Evicted but on disk: rescan for the latest record under this key.
	found, ok := s.scanKey(key)
	if ok {
		s.insert(found, false)
	}
	return found, ok
}

// Near returns every stored entry in fp's fingerprint class — the same
// canonical skeleton under any constant vector. The exact entry (if any)
// is included; callers that already missed on Get use the rest as
// warm-start material.
func (s *Store) Near(fp string) []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Entry
	for _, key := range s.byFP[fp] {
		if el, ok := s.mem[key]; ok {
			out = append(out, el.Value.(*Entry))
			continue
		}
		if e, ok := s.scanKey(key); ok {
			out = append(out, e)
		}
	}
	if len(out) > 0 {
		s.stats.NearHits++
	}
	return out
}

// scanKey fetches one evicted key from disk; caller holds mu.
func (s *Store) scanKey(key string) (*Entry, bool) {
	if s.path == "" {
		return nil, false
	}
	f, err := os.Open(s.path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	s.stats.DiskReads++
	var found *Entry
	s.scan(f, func(e *Entry) {
		if Key(e.FP, e.Consts) == key {
			found = e
		}
	})
	return found, found != nil
}

// Put stores e (latest write per key wins), appends it to the log, and
// compacts the log when it has outgrown the live set.
func (s *Store) Put(e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.Version = Version
	s.insert(e, true)
	s.foldBank(e)
	s.stats.Puts++
	if s.path == "" {
		return nil
	}
	return s.appendLocked(e)
}

// AddCexs merges cexs (in canonical register space) into the global
// counterexample bank and, when any were new, persists the whole bank
// under its reserved key — one JSONL record, superseded in place by the
// next persist and collapsed to the latest copy on compaction.
func (s *Store) AddCexs(cexs []Cex) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := false
	for _, cx := range cexs {
		if s.addCexLocked(cx) {
			added = true
		}
	}
	if !added || s.path == "" {
		return nil
	}
	return s.appendLocked(&Entry{
		Version: Version,
		FP:      bankFP,
		BankV:   BankVersion,
		Bank:    append([]Cex(nil), s.bank...),
	})
}

// appendLocked appends e's record to the log and compacts the log when it
// has outgrown the live set; caller holds mu and has a path.
func (s *Store) appendLocked(e *Entry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	cerr := f.Close()
	if werr != nil || cerr != nil {
		return fmt.Errorf("store: append: %w", firstErr(werr, cerr))
	}
	s.appended++
	if s.appended > 64 && s.appended > 2*s.keyCount() {
		return s.compactLocked()
	}
	return nil
}

// BankCexs snapshots the global counterexample bank, oldest first.
func (s *Store) BankCexs() []Cex {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Cex(nil), s.bank...)
}

// BankLen reports the number of distinct counterexamples in the bank.
func (s *Store) BankLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bank)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) keyCount() int {
	n := 0
	for _, keys := range s.byFP {
		n += len(keys)
	}
	return n
}

// Compact rewrites the log to one record per live key, atomically
// (temporary file + rename). A crash at any point leaves either the old or
// the new file intact.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if s.path == "" {
		return nil
	}
	// Latest record per key: disk first (covers evicted keys), memory
	// overlaid (newer than anything on disk for keys it holds).
	latest := make(map[string]*Entry)
	if f, err := os.Open(s.path); err == nil {
		s.scan(f, func(e *Entry) { latest[Key(e.FP, e.Consts)] = e })
		f.Close()
	}
	for key, el := range s.mem {
		latest[key] = el.Value.(*Entry)
	}

	tmp, err := os.CreateTemp(filepath.Dir(s.path), ".store-compact-*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	for _, keys := range s.byFP {
		for _, key := range keys {
			if e, ok := latest[key]; ok {
				if err := enc.Encode(e); err != nil {
					tmp.Close()
					return fmt.Errorf("store: compact: %w", err)
				}
			}
		}
	}
	if len(s.bank) > 0 {
		be := &Entry{Version: Version, FP: bankFP, BankV: BankVersion, Bank: s.bank}
		if err := enc.Encode(be); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	s.appended = 0
	s.stats.Compacts++
	return nil
}

// Len reports the number of distinct exact keys known to the store
// (in-memory and evicted-to-disk alike).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keyCount()
}

// Stats snapshots the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.keyCount()
	st.BankSize = len(s.bank)
	return st
}

// Close compacts a file-backed store. The store stays usable (Close is
// about durability, not lifecycle).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appended == 0 {
		return nil
	}
	return s.compactLocked()
}
