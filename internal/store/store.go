// Package store is solard's crash-safe durable result layer: a
// disk-backed, content-addressed store of marshaled simulation results
// keyed by solarcore.RunSpec.Hash (DESIGN.md §16). It exists so a
// node's result cache survives crashes and deploys — the serving fleet
// equivalent of internal/fault's graceful-degradation discipline on the
// physics side: bounded, verifiable behavior when the process dies at
// the worst possible moment.
//
// Guarantees:
//
//   - atomic records — every Put writes a CRC32-C-framed record
//     (record.go) to a temp file and renames it into place, so a crash
//     mid-write can leave a stray *.tmp or a torn file, never a
//     half-updated record under a live key;
//   - detect, quarantine, never serve — a record that fails
//     verification on read (or during the boot scan) is moved into the
//     quarantine/ subdirectory and counted; Get reports a miss and the
//     caller recomputes, which is always correct;
//   - bounded disk — a byte budget is enforced with LRU eviction that
//     deletes record files; recency survives restarts through a
//     best-effort journal (missing or corrupt journal degrades to a
//     cold-but-correct deterministic order, it never loses records);
//   - bounded memory — only the hotEntries most recently used records
//     are indexed in memory; older (cold) records stay on disk, are
//     found there on a read, and are evicted first, in directory order;
//   - observable — store_* metrics in an obs.Registry and one JSONL
//     StoreEvent per warm start, quarantine and eviction.
//
// Like every serving package, the store reads no wall clock of its own:
// Config.Clock injects one (cmd/solard passes time.Now) and a nil clock
// reports zero durations.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"solarcore/internal/lru"
	"solarcore/internal/obs"
)

// Store metric names (DESIGN.md §16).
const (
	// MetricHits / MetricMisses count Get lookups by outcome.
	MetricHits   = "store_hits_total"
	MetricMisses = "store_misses_total"
	// MetricQuarantined counts torn or corrupt records detected and
	// moved aside — on boot or on read — instead of being served.
	MetricQuarantined = "store_corrupt_records_quarantined_total"
	// MetricEvictions counts records deleted by byte-budget pressure.
	MetricEvictions = "store_evictions_total"
	// MetricPutErrors counts Put calls that failed to persist.
	MetricPutErrors = "store_put_errors_total"
	// MetricBytes gauges the on-disk bytes of all records, hot and cold.
	MetricBytes = "store_bytes"
	// MetricRecords gauges the record count, hot and cold.
	MetricRecords = "store_records"
	// MetricWarmStartMs gauges the boot scan's wall time in milliseconds
	// (zero without a Config.Clock).
	MetricWarmStartMs = "store_warm_start_ms"
)

// Filesystem layout under Config.Dir.
const (
	// recordSuffix marks a live record file: <key>.rec.
	recordSuffix = ".rec"
	// tmpSuffix marks an in-progress write; stray ones are deleted on boot.
	tmpSuffix = ".tmp"
	// quarantineDir collects records that failed verification.
	quarantineDir = "quarantine"
	// journalName is the best-effort recency journal.
	journalName = "journal"
)

// journalMagic is the journal's first line; any other header (or a
// missing file) makes the boot scan fall back to sorted-key order.
const journalMagic = "solarcore-store-journal v1"

// DefaultMaxBytes is the byte budget when Config.MaxBytes is zero.
const DefaultMaxBytes = 256 << 20

// hotEntries bounds the in-memory index to the most recently used
// records, so the index costs the same memory (about 170 B a record)
// whatever number of records the byte budget lets the disk hold. It
// matches serve's default result cache, which a warm start refills
// from Recent.
const hotEntries = 1024

// coldBatch is how many directory entries one read of the cold-record
// walk takes.
const coldBatch = 64

// Config tunes a Store. Dir is required.
type Config struct {
	// Dir is the record directory; Open creates it (and quarantine/).
	Dir string
	// MaxBytes bounds the summed record-file sizes (default
	// DefaultMaxBytes). The newest record is always kept, so one
	// oversized result degrades the budget rather than thrashing.
	MaxBytes int64
	// Registry receives the store_* metrics; nil builds a private one.
	Registry *obs.Registry
	// Events, when non-nil, receives one JSONL StoreEvent per warm
	// start, quarantine and eviction.
	Events *obs.JSONLSink
	// Clock supplies wall time for the warm-start duration. nil is valid
	// — durations report zero — because internal packages must not read
	// the wall clock themselves; cmd/solard injects time.Now.
	Clock func() time.Time
}

// Store is the durable result layer. Build one with Open; it is safe
// for concurrent use. Close persists the recency journal — after a
// crash (no Close) the next Open still loads every intact record, only
// the recency order is cold.
type Store struct {
	cfg Config
	reg *obs.Registry

	mu        sync.Mutex
	idx       *lru.Cache[string, int64] // hot records: key → on-disk record size, recency-ordered
	cold      int                       // records on disk outside idx
	coldBytes int64                     // summed sizes of the cold records
	bytes     int64                     // summed sizes of every record, hot and cold

	// coldDir and coldBuf are the open walk over Config.Dir that finds
	// cold records to evict; coldDir is nil between walks.
	coldDir *os.File
	coldBuf []os.DirEntry

	// Warm-start summary, frozen by Open for callers to report.
	warmRecords     int
	warmQuarantined int
	warmMs          float64
}

// Rec is one record surfaced by Recent: the cache key and its verified
// payload bytes.
type Rec struct {
	Key  string
	Body []byte
}

// Open scans dir and returns a ready Store: stray temp files are
// deleted, every record is verified (corrupt ones are quarantined, and
// will never be served), the recency journal is replayed when intact,
// and the byte budget is enforced. The scan cost is one read of every
// record file — warm-start time is published as store_warm_start_ms.
func Open(cfg Config) (*Store, error) { return open(cfg, hotEntries) }

// open is Open with the in-memory index bounded to hot records.
func open(cfg Config, hot int) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Clock == nil {
		cfg.Clock = func() time.Time { return time.Time{} }
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{cfg: cfg, reg: cfg.Registry}
	// A record pushed out of the index stays on disk as a cold one. The
	// hook runs under s.mu, which every index insert holds.
	s.idx = lru.NewWithEvict(hot, func(_ string, size int64) {
		s.cold++
		s.coldBytes += size
	})
	start := s.cfg.Clock()
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictOverBudgetLocked()
	s.warmRecords = s.idx.Len() + s.cold
	if !start.IsZero() {
		s.warmMs = s.cfg.Clock().Sub(start).Seconds() * 1000
	}
	s.reg.Set(MetricWarmStartMs, s.warmMs)
	s.setGaugesLocked()
	s.event(obs.StoreEvent{Op: obs.StoreOpWarmStart, Records: s.warmRecords,
		Bytes: s.bytes, DurMs: s.warmMs})
	s.mu.Unlock()
	return s, nil
}

// scan loads the record directory into the index: verify every record,
// quarantine failures, delete stray temp files, and replay the journal
// for recency order.
func (s *Store) scan() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("store: scan dir: %w", err)
	}
	sizes := map[string]int64{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			// quarantine/ and anything else a human parked here.
		case strings.HasSuffix(name, tmpSuffix):
			// A crash mid-Put: the rename never happened, the live key (if
			// any) still points at its previous intact record.
			_ = os.Remove(filepath.Join(s.cfg.Dir, name))
		case strings.HasSuffix(name, recordSuffix):
			key := strings.TrimSuffix(name, recordSuffix)
			if !validKey(key) {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(s.cfg.Dir, name))
			if err != nil {
				continue
			}
			if _, derr := DecodeRecord(raw); derr != nil {
				s.mu.Lock()
				s.quarantineLocked(key, 0, derr)
				s.mu.Unlock()
				continue
			}
			sizes[key] = int64(len(raw))
		}
	}

	// Recency: journal order (LRU first) for keys that still exist, then
	// the rest in sorted-key order — deterministic either way.
	order := make([]string, 0, len(sizes))
	seen := map[string]bool{}
	for _, key := range s.readJournal() {
		if _, ok := sizes[key]; ok && !seen[key] {
			order = append(order, key)
			seen[key] = true
		}
	}
	rest := make([]string, 0, len(sizes))
	for key := range sizes {
		if !seen[key] {
			rest = append(rest, key)
		}
	}
	sort.Strings(rest)
	order = append(rest, order...) // journal-known keys are warmer than strays

	s.mu.Lock()
	for _, key := range order {
		s.idx.Put(key, sizes[key])
		s.bytes += sizes[key]
	}
	s.mu.Unlock()
	return nil
}

// readJournal returns the persisted recency order (least recent first),
// or nil when the journal is missing or fails its header check — the
// documented degradation is cold-but-correct, never an error.
func (s *Store) readJournal() []string {
	raw, err := os.ReadFile(filepath.Join(s.cfg.Dir, journalName))
	if err != nil {
		return nil
	}
	lines := strings.Split(string(raw), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != journalMagic {
		return nil
	}
	var keys []string
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if !validKey(line) {
			// A torn tail (the journal write is best-effort) invalidates
			// only the entries after the tear point.
			break
		}
		keys = append(keys, line)
	}
	return keys
}

// Close persists the recency journal (atomically, like every record)
// of the indexed records; cold ones reopen as the least recent. It is
// best-effort durability: a crash that skips Close costs recency order
// only.
func (s *Store) Close() error {
	s.mu.Lock()
	keys := s.idx.Keys() // most → least recent
	if s.coldDir != nil {
		_ = s.coldDir.Close() // a read-only directory walk
		s.coldDir, s.coldBuf = nil, nil
	}
	s.mu.Unlock()
	var b strings.Builder
	b.WriteString(journalMagic)
	b.WriteByte('\n')
	for i := len(keys) - 1; i >= 0; i-- { // journal stores LRU first
		b.WriteString(keys[i])
		b.WriteByte('\n')
	}
	path := filepath.Join(s.cfg.Dir, journalName)
	tmp := path + tmpSuffix
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("store: write journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: publish journal: %w", err)
	}
	return nil
}

// Get returns the verified payload stored under key and promotes its
// recency; a cold record is read from disk and indexed again. A record
// that fails verification is quarantined and reported as a miss —
// corrupt bytes are never returned.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, hot := s.idx.Get(key)
	if !hot && !validKey(key) {
		return s.missLocked()
	}
	raw, err := os.ReadFile(s.recordPath(key))
	if err != nil {
		if hot {
			// The file vanished underneath the index (operator cleanup);
			// drop the entry and recompute.
			s.idx.Remove(key)
			s.bytes -= size
			s.setGaugesLocked()
		}
		return s.missLocked()
	}
	if !hot {
		size = int64(len(raw))
		s.promoteLocked(key, size)
	}
	payload, err := DecodeRecord(raw)
	if err != nil {
		s.quarantineLocked(key, size, err)
		return s.missLocked()
	}
	s.reg.Add(MetricHits, 1)
	return payload, true
}

// missLocked counts one miss (single registration site) and returns the
// miss result.
func (s *Store) missLocked() ([]byte, bool) {
	s.reg.Add(MetricMisses, 1)
	return nil, false
}

// Put persists payload under key: encode, write <key>.rec.tmp, rename
// into place, then enforce the byte budget. A key already present is a
// no-op beyond a recency promotion — records are content-addressed, so
// identical keys hold identical bytes.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx.Get(key); ok {
		return nil
	}
	if info, err := os.Stat(s.recordPath(key)); err == nil {
		s.promoteLocked(key, info.Size()) // a cold record of the same bytes
		return nil
	}
	rec := EncodeRecord(payload)
	if err := s.writeRecordLocked(key, rec); err != nil {
		s.reg.Add(MetricPutErrors, 1)
		return err
	}
	s.idx.Put(key, int64(len(rec)))
	s.bytes += int64(len(rec))
	s.evictOverBudgetLocked()
	s.setGaugesLocked()
	return nil
}

// writeRecordLocked performs the atomic temp-file+rename write, syncing
// the temp file before the rename so the published name never points at
// buffered-but-unwritten bytes.
func (s *Store) writeRecordLocked(key string, rec []byte) error {
	path := s.recordPath(key)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create temp record: %w", err)
	}
	if _, err := f.Write(rec); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("store: write record: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("store: sync record: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: close record: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: publish record: %w", err)
	}
	return nil
}

// promoteLocked indexes a cold record as the most recently used one.
func (s *Store) promoteLocked(key string, size int64) {
	s.cold--
	s.coldBytes -= size
	s.idx.Put(key, size)
}

// evictOverBudgetLocked deletes record files until the byte budget
// holds, always keeping the newest record: cold records first, in
// directory order, then the index's least recently used.
func (s *Store) evictOverBudgetLocked() {
	for s.bytes > s.cfg.MaxBytes && s.idx.Len()+s.cold > 1 {
		if s.cold > 0 {
			if key, size, ok := s.nextColdLocked(); ok {
				s.evictLocked(key, size)
				s.cold--
				s.coldBytes -= size
			} else {
				// A whole walk found none: they were removed under the
				// store, so the accounting forgets them.
				s.bytes -= s.coldBytes
				s.cold, s.coldBytes = 0, 0
			}
			continue
		}
		key, size, ok := s.idx.Oldest()
		if !ok {
			return
		}
		s.idx.Remove(key)
		s.evictLocked(key, size)
	}
}

// evictLocked deletes one record file and accounts for it.
func (s *Store) evictLocked(key string, size int64) {
	_ = os.Remove(s.recordPath(key))
	s.bytes -= size
	s.reg.Add(MetricEvictions, 1)
	s.event(obs.StoreEvent{Op: obs.StoreOpEvict, Key: key, Bytes: s.bytes})
}

// nextColdLocked returns the next record file outside the index,
// continuing the directory walk a batch of entries at a time. ok is
// false when a walk started by this call reaches the end without one.
func (s *Store) nextColdLocked() (key string, size int64, ok bool) {
	restarted := false
	for {
		for len(s.coldBuf) > 0 {
			e := s.coldBuf[0]
			s.coldBuf = s.coldBuf[1:]
			key, isRec := strings.CutSuffix(e.Name(), recordSuffix)
			if !isRec || e.IsDir() || !validKey(key) || s.idx.Contains(key) {
				continue
			}
			if info, err := e.Info(); err == nil {
				return key, info.Size(), true
			}
		}
		if s.coldDir == nil {
			if restarted {
				return "", 0, false
			}
			d, err := os.Open(s.cfg.Dir)
			if err != nil {
				return "", 0, false
			}
			s.coldDir, restarted = d, true
		}
		var err error
		if s.coldBuf, err = s.coldDir.ReadDir(coldBatch); err != nil {
			// io.EOF ends the walk; any other failure ends it too.
			_ = s.coldDir.Close()
			s.coldDir = nil
		}
	}
}

// quarantineLocked moves a failed record into quarantine/ (deleting it
// if even the move fails), drops it from the index, and records the one
// counter and event for both detection paths (boot scan and Get).
func (s *Store) quarantineLocked(key string, size int64, cause error) {
	path := s.recordPath(key)
	if err := os.Rename(path, filepath.Join(s.cfg.Dir, quarantineDir, key+recordSuffix)); err != nil {
		_ = os.Remove(path)
	}
	if s.idx.Remove(key) {
		s.bytes -= size
		s.setGaugesLocked()
	}
	s.warmQuarantined++ // meaningful during Open; harmless after
	s.reg.Add(MetricQuarantined, 1)
	detail := ""
	if cause != nil {
		detail = cause.Error()
	}
	s.event(obs.StoreEvent{Op: obs.StoreOpQuarantine, Key: key, Detail: detail})
}

// Recent returns up to n of the most recently used records, most recent
// first, with verified payloads — the warm-start feed for an in-memory
// LRU front. Only indexed records qualify, so it returns at most
// hotEntries. It does not promote recency and counts no hits or misses;
// a record that fails verification here is quarantined and skipped.
func (s *Store) Recent(n int) []Rec {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := s.idx.Keys()
	if n < len(keys) {
		keys = keys[:n]
	}
	out := make([]Rec, 0, len(keys))
	for _, key := range keys {
		raw, err := os.ReadFile(s.recordPath(key))
		if err != nil {
			continue
		}
		payload, derr := DecodeRecord(raw)
		if derr != nil {
			if sz, ok := s.idx.Get(key); ok {
				s.quarantineLocked(key, sz, derr)
			}
			continue
		}
		out = append(out, Rec{Key: key, Body: payload})
	}
	return out
}

// Len returns the record count, hot and cold.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Len() + s.cold
}

// Bytes returns the summed on-disk size of the records.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// WarmStart reports the boot scan's outcome: records loaded, corrupt
// records quarantined, and the scan's wall time in milliseconds.
func (s *Store) WarmStart() (records, quarantined int, ms float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warmRecords, s.warmQuarantined, s.warmMs
}

// Dir returns the record directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// setGaugesLocked mirrors the record count and bytes into the two
// gauges (single Set site per name).
func (s *Store) setGaugesLocked() {
	s.reg.Set(MetricBytes, float64(s.bytes))
	s.reg.Set(MetricRecords, float64(s.idx.Len()+s.cold))
}

// event emits one JSONL store event when a sink is configured.
func (s *Store) event(ev obs.StoreEvent) {
	if s.cfg.Events != nil {
		s.cfg.Events.OnStore(ev)
	}
}

// recordPath maps a key to its record file.
func (s *Store) recordPath(key string) string {
	return filepath.Join(s.cfg.Dir, key+recordSuffix)
}

// validKey accepts the hex RunSpec.Hash alphabet (plus - and _ for
// tests) and nothing that could traverse paths.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}
