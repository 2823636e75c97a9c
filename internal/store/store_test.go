package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"solarcore/internal/obs"
)

func openT(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s := openT(t, Config{Registry: reg})
	body := []byte(`{"solar_wh":400.125}`)
	if err := s.Put("aaa111", body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("aaa111")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %t; want the stored payload", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing) reported a hit")
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricHits] != 1 || snap.Counters[MetricMisses] != 1 {
		t.Errorf("hits=%v misses=%v, want 1/1",
			snap.Counters[MetricHits], snap.Counters[MetricMisses])
	}
	if snap.Gauges[MetricRecords] != 1 {
		t.Errorf("%s gauge = %v, want 1", MetricRecords, snap.Gauges[MetricRecords])
	}
}

func TestRecordsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a crash. Every record must still load.
	s2 := openT(t, Config{Dir: dir})
	if s2.Len() != 5 {
		t.Fatalf("reopened store holds %d records, want 5", s2.Len())
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(fmt.Sprintf("key%d", i))
		if !ok || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Errorf("key%d = %q, %t after reopen", i, got, ok)
		}
	}
}

func TestJournalRestoresRecencyOrder(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	for _, k := range []string{"a1", "b2", "c3"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("a1"); !ok { // promote a1 over b2, c3
		t.Fatal("a1 missing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, Config{Dir: dir})
	recs := s2.Recent(10)
	got := make([]string, len(recs))
	for i, r := range recs {
		got[i] = r.Key
	}
	want := []string{"a1", "c3", "b2"} // MRU first, as left by Get(a1)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("recency after reopen = %v, want %v", got, want)
	}
}

func TestCorruptJournalDegradesToColdOrder(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	for _, k := range []string{"b2", "a1"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte("garbage\nmore"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, Config{Dir: dir})
	if s2.Len() != 2 {
		t.Fatalf("store lost records to a corrupt journal: %d, want 2", s2.Len())
	}
	recs := s2.Recent(10)
	// Cold order is deterministic: sorted keys, last inserted = warmest.
	if len(recs) != 2 || recs[0].Key != "b2" || recs[1].Key != "a1" {
		t.Errorf("cold recency = %v, want [b2 a1]", recs)
	}
}

func TestTornJournalTailKeepsIntactPrefix(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	for _, k := range []string{"a1", "b2", "c3"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the journal mid-line: the intact prefix still orders a1 before
	// the rest, the torn tail is ignored.
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	torn := append(raw[:len(raw)-2], []byte("\x00\xff")...)
	if err := os.WriteFile(filepath.Join(dir, journalName), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, Config{Dir: dir})
	if s2.Len() != 3 {
		t.Fatalf("torn journal tail lost records: %d, want 3", s2.Len())
	}
}

func TestCorruptRecordQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	var sinkBuf bytes.Buffer
	sink := obs.NewJSONLSink(&sinkBuf)
	s := openT(t, Config{Dir: dir, Registry: reg, Events: sink})
	if err := s.Put("victim", []byte("precious result bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit on disk behind the store's back.
	path := filepath.Join(dir, "victim"+recordSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[recordHeaderLen+3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := s.Get("victim"); ok {
		t.Fatalf("corrupt record served: %q", got)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt record still in the live directory")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "victim"+recordSuffix)); err != nil {
		t.Errorf("corrupt record not quarantined: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricQuarantined] != 1 {
		t.Errorf("%s = %v, want 1", MetricQuarantined, snap.Counters[MetricQuarantined])
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Errorf("index still holds the quarantined record: len=%d bytes=%d", s.Len(), s.Bytes())
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sinkBuf.String(), obs.StoreOpQuarantine) {
		t.Error("no quarantine event emitted")
	}
}

func TestBootScanQuarantinesTornRecords(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	if err := s.Put("whole", []byte("intact payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("torn", []byte("this record will be truncated")); err != nil {
		t.Fatal(err)
	}
	// Crash simulation: truncate one record mid-payload and leave a stray
	// temp file from an interrupted Put.
	tornPath := filepath.Join(dir, "torn"+recordSuffix)
	raw, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "half"+recordSuffix+tmpSuffix)
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s2 := openT(t, Config{Dir: dir, Registry: reg})
	records, quarantined, _ := s2.WarmStart()
	if records != 1 || quarantined != 1 {
		t.Errorf("warm start = %d records, %d quarantined; want 1/1", records, quarantined)
	}
	if _, ok := s2.Get("torn"); ok {
		t.Error("torn record served after boot scan")
	}
	if got, ok := s2.Get("whole"); !ok || string(got) != "intact payload" {
		t.Errorf("intact record lost: %q, %t", got, ok)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Error("stray temp file survived the boot scan")
	}
	if snap := reg.Snapshot(); snap.Counters[MetricQuarantined] != 1 {
		t.Errorf("%s = %v, want 1", MetricQuarantined, snap.Counters[MetricQuarantined])
	}
}

func TestByteBudgetEvictsOldestFiles(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	payload := bytes.Repeat([]byte("x"), 100)
	recSize := int64(recordHeaderLen + len(payload))
	s := openT(t, Config{Dir: dir, MaxBytes: 3 * recSize, Registry: reg})
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d under a 3-record budget, want 3", s.Len())
	}
	if s.Bytes() != 3*recSize {
		t.Errorf("Bytes = %d, want %d", s.Bytes(), 3*recSize)
	}
	for i, wantOK := range []bool{false, false, true, true, true} {
		key := fmt.Sprintf("key%d", i)
		if _, ok := s.Get(key); ok != wantOK {
			t.Errorf("Get(%s) = %t, want %t", key, ok, wantOK)
		}
		if _, err := os.Stat(filepath.Join(dir, key+recordSuffix)); (err == nil) != wantOK {
			t.Errorf("%s file presence = %v, want present=%t", key, err, wantOK)
		}
	}
	if snap := reg.Snapshot(); snap.Counters[MetricEvictions] != 2 {
		t.Errorf("%s = %v, want 2", MetricEvictions, snap.Counters[MetricEvictions])
	}
}

func TestOversizedNewestRecordIsKept(t *testing.T) {
	s := openT(t, Config{MaxBytes: 64})
	big := bytes.Repeat([]byte("y"), 1000)
	if err := s.Put("small", []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("big"); !ok {
		t.Error("newest record evicted itself; the budget must degrade, not thrash")
	}
	if _, ok := s.Get("small"); ok {
		t.Error("small record survived a blown budget")
	}
}

func TestRecentIsMetricsNeutral(t *testing.T) {
	reg := obs.NewRegistry()
	s := openT(t, Config{Registry: reg})
	for _, k := range []string{"a1", "b2", "c3"} {
		if err := s.Put(k, []byte("payload-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Recent(2)
	if len(recs) != 2 || recs[0].Key != "c3" || recs[1].Key != "b2" {
		t.Fatalf("Recent(2) = %v, want [c3 b2] (MRU first)", recs)
	}
	if string(recs[0].Body) != "payload-c3" {
		t.Errorf("Recent payload = %q", recs[0].Body)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricHits] != 0 || snap.Counters[MetricMisses] != 0 {
		t.Errorf("Recent moved hit/miss counters: %v/%v",
			snap.Counters[MetricHits], snap.Counters[MetricMisses])
	}
	// Recent must not promote: a1 is still the eviction victim.
	k, _, ok := s.oldestForTest()
	if !ok || k != "a1" {
		t.Errorf("oldest after Recent = %q, want a1", k)
	}
}

// oldestForTest exposes the recency tail without promoting.
func (s *Store) oldestForTest() (string, int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Oldest()
}

func TestPutRejectsUnsafeKeys(t *testing.T) {
	s := openT(t, Config{})
	for _, key := range []string{"", "../escape", "a/b", "a.b", strings.Repeat("k", 129)} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an unsafe key", key)
		}
	}
}

func TestPutSameKeyIsIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	s := openT(t, Config{Registry: reg})
	body := []byte("same bytes, same key")
	for i := 0; i < 3; i++ {
		if err := s.Put("dup", body); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after duplicate puts, want 1", s.Len())
	}
	wantBytes := int64(recordHeaderLen + len(body))
	if s.Bytes() != wantBytes {
		t.Errorf("Bytes = %d after duplicate puts, want %d", s.Bytes(), wantBytes)
	}
}

func TestWarmStartMetricsWithClock(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Config{Dir: dir})
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// A fake clock that advances 3ms per reading.
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(3 * time.Millisecond)
		return now
	}
	reg := obs.NewRegistry()
	s2 := openT(t, Config{Dir: dir, Registry: reg, Clock: clock})
	_, _, ms := s2.WarmStart()
	if ms <= 0 {
		t.Errorf("warm-start ms = %v with a ticking clock, want > 0", ms)
	}
	snap := reg.Snapshot()
	if snap.Gauges[MetricWarmStartMs] != ms {
		t.Errorf("%s gauge = %v, want %v", MetricWarmStartMs, snap.Gauges[MetricWarmStartMs], ms)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Error("Open with no Dir succeeded")
	}
}

func TestShrunkBudgetEvictsOnOpen(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("z"), 100)
	recSize := int64(recordHeaderLen + len(payload))
	s := openT(t, Config{Dir: dir, MaxBytes: 10 * recSize})
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, Config{Dir: dir, MaxBytes: 2 * recSize})
	if s2.Len() != 2 {
		t.Errorf("Len = %d after reopening under a smaller budget, want 2", s2.Len())
	}
	// The survivors are the most recent: key2, key3.
	for i, wantOK := range []bool{false, false, true, true} {
		if _, ok := s2.Get(fmt.Sprintf("key%d", i)); ok != wantOK {
			t.Errorf("key%d present = %t after budget shrink, want %t", i, ok, wantOK)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openT(t, Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key%d", (seed*7+i)%16)
				if i%2 == 0 {
					if err := s.Put(key, []byte("payload-"+key)); err != nil {
						t.Error(err)
						return
					}
				} else if got, ok := s.Get(key); ok && string(got) != "payload-"+key {
					t.Errorf("Get(%s) = %q", key, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 16 {
		t.Errorf("Len = %d, want at most 16 distinct keys", s.Len())
	}
}

// TestColdRecordsStayReadable bounds the index to two records and puts
// five: the three pushed out stay on disk as cold records, count in Len
// and Bytes, and a Get or a repeated Put of one finds it on disk and
// indexes it again without writing it twice.
func TestColdRecordsStayReadable(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := open(Config{Dir: dir, Registry: reg}, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("c"), 50)
	recSize := int64(recordHeaderLen + len(payload))
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if s.idx.Len() != 2 || s.Len() != 5 || s.Bytes() != 5*recSize {
		t.Fatalf("indexed/Len/Bytes = %d/%d/%d, want 2/5/%d", s.idx.Len(), s.Len(), s.Bytes(), 5*recSize)
	}
	if got, ok := s.Get("key0"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get(cold key0) = %q, %t; want the stored payload", got, ok)
	}
	if err := s.Put("key1", payload); err != nil {
		t.Fatal(err)
	}
	if keys := s.idx.Keys(); fmt.Sprint(keys) != "[key1 key0]" {
		t.Errorf("index after reading key0 and re-putting key1 = %v, want [key1 key0]", keys)
	}
	if s.Len() != 5 || s.Bytes() != 5*recSize {
		t.Errorf("Len/Bytes after promotions = %d/%d, want 5/%d", s.Len(), s.Bytes(), 5*recSize)
	}
	if snap := reg.Snapshot(); snap.Gauges[MetricRecords] != 5 || snap.Counters[MetricHits] != 1 {
		t.Errorf("%s gauge = %v, %s = %v; want 5 and 1", MetricRecords, snap.Gauges[MetricRecords],
			MetricHits, snap.Counters[MetricHits])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := open(Config{Dir: dir}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Errorf("Len after reopen = %d, want all 5 records", s2.Len())
	}
	// The journal keeps the two hot records the most recent.
	if keys := s2.idx.Keys(); fmt.Sprint(keys) != "[key1 key0]" {
		t.Errorf("index after reopen = %v, want [key1 key0]", keys)
	}
}

// TestByteBudgetEvictsColdRecordsFirst checks eviction takes cold
// records before any indexed one, and falls back to the index's least
// recently used when the cold ones were removed under the store.
func TestByteBudgetEvictsColdRecordsFirst(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("e"), 100)
	recSize := int64(recordHeaderLen + len(payload))
	s, err := open(Config{Dir: dir, MaxBytes: 4 * recSize}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 || s.Bytes() != 4*recSize {
		t.Fatalf("Len/Bytes = %d/%d under a 4-record budget, want 4/%d", s.Len(), s.Bytes(), 4*recSize)
	}
	for _, key := range []string{"key3", "key4"} {
		if _, err := os.Stat(filepath.Join(dir, key+recordSuffix)); err != nil {
			t.Errorf("indexed %s was evicted before the cold records: %v", key, err)
		}
	}
	// Remove the remaining cold records behind the store's back: the
	// next eviction walks the directory, finds none and takes the
	// index's least recently used.
	for i := 0; i < 3; i++ {
		_ = os.Remove(filepath.Join(dir, fmt.Sprintf("key%d", i)+recordSuffix))
	}
	if err := s.Put("key5", bytes.Repeat([]byte("e"), 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "key3"+recordSuffix)); !os.IsNotExist(err) {
		t.Errorf("key3, pushed out of the index by key5, survived: %v", err)
	}
	if s.cold != 0 || s.Len() != 2 || s.Bytes() != 2*recSize+200 {
		t.Errorf("cold/Len/Bytes = %d/%d/%d after the drifted walk, want 0/2/%d",
			s.cold, s.Len(), s.Bytes(), 2*recSize+200)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
