package exp

import (
	"fmt"
	"sync"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/sim"
)

// TestLabCacheIsBounded pins the Options.CacheEntries contract: a lab
// with a 2-entry cache serving 3 distinct cells must evict the least
// recently used one (counted in MetricLabEvictions) and re-simulate it
// on the next request, while a recently-read cell stays a hit.
func TestLabCacheIsBounded(t *testing.T) {
	l := NewLab(Options{Quick: true, StepMin: 8, CacheEntries: 2})
	var sims int
	cell := func(day int) *sim.DayResult {
		return l.cell(fmt.Sprintf("cell-%d", day), func() *sim.DayResult {
			sims++
			return &sim.DayResult{Label: fmt.Sprintf("day-%d", day)}
		})
	}
	cell(0)
	cell(1)
	cell(0) // promote 0; cell 1 is now the LRU
	cell(2) // evicts 1
	snap := l.Metrics()
	if got := snap.Counters[MetricLabEvictions]; got != 1 {
		t.Fatalf("%s = %g after overflow, want 1", MetricLabEvictions, got)
	}
	cell(0) // still resident
	cell(1) // evicted: must re-simulate
	if sims != 4 {
		t.Errorf("simulated %d cells, want 4 (0, 1, 2 and the re-run of 1)", sims)
	}
	snap = l.Metrics()
	if hits, misses := snap.Counters[MetricLabHits], snap.Counters[MetricLabMisses]; hits != 2 || misses != 4 {
		t.Errorf("hits/misses = %g/%g, want 2/4", hits, misses)
	}
}

// TestLabCacheDefaultsAndClamps checks the CacheEntries normalization:
// zero takes the grid-sized default, negatives clamp to one entry.
func TestLabCacheDefaultsAndClamps(t *testing.T) {
	if got := (Options{}).cacheEntries(); got != DefaultCacheEntries {
		t.Errorf("zero CacheEntries = %d, want %d", got, DefaultCacheEntries)
	}
	if got := (Options{CacheEntries: -5}).cacheEntries(); got != 1 {
		t.Errorf("negative CacheEntries = %d, want clamp to 1", got)
	}
	if got := (Options{CacheEntries: 7}).cacheEntries(); got != 7 {
		t.Errorf("explicit CacheEntries = %d, want 7", got)
	}
}

// TestLabDayBuildsOnceUnderConcurrentMisses races many first callers of
// one site and season: they must share one build, so every caller gets
// the same day and MetricLabDays reads 1.
func TestLabDayBuildsOnceUnderConcurrentMisses(t *testing.T) {
	l := NewLab(Options{Quick: true})
	const n = 16
	days := make([]*sim.SolarDay, n)
	var wg sync.WaitGroup
	for i := range days {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			days[i] = l.Day(atmos.CO, atmos.Oct)
		}(i)
	}
	wg.Wait()
	for i, d := range days {
		if d != days[0] {
			t.Fatalf("caller %d got a different day than caller 0", i)
		}
	}
	if got := l.Metrics().Counters[MetricLabDays]; got != 1 {
		t.Errorf("%s = %g after %d concurrent first calls, want 1", MetricLabDays, got, n)
	}
}
