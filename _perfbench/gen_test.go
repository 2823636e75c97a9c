package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"solarcore"
)

func fillSpecs(seed int64, n int) []solarcore.RunSpec {
	g := newFillGen(seed)
	out := make([]solarcore.RunSpec, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func sweepBatches(seed int64, n int) [][]solarcore.RunSpec {
	g := newSweepGen(seed)
	out := make([][]solarcore.RunSpec, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(fillSpecs(7, 100), fillSpecs(7, 100)) {
		t.Error("fill: same seed gave different specs")
	}
	if !reflect.DeepEqual(sweepBatches(7, 5), sweepBatches(7, 5)) {
		t.Error("sweep: same seed gave different batches")
	}
	if !reflect.DeepEqual(newReplayPlan(7, 500, 4), newReplayPlan(7, 500, 4)) {
		t.Error("replay: same seed gave different plans")
	}
}

func TestDifferentSeedsDifferentInputs(t *testing.T) {
	if reflect.DeepEqual(fillSpecs(7, 100), fillSpecs(8, 100)) {
		t.Error("fill: seeds 7 and 8 gave the same specs")
	}
	if reflect.DeepEqual(sweepBatches(7, 5), sweepBatches(8, 5)) {
		t.Error("sweep: seeds 7 and 8 gave the same batches")
	}
	a, b := newReplayPlan(7, 500, 4), newReplayPlan(8, 500, 4)
	if reflect.DeepEqual(a.Keys, b.Keys) || reflect.DeepEqual(a.Key, b.Key) || reflect.DeepEqual(a.Due, b.Due) {
		t.Error("replay: seeds 7 and 8 share keys, key choices or arrival times")
	}
}

func TestFillNoDayKeyRepeats(t *testing.T) {
	days := map[dayKey]bool{}
	hashes := map[string]bool{}
	for _, s := range append(fillSpecs(3, 3000), fillSpecs(4, 3000)...) {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", specLabel(s), err)
		}
		k := keyOf(s)
		if days[k] {
			t.Fatalf("day key %+v repeats", k)
		}
		days[k] = true
		hashes[s.Hash()] = true
	}
	if len(hashes) != len(days) {
		t.Errorf("%d distinct specs for %d day keys", len(hashes), len(days))
	}
}

// TestFillBlockMix pins the stratified mix: every block of 12 holds each
// policy, Fixed-Power, battery and fault schedules at both steps.
func TestFillBlockMix(t *testing.T) {
	count := map[string]int{}
	for _, s := range fillSpecs(5, 120) {
		n := s.Normalized()
		key := modeOf(n)
		if n.Faults != "" {
			key += "+faults"
		}
		count[key]++
		count["step"+map[bool]string{true: "1", false: "8"}[n.StepMin == 1]]++
	}
	want := map[string]int{"mppt": 60, "mppt+faults": 20, "fixed": 20, "battery": 20, "step1": 60, "step8": 60}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("mix = %v, want %v", count, want)
	}
}

func TestSweepBatchSharesOneDayKey(t *testing.T) {
	days := map[dayKey]bool{}
	for _, batch := range sweepBatches(9, 50) {
		if len(batch) != sweepPolicies*len(solarcore.Mixes()) || len(batch) > 64 {
			t.Fatalf("batch of %d runs", len(batch))
		}
		k := keyOf(batch[0])
		if days[k] {
			t.Fatalf("day key %+v used by two batches", k)
		}
		days[k] = true
		hashes := map[string]bool{}
		for _, s := range batch {
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: %v", specLabel(s), err)
			}
			if keyOf(s) != k {
				t.Fatalf("batch mixes day keys %+v and %+v", k, keyOf(s))
			}
			hashes[s.Hash()] = true
		}
		if len(hashes) != len(batch) {
			t.Fatalf("batch repeats a spec: %d distinct of %d", len(hashes), len(batch))
		}
	}
}

// TestSweepWeatherStratified pins the weather mix: every 32 batches
// cover each (site, season, panels) combination once.
func TestSweepWeatherStratified(t *testing.T) {
	seen := map[dayKey]int{}
	for _, batch := range sweepBatches(9, 64) {
		k := keyOf(batch[0])
		k.Day = 0
		seen[k]++
	}
	if len(seen) != len(sites)*len(seasons)*2 {
		t.Fatalf("%d weather combinations in 64 batches, want %d", len(seen), len(sites)*len(seasons)*2)
	}
	for k, n := range seen {
		if n != 2 {
			t.Errorf("%+v drawn %d times in 64 batches, want 2", k, n)
		}
	}
}

func TestReplayRequestsOnlyPrefilledKeys(t *testing.T) {
	p := newReplayPlan(11, 500, 10)
	if len(p.Keys) != replayKeys || len(p.Due) != 5000 || len(p.Key) != len(p.Due) {
		t.Fatalf("%d keys, %d arrivals, %d key choices", len(p.Keys), len(p.Due), len(p.Key))
	}
	hashes := map[string]bool{}
	for _, s := range p.Keys {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", specLabel(s), err)
		}
		hashes[s.Hash()] = true
	}
	if len(hashes) != replayKeys {
		t.Fatalf("%d distinct keys, want %d", len(hashes), replayKeys)
	}
	for i, k := range p.Key {
		if k < 0 || k >= len(p.Keys) {
			t.Fatalf("arrival %d asks for key %d outside the prefilled set", i, k)
		}
		if i > 0 && p.Due[i] < p.Due[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	// The key set must exceed the fleet's memory LRU, and popularity
	// must be skewed: the most asked-for key far above the mean.
	if replayKeys <= 2*replayNodeCache {
		t.Fatalf("key set %d fits the nodes' LRUs (2×%d)", replayKeys, replayNodeCache)
	}
	top := 0
	for _, n := range countKeys(p.Key) {
		top = max(top, n)
	}
	if mean := len(p.Key) / len(countKeys(p.Key)); top < 10*mean {
		t.Errorf("top key asked %d times, mean %d: not skewed", top, mean)
	}
}

func countKeys(keys []int) map[int]int {
	m := map[int]int{}
	for _, k := range keys {
		m[k]++
	}
	return m
}

// TestGeneratedSpecsRun runs one block of each workload in process: the
// workloads must contain no spec that fails.
func TestGeneratedSpecsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 24 days")
	}
	specs := fillSpecs(1, 12)
	specs = append(specs, newReplayPlan(1, 500, 2).Keys[:12]...)
	for _, s := range specs {
		if _, err := s.Run(context.Background()); err != nil {
			t.Errorf("%s: %v", specLabel(s), err)
		}
	}
	batch := sweepBatches(1, 1)[0]
	for _, s := range []solarcore.RunSpec{batch[0], batch[1]} {
		if _, err := s.Run(context.Background()); err != nil {
			t.Errorf("%s: %v", specLabel(s), err)
		}
	}
}

func TestPercentileBeyond(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}} {
		got, beyond := percentile(v, c.q)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", c.q*100, got, beyond, c.want, c.beyond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", 0, 1)
	tr.do("child", root, 1, func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	tr.do("probe", 0, 1, func() {})
	stats := tr.selfTimes(func(r string) bool { return r == "request" })
	if len(stats) != 2 || stats[0].name != "child" {
		t.Fatalf("stats = %+v, want child then request", stats)
	}
	if req := stats[1]; req.self != req.total-stats[0].total {
		t.Errorf("request self %v, want total %v minus child %v", req.self, req.total, stats[0].total)
	}
}
