package main

import (
	"fmt"
	"math/rand"
	"sync"

	"solarcore"
)

// The generator turns a workload seed into the specs the servers see.
// Everything here is a pure function of the seed: the servers receive
// only the generated specs, and the same seed always yields the same
// inputs, in the same order.

const (
	// sweepPolicies × len(solarcore.Mixes()) is one /v1/sweep batch:
	// the Fixed-Power baseline and the three MPPT policies of Table 6,
	// each over the ten Table 5 mixes — 40 runs, under serve's
	// default MaxSweep of 64.
	sweepPolicies = 4
	// replayKeys is the replay key set the set-up prefills. It is
	// eight times the two nodes' summed memory LRU (replayNodeCache),
	// so the store read path stays busy.
	replayKeys = 128
	// replayNodeCache is each replay node's LRU capacity (-cache).
	replayNodeCache = 8
	// replayZipfS skews replay key popularity (math/rand Zipf, s > 1).
	replayZipfS = 1.1
)

var (
	sites   = []string{"AZ", "CO", "NC", "TN"}
	seasons = []string{"Jan", "Apr", "Jul", "Oct"}
	faults  = []string{
		"cloud:t0=600,t1=660,i=0.8",
		"sensor-drop:t0=700,t1=730,i=1",
		"cloud:t0=540,t1=570,i=0.6;conv-derate:t0=800,t1=860,i=0.3",
	}
)

// dayKey is what the SolarDay MPP table depends on: a run with the same
// key builds the same table whatever its policy, mix, step or faults.
type dayKey struct {
	Site, Season string
	Day, Panels  int
}

func keyOf(s solarcore.RunSpec) dayKey {
	n := s.Normalized()
	return dayKey{n.Site, n.Season, n.Day, n.Panels}
}

// dayBase spreads seeds over disjoint weather-day ranges, so two seeds
// never share a day key.
func dayBase(seed int64) int {
	return int(uint64(seed)%1_000_000) * 100_000
}

// modeBlock is one stratified block of the fill and replay mixes: every
// block holds each engine mode and step in fixed proportions, so the
// cost mix of a run does not depend on the seed. Only the order inside
// a block, the site, season, mix, panels and fault choice are seeded.
func modeBlock(r *rand.Rand) []solarcore.RunSpec {
	var b []solarcore.RunSpec
	for _, step := range []float64{1, 8} {
		for _, p := range solarcore.Policies() {
			b = append(b, solarcore.RunSpec{Policy: p, StepMin: step})
		}
		b = append(b,
			solarcore.RunSpec{FixedW: float64(60 + 30*r.Intn(3)), StepMin: step},
			solarcore.RunSpec{BatteryEff: []float64{solarcore.BatteryLowerEff, solarcore.BatteryUpperEff}[r.Intn(2)], StepMin: step},
			solarcore.RunSpec{Policy: solarcore.Policies()[r.Intn(3)], StepMin: step, Faults: faults[r.Intn(len(faults))]},
		)
	}
	r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	mixes := solarcore.Mixes()
	for i := range b {
		b[i].Site = sites[r.Intn(len(sites))]
		b[i].Season = seasons[r.Intn(len(seasons))]
		b[i].Mix = mixes[r.Intn(len(mixes))].Name
		b[i].Panels = 1 + r.Intn(2)
	}
	return b
}

// fillGen hands out fill specs in a fixed order: every spec, and every
// day key, is new. Safe for concurrent use by the load workers.
type fillGen struct {
	mu    sync.Mutex
	r     *rand.Rand
	next  int
	block []solarcore.RunSpec
}

func newFillGen(seed int64) *fillGen {
	return &fillGen{r: rand.New(rand.NewSource(seed)), next: dayBase(seed)}
}

func (g *fillGen) Next() solarcore.RunSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.block) == 0 {
		g.block = modeBlock(g.r)
	}
	s := g.block[0]
	g.block = g.block[1:]
	s.Day = g.next
	g.next++
	return s
}

// sweepGen hands out /v1/sweep batches: each batch is the 4-policy ×
// 10-mix grid on one new weather day at 8-minute steps, so its 40 runs
// miss the result cache but share exactly one day key. The batches cycle
// through every (site, season, panels) combination in a seeded order,
// so a run's weather mix, and with it the cost of its day builds, does
// not depend on the seed.
type sweepGen struct {
	mu     sync.Mutex
	r      *rand.Rand
	next   int
	combos []solarcore.RunSpec
}

func newSweepGen(seed int64) *sweepGen {
	return &sweepGen{r: rand.New(rand.NewSource(seed)), next: dayBase(seed)}
}

func (g *sweepGen) Next() []solarcore.RunSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.combos) == 0 {
		for _, site := range sites {
			for _, season := range seasons {
				for panels := 1; panels <= 2; panels++ {
					g.combos = append(g.combos, solarcore.RunSpec{Site: site, Season: season, Panels: panels})
				}
			}
		}
		g.r.Shuffle(len(g.combos), func(i, j int) { g.combos[i], g.combos[j] = g.combos[j], g.combos[i] })
	}
	base := g.combos[0]
	g.combos = g.combos[1:]
	base.Day, base.StepMin = g.next, 8
	g.next++
	fixedW := float64(60 + 30*g.r.Intn(3))
	var batch []solarcore.RunSpec
	for _, m := range solarcore.Mixes() {
		s := base
		s.Mix = m.Name
		s.FixedW = fixedW
		batch = append(batch, s)
		for _, p := range solarcore.Policies() {
			s := base
			s.Mix = m.Name
			s.Policy = p
			batch = append(batch, s)
		}
	}
	return batch
}

// replayPlan is the replay workload: a prefilled key set and an open-loop
// arrival schedule over it.
type replayPlan struct {
	Keys []solarcore.RunSpec
	// Due is each arrival's offset from the start of the measured phase
	// in nanoseconds, ascending; Key[i] indexes Keys.
	Due []int64
	Key []int
}

// newReplayPlan draws replayKeys distinct specs and a Poisson arrival
// schedule of rate × seconds requests whose keys are Zipf-skewed: the
// popularity rank of each key is itself a seeded permutation.
func newReplayPlan(seed int64, rate float64, seconds int) replayPlan {
	r := rand.New(rand.NewSource(seed))
	var p replayPlan
	day := dayBase(seed)
	for len(p.Keys) < replayKeys {
		for _, s := range modeBlock(r) {
			if len(p.Keys) == replayKeys {
				break
			}
			s.Day = day
			day++
			p.Keys = append(p.Keys, s)
		}
	}
	rank := r.Perm(replayKeys)
	z := rand.NewZipf(r, replayZipfS, 1, replayKeys-1)
	n := int(rate * float64(seconds))
	var t float64
	for i := 0; i < n; i++ {
		t += r.ExpFloat64() / rate
		p.Due = append(p.Due, int64(t*1e9))
		p.Key = append(p.Key, rank[z.Uint64()])
	}
	return p
}

// specLabel names a spec in error messages.
func specLabel(s solarcore.RunSpec) string {
	n := s.Normalized()
	mode := n.Policy
	switch {
	case n.FixedW > 0:
		mode = fmt.Sprintf("fixed%g", n.FixedW)
	case n.BatteryEff > 0:
		mode = fmt.Sprintf("battery%g", n.BatteryEff)
	}
	return fmt.Sprintf("%s/%s/%s/%s/day%d/step%g/p%d/faults=%q", n.Site, n.Season, n.Mix, mode, n.Day, n.StepMin, n.Panels, n.Faults)
}
