// Package exp regenerates every table and figure of the paper's evaluation
// (Section 6). Each experiment is a function that returns typed data plus a
// Render method producing the ASCII equivalent of the paper's plot; the
// experiment index in DESIGN.md maps paper figure/table numbers to these
// functions, and cmd/experiments drives them all.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/lru"
	"solarcore/internal/obs"
	"solarcore/internal/power"
	"solarcore/internal/sigctx"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

// Options controls experiment fidelity versus runtime.
type Options struct {
	// StepMin is the simulation sub-sampling step in minutes (default 1).
	StepMin float64
	// Quick restricts grids (fewer mixes) for fast smoke runs and tests.
	Quick bool
	// Day selects the generated weather day within each period.
	Day int
	// Faults, when armed, applies the fault schedule to every run the lab
	// performs. A lab's options are fixed at NewLab, so its cache never
	// mixes schedules; compare schedules with one lab each.
	Faults *fault.Schedule
	// CacheEntries caps the lab's LRU result cache (0 takes
	// DefaultCacheEntries; negative values clamp to 1), so unboundedly
	// long ablation sweeps cannot grow memory without limit. Evictions
	// are counted in MetricLabEvictions.
	CacheEntries int
}

// DefaultCacheEntries is the result-cache cap when Options.CacheEntries
// is zero: larger than the full site × season × mix × policy × budget
// grid, so the paper's experiments never evict.
const DefaultCacheEntries = 4096

func (o Options) cacheEntries() int {
	switch {
	case o.CacheEntries > 0:
		return o.CacheEntries
	case o.CacheEntries < 0:
		return 1
	}
	return DefaultCacheEntries
}

func (o Options) stepMin() float64 {
	if o.StepMin > 0 {
		return o.StepMin
	}
	if o.Quick {
		return 2
	}
	return 1
}

// Mixes returns the workload grid for these options.
func (o Options) Mixes() []workload.Mix {
	if !o.Quick {
		return workload.Mixes
	}
	var out []workload.Mix
	for _, name := range []string{"H1", "L1", "HM2"} {
		m, _ := workload.MixByName(name)
		out = append(out, m)
	}
	return out
}

// FixedBudgets is the power-transfer threshold sweep of Figures 15-17 (W).
var FixedBudgets = []float64{25, 50, 75, 100, 125}

// Metric names the Lab maintains in its registry (DESIGN.md §10).
const (
	// MetricLabHits / MetricLabMisses count grid-cell cache hits and
	// misses across the Lab's run methods.
	MetricLabHits   = "lab_cache_hits_total"
	MetricLabMisses = "lab_cache_misses_total"
	// MetricLabCellMs is a histogram of per-cell simulation wall time in
	// milliseconds (cache misses only — hits cost no simulation).
	MetricLabCellMs = "lab_cell_wall_ms"
	// MetricLabDays counts solar days materialized (weather synthesis +
	// MPP profile precomputation): the build counter of the lab's day
	// cache, which Metrics exports next to its hit and eviction counters.
	MetricLabDays = sim.MetricDayBuilds
	// MetricLabEvictions counts grid cells displaced from the bounded
	// result cache by capacity pressure (Options.CacheEntries).
	MetricLabEvictions = "lab_cache_evictions_total"
)

// labDays sizes a lab's day cache for the whole site × season grid, so
// the paper's experiments build each of their days once.
const labDays = 16

// Lab caches solar days and simulation runs so that the many experiments
// sharing the site × season × mix × policy grid compute each run once. All
// methods are safe for concurrent use. Days come from a sim.DayCache
// sized for the site × season grid. The run cache is a bounded LRU
// (Options.CacheEntries), so arbitrarily long sweeps stay within a fixed
// memory budget at the price of recomputing evicted cells. The lab keeps
// an obs.Registry of cache hit/miss/eviction counters and per-cell
// wall-time histograms; Metrics exports it with the day cache's counters.
type Lab struct {
	opts Options

	days *sim.DayCache
	runs *lru.Cache[string, *sim.DayResult]
	reg  *obs.Registry
}

// NewLab builds an empty lab.
func NewLab(opts Options) *Lab {
	reg := obs.NewRegistry()
	return &Lab{
		opts: opts,
		days: sim.NewDayCache(labDays),
		runs: lru.NewWithEvict[string, *sim.DayResult](opts.cacheEntries(),
			func(string, *sim.DayResult) { reg.Add(MetricLabEvictions, 1) }),
		reg: reg,
	}
}

// Metrics exports the lab's cache and wall-time metrics together with
// its day cache's build, hit and eviction counters.
func (l *Lab) Metrics() obs.Snapshot {
	return obs.MergeSnapshots(l.reg.Snapshot(), l.days.Metrics())
}

// Day returns the (cached) solar day for a site and season: the synthetic
// weather trace of the lab's weather-day index bound to one BP3180N
// module. Concurrent first calls for one key share a single build.
func (l *Lab) Day(site atmos.Site, season atmos.Season) *sim.SolarDay {
	d, err := l.days.Get(site, season, l.opts.Day, 1)
	if err != nil {
		panic(fmt.Sprintf("exp: building solar day %s %s: %v", site.Code, season, err))
	}
	return d
}

func (l *Lab) cached(key string) (*sim.DayResult, bool) {
	return l.runs.Get(key)
}

func (l *Lab) store(key string, r *sim.DayResult) {
	l.runs.Put(key, r)
}

// cell serves one grid cell through the cache, recording the hit/miss
// and — on a miss — the simulation wall time.
func (l *Lab) cell(key string, run func() *sim.DayResult) *sim.DayResult {
	if r, ok := l.cached(key); ok {
		l.reg.Add(MetricLabHits, 1)
		return r
	}
	l.reg.Add(MetricLabMisses, 1)
	start := time.Now()
	r := run()
	l.reg.Observe(MetricLabCellMs, time.Since(start).Seconds()*1000)
	l.store(key, r)
	return r
}

func (l *Lab) config(site atmos.Site, season atmos.Season, mix workload.Mix, keepSeries bool) sim.Config {
	return sim.Config{
		Day:        l.Day(site, season),
		Mix:        mix,
		StepMin:    l.opts.stepMin(),
		KeepSeries: keepSeries,
		Faults:     l.opts.Faults,
	}
}

// MPPT runs (or recalls) a SolarCore day under the named Table 6 policy.
func (l *Lab) MPPT(site atmos.Site, season atmos.Season, mix workload.Mix, policy string) *sim.DayResult {
	key := fmt.Sprintf("%s|%s|%s|%s", site.Code, season, mix.Name, policy)
	return l.cell(key, func() *sim.DayResult {
		r, err := sim.Run(l.config(site, season, mix, false), sim.MPPT(policy))
		if err != nil {
			panic(fmt.Sprintf("exp: %s: %v", key, err))
		}
		return &r.DayResult
	})
}

// MPPTSeries is MPPT with the per-minute budget/actual trace retained (for
// Figures 13-14). Series runs are not cached.
func (l *Lab) MPPTSeries(site atmos.Site, season atmos.Season, mix workload.Mix, policy string) *sim.DayResult {
	r, err := sim.Run(l.config(site, season, mix, true), sim.MPPT(policy))
	if err != nil {
		panic(fmt.Sprintf("exp: series run: %v", err))
	}
	return &r.DayResult
}

// Fixed runs (or recalls) a Fixed-Power day at the given budget.
func (l *Lab) Fixed(site atmos.Site, season atmos.Season, mix workload.Mix, budgetW float64) *sim.DayResult {
	key := fmt.Sprintf("%s|%s|%s|fixed%g", site.Code, season, mix.Name, budgetW)
	return l.cell(key, func() *sim.DayResult {
		r, err := sim.Run(l.config(site, season, mix, false), sim.Fixed(budgetW))
		if err != nil {
			panic(fmt.Sprintf("exp: %s: %v", key, err))
		}
		return &r.DayResult
	})
}

// Battery runs (or recalls) a battery-baseline day at the given overall
// conversion efficiency.
func (l *Lab) Battery(site atmos.Site, season atmos.Season, mix workload.Mix, eff float64) *sim.DayResult {
	key := fmt.Sprintf("%s|%s|%s|bat%g", site.Code, season, mix.Name, eff)
	return l.cell(key, func() *sim.DayResult {
		r, err := sim.Run(l.config(site, season, mix, false), sim.Battery(eff))
		if err != nil {
			panic(fmt.Sprintf("exp: %s: %v", key, err))
		}
		return &r.DayResult
	})
}

// MPPTPolicies lists the Table 6 tracking policies in the paper's order.
var MPPTPolicies = []string{"MPPT&IC", "MPPT&RR", "MPPT&Opt"}

// BatteryEffs lists the Section 6.4 battery comparison brackets.
var BatteryEffs = []float64{power.BatteryUpperEff, power.BatteryLowerEff}

// Prefetch computes the full MPPT policy grid (site × season × mix ×
// policy) in parallel so that subsequent figure calls hit the cache.
func (l *Lab) Prefetch() {
	_ = l.PrefetchContext(context.Background())
}

// PrefetchContext is Prefetch under a cancellation context: when ctx is
// canceled the sweep stops scheduling new cells (already-running ones
// complete and stay cached) and the wrapped context error is returned. A
// cell that panics (a broken policy, a pathological day) is contained in
// its worker and surfaces as an error naming the cell; the rest of the
// grid still completes and stays cached.
func (l *Lab) PrefetchContext(ctx context.Context) error {
	type job struct {
		site   atmos.Site
		season atmos.Season
		mix    workload.Mix
		policy string
	}
	var jobs []job
	for _, site := range atmos.Sites {
		for _, season := range atmos.Seasons {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("exp: prefetch canceled: %w", err)
			}
			for _, mix := range l.opts.Mixes() {
				for _, p := range MPPTPolicies {
					jobs = append(jobs, job{site, season, mix, p})
				}
			}
		}
	}
	// Worker errors are joined with the context error, so one failed
	// cell never loses the others' results and never kills the process.
	errs := make([]error, len(jobs))
	fed := sigctx.Each(ctx, len(jobs), runtime.GOMAXPROCS(0), func(i int) {
		j := jobs[i]
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("exp: prefetch cell %s/%s/%s/%s: %v",
					j.site.Code, j.season, j.mix.Name, j.policy, r)
			}
		}()
		l.MPPT(j.site, j.season, j.mix, j.policy)
	})
	if fed < len(jobs) {
		errs = append(errs, ctx.Err())
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("exp: prefetch: %w", err)
	}
	return nil
}
