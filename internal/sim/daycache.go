package sim

import (
	"errors"

	"solarcore/internal/atmos"
	"solarcore/internal/lru"
	"solarcore/internal/obs"
	"solarcore/internal/pv"
)

// Day-cache metric names, counted in the registry each DayCache exports
// through Metrics (DESIGN.md §10).
const (
	// MetricDayBuilds counts day builds started: weather synthesis plus
	// the MPP table, once per key while the key stays resident.
	MetricDayBuilds = "sim_day_builds_total"
	// MetricDayHits counts lookups that found their day built, or being
	// built by another caller, and waited for it instead of building.
	MetricDayHits = "sim_day_hits_total"
	// MetricDayEvictions counts days displaced by the cache's bound.
	MetricDayEvictions = "sim_day_evictions_total"
)

// errDayBuildPanicked is what callers waiting on a day get when the
// build they waited for panicked; the panic itself stays with the
// builder's goroutine.
var errDayBuildPanicked = errors.New("sim: day build panicked")

// DayCache is a bounded, build-once cache of generated SolarDays. A key
// is everything such a day depends on: the site (named by its code), the
// season, the weather-day index and the parallel panel count of a
// one-series BP3180N array. Concurrent callers of one key share a single
// build; a failed build is not cached, so the next call builds again.
// The cache holds at most its capacity of days and evicts the least
// recently used one beyond that.
//
// Sharing is safe because a SolarDay is immutable once built and
// NewSolarDay is deterministic: a cached day gives every run the same
// bytes a freshly built one would. All methods are safe for concurrent
// use.
type DayCache struct {
	days *lru.Cache[dayKey, *dayEntry]
	reg  *obs.Registry
	// build makes the day on a miss; tests substitute a failing one.
	build func(site atmos.Site, season atmos.Season, day, panels int) (*SolarDay, error)
}

// dayKey identifies one generated day.
type dayKey struct {
	site   string
	season atmos.Season
	day    int
	panels int
}

// dayEntry is one key's day: done closes once day or err is final.
type dayEntry struct {
	done chan struct{}
	day  *SolarDay
	err  error
}

// NewDayCache builds an empty cache holding at most capacity days.
func NewDayCache(capacity int) *DayCache {
	reg := obs.NewRegistry()
	return &DayCache{
		days: lru.NewWithEvict(capacity, func(dayKey, *dayEntry) {
			reg.Add(MetricDayEvictions, 1)
		}),
		reg:   reg,
		build: generateDay,
	}
}

// generateDay synthesizes one day's weather and binds it to panels
// parallel BP3180N modules in one series.
func generateDay(site atmos.Site, season atmos.Season, day, panels int) (*SolarDay, error) {
	tr := atmos.Generate(site, season, atmos.GenConfig{Day: day})
	return NewSolarDay(tr, pv.BP3180N(), 1, panels)
}

// Get returns the day for a site, season, weather-day index and panel
// count, building it on a miss. A caller that finds the day being built
// by another waits for that build and shares its outcome.
func (c *DayCache) Get(site atmos.Site, season atmos.Season, day, panels int) (*SolarDay, error) {
	key := dayKey{site.Code, season, day, panels}
	e, loaded := c.days.Get(key)
	if !loaded {
		e, loaded = c.days.GetOrPut(key, &dayEntry{done: make(chan struct{})})
	}
	if loaded {
		c.reg.Add(MetricDayHits, 1)
		<-e.done
		return e.day, e.err
	}
	c.fill(key, e, site)
	return e.day, e.err
}

// fill builds e's day and releases its waiters. A failed or panicking
// build leaves the cache before the waiters wake, so later callers
// retry instead of inheriting the failure.
func (c *DayCache) fill(key dayKey, e *dayEntry, site atmos.Site) {
	defer func() {
		if e.day == nil && e.err == nil {
			e.err = errDayBuildPanicked
		}
		if e.err != nil {
			c.days.Remove(key)
		}
		close(e.done)
	}()
	c.reg.Add(MetricDayBuilds, 1)
	e.day, e.err = c.build(site, key.season, key.day, key.panels)
}

// Metrics snapshots the cache's build, hit and eviction counters.
func (c *DayCache) Metrics() obs.Snapshot { return c.reg.Snapshot() }
