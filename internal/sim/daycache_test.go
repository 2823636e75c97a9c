package sim

import (
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"

	"solarcore/internal/atmos"
)

// getAll runs n concurrent Gets of one key and returns their days.
func getAll(t *testing.T, c *DayCache, n int, site atmos.Site, season atmos.Season, day, panels int) []*SolarDay {
	t.Helper()
	days := make([]*SolarDay, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range days {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			days[i], errs[i] = c.Get(site, season, day, panels)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	return days
}

// TestDayCacheConcurrentGetBuildsOnce races many first callers of one
// key: exactly one builds, every other one waits for that build and
// gets the very same day.
func TestDayCacheConcurrentGetBuildsOnce(t *testing.T) {
	c := NewDayCache(4)
	const n = 16
	days := getAll(t, c, n, atmos.NC, atmos.Apr, 3, 2)
	for i, d := range days {
		if d != days[0] {
			t.Fatalf("caller %d got a different day than caller 0", i)
		}
	}
	snap := c.Metrics()
	if got := snap.Counters[MetricDayBuilds]; got != 1 {
		t.Errorf("%s = %g, want 1", MetricDayBuilds, got)
	}
	if got := snap.Counters[MetricDayHits]; got != n-1 {
		t.Errorf("%s = %g, want %d", MetricDayHits, got, n-1)
	}
}

// TestDayCacheDayMatchesFreshBuild checks the cached day is the day a
// direct build gives, key field by key field: panels and day index both
// reach the MPP table.
func TestDayCacheDayMatchesFreshBuild(t *testing.T) {
	c := NewDayCache(4)
	for _, k := range []struct{ day, panels int }{{0, 1}, {5, 1}, {5, 3}} {
		got, err := c.Get(atmos.CO, atmos.Oct, k.day, k.panels)
		if err != nil {
			t.Fatal(err)
		}
		want, err := generateDay(atmos.CO, atmos.Oct, k.day, k.panels)
		if err != nil {
			t.Fatal(err)
		}
		if got.MPPEnergyWh() != want.MPPEnergyWh() {
			t.Errorf("day %d panels %d: cached MPP energy %v, fresh %v",
				k.day, k.panels, got.MPPEnergyWh(), want.MPPEnergyWh())
		}
	}
	if got := c.Metrics().Counters[MetricDayBuilds]; got != 3 {
		t.Errorf("three distinct keys built %g days, want 3", got)
	}
}

// TestSharedDayRunsMatchFreshDay runs every supply kind on one cached
// day from concurrent goroutines: each result must marshal to the bytes
// of the same run on a freshly built day. Under -race this also pins
// that the engine only reads a SolarDay.
func TestSharedDayRunsMatchFreshDay(t *testing.T) {
	c := NewDayCache(2)
	shared, err := c.Get(atmos.TN, atmos.Jul, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := generateDay(atmos.TN, atmos.Jul, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	supplies := []Supply{MPPT("MPPT&Opt"), MPPT("MPPT&RR"), Fixed(75), Battery(0.8)}
	hm2 := mix(t, "HM2")
	run := func(day *SolarDay, s Supply) []byte {
		res, err := Run(Config{Day: day, Mix: hm2, StepMin: 8}, s)
		if err != nil {
			t.Error(err)
			return nil
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	want := make([][]byte, len(supplies))
	for i, s := range supplies {
		want[i] = run(fresh, s)
	}
	const rounds = 3
	got := make([][]byte, rounds*len(supplies))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(shared, supplies[i%len(supplies)])
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		if string(b) != string(want[i%len(supplies)]) {
			t.Errorf("run %d on the shared day differs from the fresh-day run", i)
		}
	}
}

// TestSolarDayConcurrentReads reads one day's interpolants from many
// goroutines at once; every reader must see the sequential answers.
func TestSolarDayConcurrentReads(t *testing.T) {
	d, err := NewDayCache(1).Get(atmos.AZ, atmos.Jan, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	type reading struct {
		irr, cell, mpp float64
	}
	var minutes []float64
	for m := d.StartMinute() - 5; m <= d.EndMinute()+5; m += 7.5 {
		minutes = append(minutes, m)
	}
	want := make([]reading, len(minutes))
	for i, m := range minutes {
		env := d.EnvAt(m)
		want[i] = reading{env.Irradiance, env.CellTemp, d.MPPAt(m)}
	}
	wantWh := d.MPPEnergyWh()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, m := range minutes {
				env := d.EnvAt(m)
				if (reading{env.Irradiance, env.CellTemp, d.MPPAt(m)}) != want[i] {
					t.Errorf("minute %v: concurrent reading differs", m)
					return
				}
			}
			if d.MPPEnergyWh() != wantWh {
				t.Error("concurrent MPPEnergyWh differs")
			}
		}()
	}
	wg.Wait()
}

// TestDayCacheEvictsAtBound fills a two-day cache with three keys: the
// least recently used day is evicted (and counted), and asking for it
// again builds it anew while the recently used day stays a hit.
func TestDayCacheEvictsAtBound(t *testing.T) {
	c := NewDayCache(2)
	get := func(day int) *SolarDay {
		t.Helper()
		d, err := c.Get(atmos.AZ, atmos.Jul, day, 1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	first := get(0)
	get(1)
	if get(0) != first {
		t.Fatal("a resident day was rebuilt")
	}
	get(2) // evicts day 1, the least recently used
	snap := c.Metrics()
	if got := snap.Counters[MetricDayEvictions]; got != 1 {
		t.Fatalf("%s = %g, want 1", MetricDayEvictions, got)
	}
	get(0) // still resident
	get(1) // evicted: built again, evicting day 2
	snap = c.Metrics()
	if b, h, e := snap.Counters[MetricDayBuilds], snap.Counters[MetricDayHits], snap.Counters[MetricDayEvictions]; b != 4 || h != 2 || e != 2 {
		t.Errorf("builds/hits/evictions = %g/%g/%g, want 4/2/2", b, h, e)
	}
}

// TestDayCacheRetriesFailedBuild checks a failed build is not cached:
// its caller gets the error, and the next call builds again and
// succeeds.
func TestDayCacheRetriesFailedBuild(t *testing.T) {
	c := NewDayCache(2)
	boom := errors.New("injected build failure")
	calls := 0
	c.build = func(site atmos.Site, season atmos.Season, day, panels int) (*SolarDay, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return generateDay(site, season, day, panels)
	}
	if _, err := c.Get(atmos.CO, atmos.Jan, 0, 1); !errors.Is(err, boom) {
		t.Fatalf("first Get err = %v, want the injected failure", err)
	}
	if c.days.Len() != 0 {
		t.Fatalf("failed build left %d entries cached", c.days.Len())
	}
	d, err := c.Get(atmos.CO, atmos.Jan, 0, 1)
	if err != nil || d == nil {
		t.Fatalf("retry Get = %v, %v; want a day", d, err)
	}
	if again, _ := c.Get(atmos.CO, atmos.Jan, 0, 1); again != d {
		t.Error("the successful retry was not cached")
	}
	if got := c.Metrics().Counters[MetricDayBuilds]; got != 2 {
		t.Errorf("%s = %g, want 2 (the failure and the retry)", MetricDayBuilds, got)
	}
}

// TestDayCachePanickedBuildReleasesWaiters checks a panicking build
// neither strands the callers waiting on it nor stays cached: waiters
// get an error, the builder's goroutine gets the panic, and the next
// call builds again.
func TestDayCachePanickedBuildReleasesWaiters(t *testing.T) {
	c := NewDayCache(2)
	started, release := make(chan struct{}), make(chan struct{})
	c.build = func(atmos.Site, atmos.Season, int, int) (*SolarDay, error) {
		close(started)
		<-release
		panic("injected build panic")
	}
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Get(atmos.NC, atmos.Oct, 0, 1)
	}()
	<-started
	waited := make(chan error, 1)
	go func() {
		_, err := c.Get(atmos.NC, atmos.Oct, 0, 1)
		waited <- err
	}()
	// The waiter has joined the in-flight build once it counts a hit.
	for c.Metrics().Counters[MetricDayHits] < 1 {
		runtime.Gosched()
	}
	close(release)
	if r := <-panicked; r == nil {
		t.Error("the builder's panic did not reach its caller")
	}
	if err := <-waited; !errors.Is(err, errDayBuildPanicked) {
		t.Errorf("waiter err = %v, want errDayBuildPanicked", err)
	}
	c.build = generateDay
	if _, err := c.Get(atmos.NC, atmos.Oct, 0, 1); err != nil {
		t.Errorf("Get after the panicked build: %v", err)
	}
}
