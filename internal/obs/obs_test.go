package obs

import (
	"math"
	"testing"
)

// recorder counts hook invocations.
type recorder struct {
	starts, tracks, allocs, ticks, ends, faults, watchdogs int
}

func (r *recorder) OnRunStart(RunStartEvent) { r.starts++ }
func (r *recorder) OnTrack(TrackEvent)       { r.tracks++ }
func (r *recorder) OnAlloc(AllocEvent)       { r.allocs++ }
func (r *recorder) OnTick(TickEvent)         { r.ticks++ }
func (r *recorder) OnRunEnd(RunEndEvent)     { r.ends++ }
func (r *recorder) OnFault(FaultEvent)       { r.faults++ }
func (r *recorder) OnWatchdog(WatchdogEvent) { r.watchdogs++ }

func TestMultiFansOut(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	m := Multi(a, nil, b)
	drive(m)
	m.OnFault(FaultEvent{Minute: 600, Kind: "cloud", Intensity: 0.5, Phase: FaultBegin})
	m.OnWatchdog(WatchdogEvent{Minute: 610, From: "tracking", To: "suspect"})
	for _, r := range []*recorder{a, b} {
		if r.starts != 1 || r.tracks != 1 || r.allocs != 1 || r.ticks != 1 || r.ends != 1 ||
			r.faults != 1 || r.watchdogs != 1 {
			t.Errorf("recorder = %+v, want one of each", r)
		}
	}
}

func TestMultiCollapses(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live observers should be nil")
	}
	r := &recorder{}
	if got := Multi(nil, r); got != Observer(r) {
		t.Errorf("Multi of one observer should return it directly, got %T", got)
	}
}

func TestNopImplementsObserver(t *testing.T) {
	var o Observer = Nop{}
	drive(o) // must not panic
}

func TestMetricsObserver(t *testing.T) {
	reg := NewRegistry()
	m := Metrics(reg)
	drive(m)
	m.OnTrack(TrackEvent{Minute: 310, K: 2.5, Steps: 7, Overload: true})
	m.OnTick(TickEvent{Minute: 302, BudgetW: 50, DemandW: 60, OnSolar: false})
	m.OnAlloc(AllocEvent{Minute: 303, Dir: +1, Reason: AllocRaise})

	s := reg.Snapshot()
	wantCounters := map[string]float64{
		MetricRuns:        1,
		MetricTicks:       2,
		MetricSolarTicks:  1,
		MetricTracks:      2,
		MetricOverloads:   1,
		MetricAllocs:      2,
		MetricAllocRaises: 1,
		MetricAllocLowers: 1,
		MetricSolarWh:     400.125,
		MetricUtilityWh:   20.5,
		MetricSolarMin:    500,
		MetricTransitions: 1234,
		MetricATSSwitches: 4,
	}
	for name, want := range wantCounters {
		if got := s.Counters[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("counter %s = %v, want %v", name, got, want)
		}
	}
	if got := s.Gauges[MetricTrackK]; got != 2.5 {
		t.Errorf("gauge %s = %v, want 2.5 (last session)", MetricTrackK, got)
	}
	if h := s.Histograms[MetricTrackSteps]; h.Count != 2 || h.Sum != 41+7 {
		t.Errorf("hist %s = %+v", MetricTrackSteps, h)
	}
	// The solar tick in drive(): |49.5-48.75|/49.5.
	h := s.Histograms[MetricTickErr]
	if h.Count != 1 || math.Abs(h.Sum-0.75/49.5) > 1e-12 {
		t.Errorf("hist %s = %+v", MetricTickErr, h)
	}
}
