// Package obs is the simulation stack's observability layer: a hook
// interface the discrete-time engine (internal/sim) and the MPPT
// controller (internal/mppt) invoke as a run unfolds, a metrics registry
// of counters/gauges/histograms with snapshot export and cross-fleet
// merging, and a JSONL event sink with a versioned, round-trip-tested
// schema.
//
// The package is stdlib-only and designed so that the disabled path is
// free: a nil Observer in sim.Config skips every hook, and the no-op
// observer (Nop) costs one dynamic call per event — benchmarked at under
// 5 % of an MPPT day (BenchmarkRunMPPTNopObserver vs BenchmarkRunMPPT
// at the repository root).
//
// Event semantics follow the paper's control structure: one RunStartEvent
// and one RunEndEvent bracket a day; each 10-minute tracking period opens
// with a TrackEvent from the controller (the Figure 9 perturb-and-observe
// session: final transfer ratio k, tuning steps consumed, settled load,
// per-core DVFS levels); AllocEvents record individual per-core DVFS
// moves outside the tracking session (mid-period load adaptation and the
// protective power margin of Section 4.3); TickEvents sample the tracked
// vs. available power at every simulation sub-sample — the two curves of
// Figures 13-14.
package obs

// Observer receives simulation lifecycle hooks. Implementations must be
// safe for the call pattern of one run: hooks arrive sequentially from a
// single goroutine, but distinct runs may drive distinct observers
// concurrently. Hook calls must not retain the Levels slice of a
// TrackEvent beyond the call unless they copy it.
type Observer interface {
	// OnRunStart opens a run: one call, before any other hook.
	OnRunStart(RunStartEvent)
	// OnTrack reports one MPPT tracking session (Figure 9), invoked by
	// the controller at each tracking period.
	OnTrack(TrackEvent)
	// OnAlloc reports one per-core DVFS move outside a tracking session.
	OnAlloc(AllocEvent)
	// OnTick reports one simulation sub-sample.
	OnTick(TickEvent)
	// OnRunEnd closes a run: one call, after every other hook. It is not
	// invoked when the run aborts with an error (including cancellation).
	OnRunEnd(RunEndEvent)
	// OnFault reports one injected fault window edge (DESIGN.md §11).
	OnFault(FaultEvent)
	// OnWatchdog reports one MPPT-supervision state transition.
	OnWatchdog(WatchdogEvent)
}

// RunStartEvent announces a starting day run.
type RunStartEvent struct {
	// Runner names the engine entry point: "MPPT", "Fixed-Power",
	// "Battery" or "BatteryBank".
	Runner string `json:"runner"`
	// Policy is the Table 6 policy name (MPPT runs) or baseline label.
	Policy string `json:"policy"`
	// Mix is the Table 5 workload mix name.
	Mix string `json:"mix"`
	// Label identifies the weather trace, e.g. "Jul@AZ".
	Label string `json:"label"`
	// Cores is the simulated core count.
	Cores int `json:"cores"`
	// StartMin and EndMin bound the simulated daytime span in minutes
	// since midnight.
	StartMin float64 `json:"start_min"`
	EndMin   float64 `json:"end_min"`
}

// TrackEvent reports one MPPT tracking session — the three-step
// perturb-and-observe loop of Figure 9 — as the controller settled it.
type TrackEvent struct {
	// Minute is the session trigger time in minutes since midnight.
	Minute float64 `json:"minute"`
	// K is the converter transfer ratio the session settled on
	// (dimensionless).
	K float64 `json:"k"`
	// Steps is the number of tuning actions (k perturbations and DVFS
	// moves) the session consumed.
	Steps int `json:"steps"`
	// Overload means the panel could not support even the minimum load;
	// the period runs on the utility.
	Overload bool `json:"overload"`
	// LoadW is the chip demand the session raised the load to (W).
	LoadW float64 `json:"load_w"`
	// SensedW is the load power as the controller's I/V sensors report
	// it (W) — differs from LoadW under injected sensor error.
	SensedW float64 `json:"sensed_w"`
	// Levels holds the per-core DVFS levels after the session
	// (mcore.Gated is -1). Copy before retaining.
	Levels []int `json:"levels"`
}

// Reasons an AllocEvent reports.
const (
	// AllocMargin is a protective-power-margin shed at the end of a
	// tracking session (Section 4.3).
	AllocMargin = "margin"
	// AllocShed is a mid-period shed: demand drifted over the budget.
	AllocShed = "shed"
	// AllocRaise is a mid-period raise: the supply recovered beyond the
	// hysteresis band.
	AllocRaise = "raise"
	// AllocRevert undoes a probing raise that overshot the budget.
	AllocRevert = "revert"
	// AllocBrownout is a brownout-guard shed: the rail voltage sagged
	// below tolerance under an injected power-path fault and the engine
	// shed load within the same sub-sample (DESIGN.md §11).
	AllocBrownout = "brownout"
)

// AllocEvent reports one per-core DVFS move performed outside a tracking
// session (the Figure 12 mid-period load adaptation, or the protective
// margin at session end).
type AllocEvent struct {
	// Minute is the move time in minutes since midnight.
	Minute float64 `json:"minute"`
	// Dir is +1 for a raise, -1 for a lower.
	Dir int `json:"dir"`
	// Reason is one of AllocMargin, AllocShed, AllocRaise, AllocRevert.
	Reason string `json:"reason"`
	// DemandW is the chip demand after the move (W).
	DemandW float64 `json:"demand_w"`
	// BudgetW is the available post-conversion solar power at the move
	// (W); zero for controller-internal moves that carry no budget.
	BudgetW float64 `json:"budget_w"`
}

// TickEvent samples one simulation sub-sample: the tracked (consumed)
// versus available power pair plotted in Figures 13-14.
type TickEvent struct {
	// Minute is the sub-sample time in minutes since midnight.
	Minute float64 `json:"minute"`
	// BudgetW is the maximal deliverable solar power after conversion (W).
	BudgetW float64 `json:"budget_w"`
	// DemandW is the chip draw (W), from whichever supply carries it.
	DemandW float64 `json:"demand_w"`
	// OnSolar reports whether the sub-sample ran on the panel.
	OnSolar bool `json:"on_solar"`
}

// RunEndEvent closes a completed day run with its headline totals.
type RunEndEvent struct {
	// Runner names the engine entry point, matching the RunStartEvent.
	Runner string `json:"runner"`
	// SolarWh and UtilityWh are the energies delivered to the chip.
	SolarWh   float64 `json:"solar_wh"`
	UtilityWh float64 `json:"utility_wh"`
	// SolarMin is the effective solar-powered duration (minutes).
	SolarMin float64 `json:"solar_min"`
	// DaytimeMin is the simulated daytime span (minutes).
	DaytimeMin float64 `json:"daytime_min"`
	// Overloads counts tracking periods that fell back to the utility.
	Overloads int `json:"overloads"`
	// Transitions counts per-core DVFS level changes over the day.
	Transitions uint64 `json:"transitions"`
	// ATSSwitches counts automatic-transfer-switch supply transitions.
	ATSSwitches int `json:"ats_switches"`

	// Fault-path counters (DESIGN.md §11). All are zero — and omitted
	// from the JSONL encoding — on fault-free runs, keeping clean traces
	// byte-identical to pre-fault-layer streams.
	//
	// FaultsInjected counts fault window openings over the run.
	FaultsInjected int `json:"faults_injected,omitempty"`
	// BrownoutSheds counts brownout-guard load sheds.
	BrownoutSheds int `json:"brownout_sheds,omitempty"`
	// WatchdogTrips counts MPPT-supervision trips into fallback.
	WatchdogTrips int `json:"watchdog_trips,omitempty"`
	// FallbackPeriods counts tracking periods run on the de-rated
	// Fixed-Power fallback budget.
	FallbackPeriods int `json:"fallback_periods,omitempty"`
	// SolverFaults counts typed solver faults absorbed instead of
	// aborting the run.
	SolverFaults int `json:"solver_faults,omitempty"`
	// RecoveryMin totals trip-to-recovery durations (minutes).
	RecoveryMin float64 `json:"recovery_min,omitempty"`
}

// Nop is the no-op Observer: every hook returns immediately. Attaching
// it (rather than nil) exercises the full hook path; the root benchmark
// BenchmarkRunMPPTNopObserver holds its overhead under 5 %.
type Nop struct{}

// OnRunStart implements Observer.
func (Nop) OnRunStart(RunStartEvent) {}

// OnTrack implements Observer.
func (Nop) OnTrack(TrackEvent) {}

// OnAlloc implements Observer.
func (Nop) OnAlloc(AllocEvent) {}

// OnTick implements Observer.
func (Nop) OnTick(TickEvent) {}

// OnRunEnd implements Observer.
func (Nop) OnRunEnd(RunEndEvent) {}

// OnFault implements Observer.
func (Nop) OnFault(FaultEvent) {}

// OnWatchdog implements Observer.
func (Nop) OnWatchdog(WatchdogEvent) {}

// Multi fans every hook out to each non-nil observer in order. It
// returns nil when the list has no non-nil entries and the single
// observer itself when it has exactly one, so callers can attach the
// result directly without paying for an empty fan-out.
func Multi(observers ...Observer) Observer {
	var live multi
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multi []Observer

// OnRunStart implements Observer.
func (m multi) OnRunStart(ev RunStartEvent) {
	for _, o := range m {
		o.OnRunStart(ev)
	}
}

// OnTrack implements Observer.
func (m multi) OnTrack(ev TrackEvent) {
	for _, o := range m {
		o.OnTrack(ev)
	}
}

// OnAlloc implements Observer.
func (m multi) OnAlloc(ev AllocEvent) {
	for _, o := range m {
		o.OnAlloc(ev)
	}
}

// OnTick implements Observer.
func (m multi) OnTick(ev TickEvent) {
	for _, o := range m {
		o.OnTick(ev)
	}
}

// OnRunEnd implements Observer.
func (m multi) OnRunEnd(ev RunEndEvent) {
	for _, o := range m {
		o.OnRunEnd(ev)
	}
}

// OnFault implements Observer.
func (m multi) OnFault(ev FaultEvent) {
	for _, o := range m {
		o.OnFault(ev)
	}
}

// OnWatchdog implements Observer.
func (m multi) OnWatchdog(ev WatchdogEvent) {
	for _, o := range m {
		o.OnWatchdog(ev)
	}
}
