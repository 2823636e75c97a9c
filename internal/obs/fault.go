package obs

// Fault-injection observability (DESIGN.md §11): two event kinds —
// FaultEvent marking an injector's window opening and closing, and
// WatchdogEvent marking MPPT-supervision state transitions — delivered
// through the OnFault and OnWatchdog hooks of Observer.

// FaultEvent phases.
const (
	// FaultBegin marks an injector's window opening at this sample.
	FaultBegin = "begin"
	// FaultEnd marks an injector's window closing at this sample.
	FaultEnd = "end"
)

// FaultEvent reports one injected fault crossing its activity-window
// edge. The engine diffs the active injector set between consecutive
// samples and emits one event per kind per edge.
type FaultEvent struct {
	// Minute is the sample time in minutes since midnight.
	Minute float64 `json:"minute"`
	// Kind is the injector spec keyword (fault.Kinds).
	Kind string `json:"kind"`
	// Intensity is the injector's severity knob in [0,1].
	Intensity float64 `json:"intensity"`
	// Phase is FaultBegin or FaultEnd.
	Phase string `json:"phase"`
}

// WatchdogEvent reports one MPPT-supervision state transition
// (fault.Mode names: tracking, suspect, fallback, recovering).
type WatchdogEvent struct {
	// Minute is the tracking period start in minutes since midnight.
	Minute float64 `json:"minute"`
	// From and To name the modes of the transition.
	From string `json:"from"`
	To   string `json:"to"`
	// Reason is a short cause, e.g. "unhealthy", "trip", "hold-elapsed",
	// "recovered", "relapse", "brownout".
	Reason string `json:"reason"`
	// FallbackBudgetW is the de-rated Fixed-Power budget a transition
	// into fallback planned against (W); zero otherwise.
	FallbackBudgetW float64 `json:"fallback_budget_w"`
}

// Fault-path metric names (DESIGN.md §11). All stay at zero — and absent
// from snapshots — on fault-free runs.
const (
	// MetricFaults counts fault window openings (FaultBegin events).
	MetricFaults = "faults_injected_total"
	// MetricBrownoutSheds counts brownout-guard load sheds.
	MetricBrownoutSheds = "brownout_sheds_total"
	// MetricWatchdogTrips counts supervision trips into fallback.
	MetricWatchdogTrips = "watchdog_trips_total"
	// MetricFallbackPeriods counts tracking periods spent in fallback.
	MetricFallbackPeriods = "watchdog_fallback_periods_total"
	// MetricRecoveryMin accumulates trip-to-recovery durations (min).
	MetricRecoveryMin = "watchdog_recovery_min_total"
	// MetricSolverFaults counts typed solver faults absorbed.
	MetricSolverFaults = "solver_faults_total"
)

// OnFault implements Observer.
func (m metricsObserver) OnFault(ev FaultEvent) {
	if ev.Phase == FaultBegin {
		m.reg.Add(MetricFaults, 1)
	}
}

// OnWatchdog implements Observer.
func (m metricsObserver) OnWatchdog(ev WatchdogEvent) {
	if ev.To == "fallback" && ev.From != "fallback" {
		m.reg.Add(MetricWatchdogTrips, 1)
	}
}
