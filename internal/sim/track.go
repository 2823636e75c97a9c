package sim

import (
	"fmt"
	"math"

	"solarcore/internal/fault"
	"solarcore/internal/mathx"
	"solarcore/internal/mcore"
	"solarcore/internal/mppt"
	"solarcore/internal/obs"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
	"solarcore/internal/thermal"
)

// deliverable is the post-conversion power the panel can deliver: the
// clean day profile, or the fault runtime's view when a schedule is armed.
type deliverable struct {
	day *SolarDay
	eta float64 // clean conversion efficiency, unit: ratio
	fx  *faultCtx
}

// at returns the deliverable power at minute t.
//
// unit: t=min, return=W
func (d deliverable) at(t float64) float64 {
	if d.fx != nil {
		return d.fx.budgetAt(t)
	}
	return d.eta * d.day.MPPAt(t)
}

// fixedPlan is the Fixed-Power decision, also the watchdog's fallback:
// the chip is planned once per period for a constant budget and runs on
// solar while the deliverable power covers that budget.
type fixedPlan struct {
	chip    *mcore.Chip
	budgetW float64 // unit: W
	avail   deliverable
}

func (p *fixedPlan) period(t0 float64) { sched.PlanBudget(p.chip, t0, p.budgetW) }

func (p *fixedPlan) tick(t, dt float64) draw {
	avail := p.avail.at(t)
	d := draw{budgetW: avail, demandW: p.chip.Power(t)}
	if avail >= p.budgetW && d.demandW > 0 && d.demandW <= avail {
		d.solarMin = dt
	}
	return d
}

func (p *fixedPlan) endPeriod(float64) {}

func (p *fixedPlan) finish() {}

// tracker is the SolarCore supply: every period the MPPT controller
// tracks the panel and sets the load; between sessions the allocator
// sheds and re-raises load against the moving budget. Under an armed
// fault schedule a watchdog supervises the tracking and, once tripped,
// runs periods on the de-rated Fixed-Power fallback.
type tracker struct {
	cfg     *Config
	ctrl    *mppt.Controller
	fx      *faultCtx
	thermal *thermal.Model
	res     *BankDayResult
	budget  deliverable
	envAt   func(t float64) pv.Env

	// fallback is the de-rated plan of a watchdog fallback period; inFB
	// is set while one runs.
	fallback fixedPlan
	inFB     bool

	track       mppt.Result
	solverErr   error
	onSolar     bool
	trackBudget float64 // unit: W
	// The protective power margin is sized from the observed load ripple
	// (Section 6.1: high-EPI workloads generate large power ripples, so
	// they must keep more headroom and pay a larger tracking error). An
	// EWMA of the relative step-to-step demand change drives the
	// hysteresis band for mid-period load re-raising.
	ripple     float64 // unit: ratio
	prevDemand float64 // unit: W
	errs       []float64
}

// newTracker wires the circuit, controller, fault context and thermal
// model of one MPPT run.
func newTracker(cfg *Config, chip *mcore.Chip, policy string, res *BankDayResult) (source, *faultCtx, error) {
	alloc, ok := sched.ByName(policy)
	if !ok {
		return nil, nil, fmt.Errorf("sim: unknown policy %q", policy)
	}
	circuit := power.NewCircuit(cfg.Day.Gen)
	circuit.VNominal = cfg.VNominal
	if cfg.DeltaK > 0 {
		circuit.Conv.DeltaK = cfg.DeltaK
	}
	// fx is nil unless an armed fault schedule is installed; every fault
	// touch point is gated on it so the clean path is untouched.
	fx := newFaultCtx(cfg, circuit, circuit.Conv.Efficiency)
	mcfg := mppt.Config{MarginSteps: cfg.MarginSteps, SensorError: cfg.SensorError,
		ScanPoints: cfg.ScanPoints, Observer: cfg.Observer}
	tr := &tracker{cfg: cfg, fx: fx, res: res, envAt: cfg.Day.EnvAt, ripple: 0.02,
		budget: deliverable{cfg.Day, circuit.Conv.Efficiency, fx}}
	tr.fallback = fixedPlan{chip: chip, avail: tr.budget}
	if fx != nil {
		mcfg.SenseFault, tr.envAt = fx.rt.Sense, fx.envAt
	}
	var err error
	if tr.ctrl, err = mppt.New(circuit, chip, alloc, mcfg); err != nil {
		return nil, nil, err
	}
	if cfg.Thermal != nil {
		_, amb := cfg.Day.Trace.At(cfg.Day.StartMinute())
		if tr.thermal, err = thermal.NewModel(chip, *cfg.Thermal, amb); err != nil {
			return nil, nil, err
		}
	}
	res.Policy = alloc.Name()
	return tr, fx, nil
}

// tracked adopts a tracking session's outcome and its budget. A session that
// found no solar operating point leaves the chip on the utility, flat
// out (Section 6.3).
//
// unit: budgetW=W
func (tr *tracker) tracked(track mppt.Result, budgetW float64) {
	tr.track, tr.onSolar, tr.trackBudget = track, track.Solar(), budgetW
	tr.prevDemand = 0 // tracking moved the levels; restart ripple pairing
	if !tr.onSolar {
		tr.res.Overloads++
		_ = tr.ctrl.Chip.SetAllLevels(tr.ctrl.Chip.NumLevels() - 1) // top comes from the chip itself
	}
}

func (tr *tracker) period(t0 float64) {
	tr.inFB = tr.fx != nil && tr.fx.wd.Mode() == fault.ModeFallback
	if tr.inFB {
		// Degraded operation: the watchdog abandoned tracking, so this
		// period runs on the de-rated Fixed-Power budget (Table 3
		// de-rating of the actually-available power) and the controller
		// is left alone until the hold elapses. The thermal governor is
		// not advanced: fallback runs well below the clean budget.
		tr.fallback.budgetW = fault.FallbackDerate * tr.budget.at(t0)
		tr.fallback.period(t0)
		return
	}
	tr.solverErr = nil
	if tr.fx != nil {
		tr.solverErr = tr.fx.rt.SolverErr(t0)
	}
	track := mppt.Result{Overload: true}
	if tr.solverErr != nil {
		// A typed solver fault (errors.Is fault.ErrSolverFault) is a
		// degradation trigger, not an abort: the period runs on the
		// utility like an overload and the watchdog counts it toward
		// tripping into fallback.
		tr.fx.report.SolverFaults++
	} else {
		track = tr.ctrl.Track(tr.envAt(t0), t0)
	}
	tr.tracked(track, tr.budget.at(t0))
	tr.errs = tr.errs[:0]
}

// alloc reports one mid-period DVFS move to the observer.
//
// unit: t=min, demandW=W, budgetW=W
func (tr *tracker) alloc(t float64, dir int, reason string, demandW, budgetW float64) {
	if o := tr.cfg.Observer; o != nil {
		o.OnAlloc(obs.AllocEvent{Minute: t, Dir: dir, Reason: reason, DemandW: demandW, BudgetW: budgetW})
	}
}

// tick is one sub-sample: optional event-driven re-tracking, mid-period
// load adaptation, the brownout guard and the thermal governor.
func (tr *tracker) tick(t, dt float64) draw {
	if tr.inFB {
		return tr.fallback.tick(t, dt)
	}
	chip, alloc := tr.ctrl.Chip, tr.ctrl.Alloc
	budget := tr.budget.at(t)
	if tr.cfg.EventTracking && tr.trackBudget > 0 &&
		math.Abs(budget-tr.trackBudget) > 0.15*tr.trackBudget {
		tr.tracked(tr.ctrl.Track(tr.envAt(t), t), budget)
	}
	demand := chip.Power(t)
	// Ripple is the phase-induced demand drift at unchanged DVFS levels:
	// compare against the post-adaptation demand of the previous
	// sub-sample.
	if tr.prevDemand > 0 && demand > 0 {
		tr.ripple = 0.9*tr.ripple + 0.1*(math.Abs(demand-tr.prevDemand)/tr.prevDemand)
	}
	if tr.onSolar {
		// Mid-period load adaptation: the controller "starts tuning its
		// load when it detects a change in PV power supply" (Figure 12).
		// A supply drop or phase swing above the budget sheds load
		// instead of dropping to the utility; a recovering supply
		// re-raises the load once the gap exceeds the hysteresis band,
		// preserving the protective margin.
		for demand > budget && alloc.Lower(chip, t) {
			demand = chip.Power(t)
			tr.alloc(t, -1, obs.AllocShed, demand, budget)
		}
		for budget-demand > mathx.Clamp(5*tr.ripple, 0.12, 0.40)*budget && alloc.Raise(chip, t) {
			next := chip.Power(t)
			if next > budget {
				alloc.Lower(chip, t)
				demand = chip.Power(t)
				tr.alloc(t, -1, obs.AllocRevert, demand, budget)
				break
			}
			demand = next
			tr.alloc(t, +1, obs.AllocRaise, demand, budget)
		}
	}
	if tr.fx != nil && tr.onSolar && demand > 0 && tr.fx.rt.PowerPathActive(t) {
		// Brownout guard: an injected power-path fault can leave the
		// settled rail sagging even under the budget; shed within this
		// sub-sample rather than ride the sag.
		demand = tr.fx.brownout(t, tr.ctrl.Circuit, chip, alloc, demand)
	}
	if tr.thermal != nil {
		// Sub-step at the thermal time constant so the governor can
		// intervene during the transient, as a real ms-scale governor
		// would.
		_, amb := tr.cfg.Day.Trace.At(t)
		inner := tr.cfg.Thermal.TauMin / 10
		if inner <= 0 || inner > dt {
			inner = dt
		}
		for done := 0.0; done < dt-1e-12; done += inner {
			tr.thermal.Advance(t, math.Min(inner, dt-done), amb)
		}
		demand = chip.Power(t) // throttling may have shed load
	}
	tr.prevDemand = demand
	d := draw{budgetW: budget, demandW: demand}
	if tr.onSolar && demand > 0 && demand <= budget {
		d.solarMin = dt
		if budget > 0 {
			tr.errs = append(tr.errs, math.Abs(budget-demand)/budget)
		}
	}
	return d
}

func (tr *tracker) endPeriod(t0 float64) {
	if tr.inFB {
		tr.fx.observeFallback(t0)
		return
	}
	if tr.onSolar && len(tr.errs) > 0 {
		tr.res.PeriodErrs = append(tr.res.PeriodErrs, mathx.Mean(tr.errs))
	}
	if tr.fx != nil {
		// Feed the period's health evidence to the watchdog; a trip
		// makes the next period run in fallback.
		tr.fx.observe(fault.PeriodStats{
			Minute: t0, Overload: tr.track.Overload,
			Steps: tr.track.Steps, MaxSteps: tr.ctrl.Cfg.MaxSteps,
			RaisedToW: tr.track.RaisedTo, SensedW: tr.track.Op.PLoad,
			BudgetW: tr.trackBudget, MinLoadW: tr.ctrl.Chip.MinPower(t0),
			SolverFault: tr.solverErr != nil,
		}, fault.FallbackDerate*tr.trackBudget)
	}
}

func (tr *tracker) finish() {
	res := tr.res
	res.Transitions = tr.ctrl.Chip.Transitions()
	if tr.thermal != nil {
		res.ThrottleEvents, res.PeakTempC = tr.thermal.ThrottleEvents(), tr.thermal.Peak()
	}
	if daySec := res.DaytimeMin * 60; tr.cfg.DVFSTransitionUs > 0 && daySec > 0 {
		// Debit the cumulative transition stall from committed work at
		// the day's mean throughput. Individual stalls are far shorter
		// than a sub-sample, so the aggregate debit is exact to first
		// order.
		stallSec := float64(res.Transitions) * tr.cfg.DVFSTransitionUs * 1e-6
		keep := 1 - math.Min(stallSec/daySec, 1)
		res.GInstrSolar *= keep
		res.GInstrTotal *= keep
	}
}
