package sim

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"solarcore/internal/fault"
	"solarcore/internal/mcore"
	"solarcore/internal/obs"
	"solarcore/internal/power"
	"solarcore/internal/thermal"
	"solarcore/internal/workload"
)

// Config describes one day run. Zero-valued fields take the paper's
// defaults: 10-minute tracking periods, 1-minute sub-sampling, 12 V rail,
// one DVFS step of power margin, Table 4 chip.
type Config struct {
	Day *SolarDay
	Mix workload.Mix

	Chip           mcore.Config
	TrackPeriodMin float64
	StepMin        float64
	VNominal       float64
	// MarginSteps is the tracker's protective power margin in DVFS steps.
	// 0 means the default (2); pass a negative value for no margin.
	MarginSteps int
	// DeltaK overrides the converter's ratio perturbation step (0 keeps
	// the converter default).
	DeltaK float64
	// ScanPoints enables the controller's global ratio scan at each
	// tracking session (see mppt.Config.ScanPoints) — needed under partial
	// shading, harmless without it.
	ScanPoints int
	// DVFSTransitionUs charges every per-core operating-point change a
	// stall of this many microseconds (VRM ramp + PLL relock). Zero —
	// the default — models the fast on-chip regulators of the paper's
	// reference [13]; tens of microseconds model conventional off-chip
	// VRMs. The stall is debited from committed instructions.
	DVFSTransitionUs float64
	// EventTracking additionally re-triggers a full MPP tracking session
	// mid-period whenever the available power has drifted more than 15 %
	// from its value at the last session — "the processor starts tuning its
	// load when the controller detects a change in PV power supply"
	// (Figure 12) taken to its event-driven conclusion.
	EventTracking bool
	// SensorError injects multiplicative I/V sensor noise into the
	// controller (see mppt.Config.SensorError).
	SensorError float64
	// Faults installs a deterministic fault-injection schedule (package
	// fault): irradiance bursts, sensor faults, converter faults, core
	// failures, string disconnects, solver faults. A nil or disarmed
	// schedule (every intensity zero) leaves the run byte-identical to a
	// fault-free one — the engine takes the exact clean code path.
	Faults *fault.Schedule
	// Watchdog tunes the MPPT supervision state machine that detects
	// tracking malfunction under faults and falls back to a de-rated
	// Fixed-Power budget (DESIGN.md §11). The zero value takes the
	// defaults; it is only consulted when Faults is armed.
	Watchdog fault.WatchdogConfig
	// Thermal enables the per-core RC die-temperature model and throttle
	// governor; nil runs thermally unconstrained (the paper's setting).
	Thermal *thermal.Config
	// KeepSeries retains the per-sub-sample budget/actual trace.
	KeepSeries bool
	// Ctx, when non-nil, cancels the run cooperatively: every runner
	// checks it at least once per tracking period (or sub-sample) and
	// returns the wrapped context error instead of a partial result.
	Ctx context.Context
	// Observer, when non-nil, receives lifecycle hooks as the run
	// unfolds: OnRunStart/OnRunEnd bracketing the day, one OnTrack per
	// MPPT tracking session, OnAlloc per mid-period DVFS move and OnTick
	// per sub-sample (see package obs). A nil observer costs nothing;
	// the no-op observer's overhead is held under 5 % by the root
	// benchmark BenchmarkRunMPPTNopObserver.
	Observer obs.Observer
}

// canceled reports a pending cancellation on cfg.Ctx, pre-wrapped for
// returning to the caller.
func (c *Config) canceled() error {
	if c.Ctx == nil {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		return fmt.Errorf("sim: run canceled: %w", err)
	}
	return nil
}

func (c *Config) fillDefaults() error {
	if c.Day == nil {
		return fmt.Errorf("sim: config needs a SolarDay")
	}
	if len(c.Mix.Programs) == 0 {
		return fmt.Errorf("sim: config needs a workload mix")
	}
	if c.Chip.Cores == 0 {
		c.Chip = mcore.DefaultConfig()
	}
	if c.TrackPeriodMin <= 0 {
		c.TrackPeriodMin = 10
	}
	if c.StepMin <= 0 {
		c.StepMin = 1
	}
	if c.VNominal <= 0 {
		c.VNominal = 12
	}
	if c.MarginSteps == 0 {
		c.MarginSteps = 2
	}
	if c.MarginSteps < 0 {
		c.MarginSteps = 0
	}
	return nil
}

// Supply is how a day run powers the chip: MPPT tracking under a Table 6
// policy, a fixed budget, the ideal battery or a persistent battery bank.
// Build one with MPPT, Fixed, Battery or Bank. A Supply is an immutable
// value; every Run builds its own allocator, chip and fault context from
// it, so one Supply may serve concurrent runs. A Bank supply is the
// exception: the bank's charge and wear deliberately persist across runs.
type Supply struct {
	kind   supplyKind
	policy string  // MPPT: the Table 6 policy name
	value  float64 // Fixed: the budget in W; Battery, Bank: an efficiency ratio
	bank   *power.Bank
}

type supplyKind int

const (
	kindMPPT supplyKind = iota
	kindFixed
	kindBattery
	kindBank
)

// MPPT tracks the panel's maximum power point and adapts the load under
// the named Table 6 policy (MPPT&IC, MPPT&RR or MPPT&Opt).
func MPPT(policy string) Supply { return Supply{kind: kindMPPT, policy: policy} }

// Fixed is the non-tracking Fixed-Power baseline: the chip is planned for
// a constant budget (greedy LP, Table 6) and runs on solar only while the
// panel's deliverable power covers that budget — the power-transfer
// threshold semantics of Section 6.2.
//
// unit: budgetW=W
func Fixed(budgetW float64) Supply { return Supply{kind: kindFixed, value: budgetW} }

// Battery is the battery-equipped standalone baseline of Section 5: a
// dedicated MPPT charge controller banks the panel's whole-day maximum
// power, de-rated by eff, and the chip consumes it at full speed under a
// stable supply until it runs out.
//
// unit: eff=ratio
func Battery(eff float64) Supply { return Supply{kind: kindBattery, value: eff} }

// Bank is a realistic battery-equipped standalone system (Figure 2-C): a
// dedicated MPPT charge controller harvests trackingEff × the panel MPP;
// the load draws directly from the controller when the sun covers it and
// from the bank otherwise; surplus charges the bank. Unlike Battery's
// idealized energy bucket, the run sees rate limits, asymmetric losses,
// self-discharge, the depth-of-discharge floor and cycling wear. The bank
// state persists across runs, so multi-day deployments chain runs.
//
// unit: trackingEff=ratio
func Bank(bank *power.Bank, trackingEff float64) Supply {
	return Supply{kind: kindBank, value: trackingEff, bank: bank}
}

// source is one run's mode-specific state behind a Supply: what budget
// applies at each tick and whether, and for how long, the demand runs on
// solar. Everything the modes share lives in Run.
type source interface {
	// period opens the tracking period starting at minute t0.
	period(t0 float64)
	// tick decides the sub-sample [t, t+dt).
	tick(t, dt float64) draw
	// endPeriod closes the period opened at t0.
	endPeriod(t0 float64)
	// finish folds the mode's own totals into the result.
	finish()
}

// draw is one tick's supply decision.
type draw struct {
	budgetW float64 // power the supply offers, unit: W
	demandW float64 // power the chip draws, unit: W
	// solarMin is how long the demand ran on solar: dt, less when a store
	// runs dry mid-tick, 0 when it did not.
	//
	// unit: min
	solarMin float64
	// stop ends the day after this tick (the battery is empty).
	stop bool
}

// open builds the run's mode-specific state over the fresh chip; fx is
// nil unless cfg carries an armed fault schedule.
func (s Supply) open(cfg *Config, chip *mcore.Chip, res *BankDayResult) (source, *faultCtx, error) {
	switch s.kind {
	case kindMPPT:
		return newTracker(cfg, chip, s.policy, res)
	case kindFixed:
		if s.value <= 0 {
			return nil, nil, fmt.Errorf("sim: fixed budget must be positive, got %v", s.value)
		}
		eta := power.NewConverter().Efficiency
		// No tracker: only power-path faults and core constraints apply.
		fx := newFaultCtx(cfg, nil, eta)
		res.Policy = "Fixed-Power(" + strconv.FormatFloat(s.value, 'g', -1, 64) + "W)"
		return &fixedPlan{chip: chip, budgetW: s.value, avail: deliverable{cfg.Day, eta, fx}}, fx, nil
	}
	if s.kind == kindBank && s.bank == nil {
		return nil, nil, fmt.Errorf("sim: bank required")
	}
	if s.value <= 0 || s.value > 1 {
		return nil, nil, fmt.Errorf("sim: efficiency %v outside (0,1]", s.value)
	}
	_ = chip.SetAllLevels(chip.NumLevels() - 1) // stable supply: run flat out (level is in range)
	// The dedicated charge controller still loses harvest to power-path
	// faults (clouds, string cuts); core faults constrain the chip.
	// Sensor, converter and solver faults have no analogue here.
	fx := newFaultCtx(cfg, nil, 1)
	if s.kind == kindBank {
		res.Policy = "BatteryBank"
		return newBankRun(cfg, chip, fx, s.bank, s.value, res), fx, nil
	}
	res.Policy = "Battery(" + strconv.FormatFloat(s.value*100, 'f', 0, 64) + "%)"
	return newBatteryRun(cfg, chip, fx, s.value), fx, nil
}

// runnerNames label RunStart/RunEnd events per supply kind.
var runnerNames = [...]string{kindMPPT: "MPPT", kindFixed: "Fixed-Power", kindBattery: "Battery", kindBank: "BatteryBank"}

// Run simulates one day of cfg powered by s. The result's bank
// diagnostics are zero unless s is a Bank supply.
func Run(cfg Config, s Supply) (*BankDayResult, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	chip, err := mcore.NewChip(cfg.Chip)
	if err != nil {
		return nil, err
	}
	if err := cfg.Mix.Apply(chip); err != nil {
		return nil, err
	}
	_ = chip.SetAllLevels(mcore.Gated) // fresh chip: Gated is always a valid level
	day := cfg.Day
	res := &BankDayResult{DayResult: DayResult{
		Mix:         cfg.Mix.Name,
		Label:       day.Trace.Label(),
		DaytimeMin:  day.DaytimeMinutes(),
		MPPEnergyWh: day.MPPEnergyWh(),
	}}
	src, fx, err := s.open(&cfg, chip, res)
	if err != nil {
		return nil, err
	}
	runner := runnerNames[s.kind]
	o := cfg.Observer
	start, end := day.StartMinute(), day.EndMinute()
	if o != nil {
		o.OnRunStart(obs.RunStartEvent{
			Runner: runner, Policy: res.Policy, Mix: cfg.Mix.Name,
			Label: res.Label, Cores: chip.NumCores(), StartMin: start, EndMin: end,
		})
	}

	var meter power.EnergyMeter
	ats := power.NewTransferSwitch(power.Utility)
	// A standalone supply (battery, bank) has no utility behind it and no
	// tracking period: the day runs as one period, cancellation is
	// checked every tick, and a tick it cannot power commits nothing.
	standalone := s.kind >= kindBattery
	period := cfg.TrackPeriodMin
	if standalone {
		period = math.Inf(1)
	}
ticks:
	for t0 := start; t0 < end; t0 += period {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		t1 := math.Min(t0+period, end)
		if fx != nil {
			fx.applyAt(t0, chip)
		}
		src.period(t0)
		for t := t0; t < t1-1e-9; t += cfg.StepMin {
			if standalone {
				if err := cfg.canceled(); err != nil {
					// A bank has already absorbed this run's partial
					// history; chained deployments should discard it.
					return nil, err
				}
			}
			dt := math.Min(cfg.StepMin, t1-t)
			if fx != nil {
				fx.applyAt(t, chip)
			}
			d := src.tick(t, dt)
			onSolar, actual := d.solarMin > 0, 0.0
			if onSolar {
				actual = d.demandW
				ats.Select(power.Solar)
				meter.Add(power.Solar, actual, d.solarMin)
				res.SolarMin += d.solarMin
				g := chip.Throughput(t) * d.solarMin * 60
				res.GInstrSolar += g
				res.GInstrTotal += g
			} else if !standalone {
				// The utility carries the tick.
				ats.Select(power.Utility)
				meter.Add(power.Utility, d.demandW, dt)
				res.GInstrTotal += chip.Throughput(t) * dt * 60
			}
			if o != nil {
				o.OnTick(obs.TickEvent{Minute: t, BudgetW: d.budgetW, DemandW: d.demandW, OnSolar: onSolar})
			}
			if cfg.KeepSeries {
				res.Series = append(res.Series, TracePoint{Minute: t, BudgetW: d.budgetW, ActualW: actual, OnSolar: onSolar})
			}
			if d.stop {
				break ticks
			}
		}
		src.endPeriod(t0)
	}
	if fx != nil {
		res.Faults = fx.finish(end)
	}
	res.SolarWh = meter.EnergyWh(power.Solar)
	res.UtilityWh = meter.EnergyWh(power.Utility)
	if s.kind == kindMPPT {
		// Only MPPT reports its switch; Fixed-Power's switches are a
		// known under-report, left at 0 until results carry a model
		// epoch (ROADMAP).
		res.ATSSwitches = ats.Switches()
	}
	src.finish()
	if o != nil {
		o.OnRunEnd(runEndEvent(runner, &res.DayResult))
	}
	return res, nil
}

// runEndEvent folds a finished day's totals into the closing hook event.
func runEndEvent(runner string, res *DayResult) obs.RunEndEvent {
	return obs.RunEndEvent{
		Runner:      runner,
		SolarWh:     res.SolarWh,
		UtilityWh:   res.UtilityWh,
		SolarMin:    res.SolarMin,
		DaytimeMin:  res.DaytimeMin,
		Overloads:   res.Overloads,
		Transitions: res.Transitions,
		ATSSwitches: res.ATSSwitches,
		// Zero on fault-free runs, so the encoded event is unchanged.
		FaultsInjected:  res.Faults.Injected,
		BrownoutSheds:   res.Faults.BrownoutSheds,
		WatchdogTrips:   res.Faults.WatchdogTrips,
		FallbackPeriods: res.Faults.FallbackPeriods,
		SolverFaults:    res.Faults.SolverFaults,
		RecoveryMin:     res.Faults.RecoveryMin,
	}
}
