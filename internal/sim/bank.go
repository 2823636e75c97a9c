package sim

import (
	"math"

	"solarcore/internal/mcore"
	"solarcore/internal/power"
)

// BankDayResult extends DayResult with battery-bank diagnostics from a
// time-coupled standalone run; Run leaves them zero for other supplies.
type BankDayResult struct {
	DayResult

	// Cycles is the bank's equivalent-full-cycle odometer increase.
	Cycles float64
	// CapacityFadeWh is the nameplate capacity lost to cycling this run.
	CapacityFadeWh float64
	// BatteryLossWh is the conversion + self-discharge energy lost.
	BatteryLossWh float64
	// HaltMin counts minutes the load was unpowered (bank dry, sun
	// insufficient) — a standalone system has no utility to fall back on.
	HaltMin float64
	// FinalSoC is the bank state of charge at the end of the run.
	FinalSoC float64
}

// batteryRun is the ideal battery: the dedicated charge controller
// banks the whole day's de-rated MPP energy up front, and the chip draws
// it flat out until it runs dry.
type batteryRun struct {
	chip *mcore.Chip
	bat  power.BatterySystem
}

func newBatteryRun(cfg *Config, chip *mcore.Chip, fx *faultCtx, eff float64) *batteryRun {
	b := &batteryRun{chip: chip, bat: power.BatterySystem{Eff: eff}}
	harvestAt := cfg.Day.MPPAt
	if fx != nil {
		harvestAt = fx.mppAt
	}
	start, end := cfg.Day.StartMinute(), cfg.Day.EndMinute()
	for t := start; t < end-1e-9; t += cfg.StepMin {
		b.bat.Harvest(harvestAt(t), math.Min(cfg.StepMin, end-t))
	}
	return b
}

func (b *batteryRun) period(float64) {}

// tick draws the demand from the store; the battery supplies on demand
// while charged, so the offered power equals the demand.
func (b *batteryRun) tick(t, dt float64) draw {
	demand := b.chip.Power(t)
	got := b.bat.Draw(demand, dt)
	return draw{budgetW: demand, demandW: demand, solarMin: got, stop: got <= 0}
}

func (b *batteryRun) endPeriod(float64) {}

func (b *batteryRun) finish() {}

// bankRun is the time-coupled battery bank: the load draws from the
// charge controller when the sun covers it and from the bank otherwise;
// a tick neither can power browns the load out.
type bankRun struct {
	chip  *mcore.Chip
	bank  *power.Bank
	eff   float64 // charge controller tracking efficiency, unit: ratio
	mppAt func(t float64) float64
	res   *BankDayResult

	cycles0, cap0, loss0 float64 // bank odometers at the run's start
}

func newBankRun(cfg *Config, chip *mcore.Chip, fx *faultCtx, bank *power.Bank, eff float64, res *BankDayResult) *bankRun {
	b := &bankRun{chip: chip, bank: bank, eff: eff, mppAt: cfg.Day.MPPAt, res: res,
		cycles0: bank.EquivalentFullCycles(), cap0: bank.CapacityWh(), loss0: bank.LossWh()}
	if fx != nil {
		b.mppAt = fx.mppAt
	}
	return b
}

func (b *bankRun) period(float64) {}

func (b *bankRun) tick(t, dt float64) draw {
	harvest := b.eff * b.mppAt(t)
	demand := b.chip.Power(t)
	direct := math.Min(harvest, demand)
	fromBank := 0.0
	if deficit := demand - direct; deficit > 0 {
		fromBank = b.bank.Discharge(deficit, dt)
	}
	powered := direct+fromBank >= demand*0.999
	if surplus := harvest - direct; surplus > 0 {
		b.bank.Charge(surplus, dt)
	}
	b.bank.Idle(dt)
	d := draw{budgetW: harvest, demandW: demand}
	if powered {
		d.solarMin = dt
	} else {
		// The load browns out: the partial bank draw already left the
		// cells (a real brownout wastes it), but no instructions commit.
		b.res.HaltMin += dt
	}
	return d
}

func (b *bankRun) endPeriod(float64) {}

func (b *bankRun) finish() {
	b.res.Cycles = b.bank.EquivalentFullCycles() - b.cycles0
	b.res.CapacityFadeWh = b.cap0 - b.bank.CapacityWh()
	b.res.BatteryLossWh = b.bank.LossWh() - b.loss0
	b.res.FinalSoC = b.bank.SoC()
}
