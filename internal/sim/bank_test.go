package sim

import (
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/power"
	"solarcore/internal/pv"
)

func newBank(t *testing.T, capacityWh float64) *power.Bank {
	t.Helper()
	b, err := power.NewBank(power.LeadAcidBank(capacityWh))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// bankDay builds a day on a 2×2 array — a standalone system must size its
// panel above the load, unlike the grid-backed SolarCore design.
func bankDay(t *testing.T, site atmos.Site, season atmos.Season, d int) *SolarDay {
	t.Helper()
	tr := atmos.Generate(site, season, atmos.GenConfig{Day: d})
	day, err := NewSolarDay(tr, pv.BP3180N(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return day
}

func TestRunBatteryBankSunnyDay(t *testing.T) {
	cfg := Config{Day: bankDay(t, atmos.AZ, atmos.Jul, 0), Mix: mix(t, "M1"), StepMin: 2}
	bank := newBank(t, 1500)
	res, err := Run(cfg, Bank(bank, 0.95))
	if err != nil {
		t.Fatal(err)
	}
	if res.GInstrSolar <= 0 {
		t.Error("no work committed")
	}
	if res.SolarWh <= 0 || res.SolarWh > res.MPPEnergyWh {
		t.Errorf("delivered %v Wh of %v available", res.SolarWh, res.MPPEnergyWh)
	}
	if res.Cycles < 0 || res.BatteryLossWh < 0 {
		t.Errorf("diagnostics negative: %+v", res)
	}
	if res.FinalSoC < 0 || res.FinalSoC > 1 {
		t.Errorf("SoC = %v", res.FinalSoC)
	}
	if res.SolarMin+res.HaltMin > res.DaytimeMin+1e-6 {
		t.Error("powered + halted exceeds daytime")
	}
}

func TestRunBatteryBankUndersizedBankBrownsOut(t *testing.T) {
	// A tiny bank on a cloudy TN winter day cannot bridge the gaps: the
	// standalone system halts for part of the day.
	cfg := Config{Day: bankDay(t, atmos.TN, atmos.Jan, 0), Mix: mix(t, "H1"), StepMin: 2}
	bank := newBank(t, 60)
	res, err := Run(cfg, Bank(bank, 0.95))
	if err != nil {
		t.Fatal(err)
	}
	if res.HaltMin <= 0 {
		t.Error("expected brownouts with a 60 Wh bank on a TN winter day")
	}
}

func TestRunBatteryBankWearAccumulates(t *testing.T) {
	// Multi-day deployment: the same bank across days accumulates cycles
	// and fades.
	bank := newBank(t, 800)
	var cycles float64
	for d := 0; d < 3; d++ {
		cfg := Config{Day: bankDay(t, atmos.CO, atmos.Oct, d), Mix: mix(t, "M2"), StepMin: 2}
		res, err := Run(cfg, Bank(bank, 0.95))
		if err != nil {
			t.Fatal(err)
		}
		cycles += res.Cycles
	}
	if cycles <= 0 {
		t.Error("no cycling recorded across three days")
	}
	if bank.CapacityWh() >= power.LeadAcidBank(800).CapacityWh {
		t.Error("capacity did not fade across the deployment")
	}
}

func TestRunBatteryBankValidation(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Jan, "H1")
	if _, err := Run(cfg, Bank(nil, 0.95)); err == nil {
		t.Error("nil bank should error")
	}
	bank := newBank(t, 100)
	if _, err := Run(cfg, Bank(bank, 0)); err == nil {
		t.Error("zero tracking efficiency should error")
	}
	if _, err := Run(cfg, Bank(bank, 1.5)); err == nil {
		t.Error("tracking efficiency > 1 should error")
	}
	if _, err := Run(Config{}, Bank(bank, 0.95)); err == nil {
		t.Error("missing day should error")
	}
}
