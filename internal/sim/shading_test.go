package sim

import (
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/pv"
	"solarcore/internal/thermal"
)

func thermalDefault() thermal.Config { return thermal.DefaultConfig() }

// shadedDay builds a clear AZ January day on a single BP3180N whose middle
// bypass group sits at 30 % irradiance all day (a fixed obstruction).
func shadedDay(t *testing.T) *SolarDay {
	t.Helper()
	gen := pv.PartiallyShadedModule(pv.BP3180N(), []float64{1, 0.3, 1})
	tr := atmos.Generate(atmos.AZ, atmos.Jan, atmos.GenConfig{})
	day, err := NewSolarDayGen(tr, gen, pv.BP3180N())
	if err != nil {
		t.Fatal(err)
	}
	return day
}

func TestPartiallyShadedModuleMultiPeak(t *testing.T) {
	gen := pv.PartiallyShadedModule(pv.BP3180N(), []float64{1, 0.3, 1})
	peaks := gen.LocalMPPs(pv.STC)
	if len(peaks) < 2 {
		t.Fatalf("%d peaks, want ≥ 2 for an in-module shadow", len(peaks))
	}
	// Voc stays module-scale (the groups are fractions of one module).
	if voc := gen.OpenCircuitVoltage(pv.STC); voc < 35 || voc > 50 {
		t.Errorf("shaded-module Voc = %.1f V, want module-scale", voc)
	}
}

func TestScanOnTrackRecoversShadedEnergy(t *testing.T) {
	day := shadedDay(t)
	base := Config{Day: day, Mix: mix(t, "M1"), StepMin: 2}

	plain, err := Run(base, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	scan := base
	scan.ScanPoints = 24
	scanned, err := Run(scan, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	// On this deterministic multi-peak day the global scan recovers energy
	// the plain Figure 9 climb leaves on the decoy peak.
	if scanned.SolarWh <= plain.SolarWh*1.02 {
		t.Errorf("scan did not recover shaded energy: %.0f Wh vs plain %.0f Wh",
			scanned.SolarWh, plain.SolarWh)
	}
	if scanned.Utilization() < 0.5 {
		t.Errorf("scan utilization %.3f — shaded tracking broken", scanned.Utilization())
	}
}

func TestScanHarmlessOnUniformPanel(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Jan, "M1")
	plain, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ScanPoints = 24
	scanned, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if diff := scanned.Utilization() - plain.Utilization(); diff < -0.03 {
		t.Errorf("scan cost %.3f utilization on a uniform panel", -diff)
	}
}

func TestNewSolarDayGenValidation(t *testing.T) {
	tr := atmos.Generate(atmos.AZ, atmos.Jan, atmos.GenConfig{})
	if _, err := NewSolarDayGen(tr, nil, pv.BP3180N()); err == nil {
		t.Error("nil generator should error")
	}
	if _, err := NewSolarDayGen(nil, pv.NewModule(pv.BP3180N()), pv.BP3180N()); err == nil {
		t.Error("nil trace should error")
	}
}

func TestThermalThrottlingInEngine(t *testing.T) {
	// A strict 72 °C trip point on a Phoenix July afternoon forces
	// throttling; the unconstrained run commits more work.
	cfg := cfgFor(t, atmos.AZ, atmos.Jul, "H1")
	free, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	tc := thermalDefault()
	tc.TMaxC = 72
	tc.THystC = 6
	cfg.Thermal = &tc
	hot, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if hot.ThrottleEvents == 0 {
		t.Fatalf("no throttle events at peak %.1f °C", hot.PeakTempC)
	}
	if hot.PTP() >= free.PTP() {
		t.Errorf("thermal cap should cost work: %.0f vs %.0f", hot.PTP(), free.PTP())
	}
	if hot.PeakTempC > tc.TMaxC+5 {
		t.Errorf("governor lost control: peak %.1f °C", hot.PeakTempC)
	}
	if free.ThrottleEvents != 0 || free.PeakTempC != 0 {
		t.Error("unconstrained run should report no thermal data")
	}
}
