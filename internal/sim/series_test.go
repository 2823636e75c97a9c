package sim

import (
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/mcore"
	"solarcore/internal/pv"
	"solarcore/internal/workload"
)

func TestRunMPPTSeries(t *testing.T) {
	var days []*SolarDay
	for d := 0; d < 3; d++ {
		tr := atmos.Generate(atmos.AZ, atmos.Oct, atmos.GenConfig{Day: d})
		day, err := NewSolarDay(tr, pv.BP3180N(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		days = append(days, day)
	}
	base := Config{Mix: mix(t, "HM2"), StepMin: 2}
	res, err := RunSeries(base, optTPR, days)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 3 {
		t.Fatalf("days = %d", len(res.Days))
	}
	if u := res.MeanUtilization(); u < 0.6 || u > 1 {
		t.Errorf("mean utilization %.3f", u)
	}
	if d := res.MeanEffectiveDuration(); d <= 0 || d > 1 {
		t.Errorf("mean duration %.3f", d)
	}
	if res.TotalPTP() <= 0 || res.TotalSolarWh() <= 0 {
		t.Error("series totals empty")
	}
	if e := res.TrackErrGeoMean(); e <= 0 || e > 0.5 {
		t.Errorf("pooled tracking error %.3f", e)
	}
	// Totals are the sum of days.
	sum := 0.0
	for _, d := range res.Days {
		sum += d.PTP()
	}
	if sum != res.TotalPTP() {
		t.Error("TotalPTP mismatch")
	}
}

func TestRunMPPTSeriesErrors(t *testing.T) {
	if _, err := RunSeries(Config{}, optTPR, nil); err == nil {
		t.Error("empty series should error")
	}
	tr := atmos.Generate(atmos.AZ, atmos.Jan, atmos.GenConfig{})
	day, _ := NewSolarDay(tr, pv.BP3180N(), 1, 1)
	// Missing mix: the per-day run must fail and surface the day index.
	if _, err := RunSeries(Config{}, optTPR, []*SolarDay{day}); err == nil {
		t.Error("bad base config should error")
	}
}

func TestDeltaKOverride(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Apr, "M1")
	cfg.DeltaK = 0.001 // very fine perturbation still tracks
	res, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization() < 0.5 {
		t.Errorf("fine Δk utilization %.3f", res.Utilization())
	}
}

func TestSensorErrorThroughEngine(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Apr, "M1")
	cfg.SensorError = 0.02
	res, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization() < 0.5 {
		t.Errorf("noisy-sensor utilization %.3f", res.Utilization())
	}
}

func TestBigLittleChipTracksDay(t *testing.T) {
	// Section 4.2's orthogonality claim: the same controller and policies
	// manage a heterogeneous chip without modification.
	cfg := cfgFor(t, atmos.AZ, atmos.Apr, "HM2")
	cfg.Chip = mcore.BigLittleConfig()
	res, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization() < 0.6 {
		t.Errorf("big.LITTLE utilization %.3f", res.Utilization())
	}
	if res.PTP() <= 0 {
		t.Error("big.LITTLE committed nothing")
	}
}

func TestDVFSTransitionCost(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Jul, "HM2")
	free, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if free.Transitions == 0 {
		t.Fatal("a tracking day should record DVFS transitions")
	}
	cfg.DVFSTransitionUs = 50 // conventional off-chip VRM
	slow, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if slow.PTP() >= free.PTP() {
		t.Errorf("transition stalls should cost work: %v vs %v", slow.PTP(), free.PTP())
	}
	// The paper's [13] point: even 50 µs per transition barely matters at
	// 10-minute tracking granularity (< 1 % of PTP).
	if loss := 1 - slow.PTP()/free.PTP(); loss > 0.01 {
		t.Errorf("transition loss %.4f, want < 1%%", loss)
	}
}

func TestATSSwitchAccounting(t *testing.T) {
	// A cloudy TN winter day forces the ATS back and forth; a clear AZ July
	// day barely needs the utility.
	cloudy, err := Run(cfgFor(t, atmos.TN, atmos.Jan, "M1"), optTPR)
	if err != nil {
		t.Fatal(err)
	}
	clear, err := Run(cfgFor(t, atmos.AZ, atmos.Jul, "M1"), optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if cloudy.ATSSwitches < 2 {
		t.Errorf("cloudy day recorded only %d ATS switches", cloudy.ATSSwitches)
	}
	if clear.ATSSwitches > cloudy.ATSSwitches {
		t.Errorf("clear day (%d) switched more than cloudy (%d)", clear.ATSSwitches, cloudy.ATSSwitches)
	}
}

func TestDayRunDeterministic(t *testing.T) {
	// The entire pipeline is deterministic: identical configs produce
	// byte-identical results (the property Workflow-style reproduction of
	// EXPERIMENTS.md relies on).
	run := func() *BankDayResult {
		cfg := cfgFor(t, atmos.NC, atmos.Apr, "HM2")
		res, err := Run(cfg, optTPR)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.SolarWh != b.SolarWh || a.GInstrSolar != b.GInstrSolar ||
		a.UtilityWh != b.UtilityWh || a.Transitions != b.Transitions ||
		a.ATSSwitches != b.ATSSwitches || len(a.PeriodErrs) != len(b.PeriodErrs) {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
	for i := range a.PeriodErrs {
		if a.PeriodErrs[i] != b.PeriodErrs[i] {
			t.Fatalf("period error %d differs", i)
		}
	}
}

func TestSyntheticMixThroughEngine(t *testing.T) {
	m, err := workload.SyntheticMix("S42", 2, 4, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Day: testDay(t, atmos.CO, atmos.Jul), Mix: m, StepMin: 2}
	res, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization() < 0.6 {
		t.Errorf("synthetic mix utilization %.3f", res.Utilization())
	}
}
