package sustain

import (
	"math"
	"strings"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/pv"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

func TestProfileFor(t *testing.T) {
	for _, code := range []string{"AZ", "CO", "NC", "TN"} {
		p := ProfileFor(code)
		if p.CarbonGPerKWh <= 0 || p.PricePerKWh <= 0 {
			t.Errorf("%s: degenerate profile %+v", code, p)
		}
	}
	if ProfileFor("XX").Name != "US average" {
		t.Error("unknown site should get the US average")
	}
	// Coal-heavy Colorado should be the dirtiest of the four grids.
	for _, code := range []string{"AZ", "NC", "TN"} {
		if ProfileFor(code).CarbonGPerKWh >= ProfileFor("CO").CarbonGPerKWh {
			t.Errorf("%s dirtier than CO?", code)
		}
	}
}

func TestAssessArithmetic(t *testing.T) {
	res := &sim.DayResult{SolarWh: 800, UtilityWh: 200}
	gp := GridProfile{CarbonGPerKWh: 500, PricePerKWh: 0.10}
	im := Assess(res, gp)
	if math.Abs(im.CarbonSavedKg-0.4) > 1e-9 {
		t.Errorf("saved = %v kg, want 0.4", im.CarbonSavedKg)
	}
	if math.Abs(im.CarbonEmittedKg-0.1) > 1e-9 {
		t.Errorf("emitted = %v kg, want 0.1", im.CarbonEmittedKg)
	}
	if math.Abs(im.CarbonReduction()-0.8) > 1e-9 {
		t.Errorf("reduction = %v, want 0.8", im.CarbonReduction())
	}
	if math.Abs(im.CostSaved-0.08) > 1e-9 {
		t.Errorf("cost saved = %v, want 0.08", im.CostSaved)
	}
	if !strings.Contains(im.String(), "carbon reduction") {
		t.Error("string missing summary")
	}
	if (Impact{}).CarbonReduction() != 0 {
		t.Error("empty impact should reduce nothing")
	}
}

func TestSum(t *testing.T) {
	a := Impact{SolarKWh: 1, UtilityKWh: 2, CarbonSavedKg: 3, CarbonEmittedKg: 4, CostSaved: 5}
	got := Sum(a, a, a)
	if got.SolarKWh != 3 || got.CostSaved != 15 || got.CarbonEmittedKg != 12 {
		t.Errorf("sum = %+v", got)
	}
}

func TestEndToEndCarbonReduction(t *testing.T) {
	// A clear Phoenix July day under SolarCore eliminates the vast
	// majority of the chip's utility footprint — the paper's motivating
	// claim, measured.
	tr := atmos.Generate(atmos.AZ, atmos.Jul, atmos.GenConfig{})
	day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mix, _ := workload.MixByName("M2")
	res, err := sim.Run(sim.Config{Day: day, Mix: mix, StepMin: 2}, sim.MPPT("MPPT&Opt"))
	if err != nil {
		t.Fatal(err)
	}
	im := Assess(&res.DayResult, ProfileFor("AZ"))
	if im.CarbonReduction() < 0.8 {
		t.Errorf("carbon reduction %.2f on a clear AZ day, want ≥ 0.8", im.CarbonReduction())
	}
	if im.CarbonSavedKg <= 0 || im.CostSaved <= 0 {
		t.Errorf("no savings recorded: %+v", im)
	}
}
