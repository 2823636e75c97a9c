package exp

import (
	"strings"
	"sync"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/workload"
)

// sharedLab is computed once; experiments are read-only over its cache.
var (
	labOnce   sync.Once
	sharedLab *Lab
)

func quickLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		sharedLab = NewLab(Options{Quick: true})
		sharedLab.Prefetch()
	})
	return sharedLab
}

func TestFigure1Shape(t *testing.T) {
	f := Figure1()
	if len(f.Points) != 4 {
		t.Fatalf("points = %d", len(f.Points))
	}
	if f.Points[0].Utilization < 0.97 {
		t.Errorf("matched point utilization = %v", f.Points[0].Utilization)
	}
	// Monotone loss as irradiance departs the matched level.
	for i := 1; i < len(f.Points); i++ {
		if f.Points[i].Utilization >= f.Points[i-1].Utilization {
			t.Errorf("utilization not declining at %v W/m²", f.Points[i].Irradiance)
		}
	}
	// The paper's ">50% energy loss" at 400 W/m².
	if last := f.Points[len(f.Points)-1]; last.Utilization > 0.72 {
		t.Errorf("fixed load at 400 W/m² keeps %.0f%%, want heavy loss", last.Utilization*100)
	}
	if !strings.Contains(f.Render(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestFigure6Shape(t *testing.T) {
	f := Figure6(64)
	if len(f.Curves) != 4 || len(f.MPPs) != 4 {
		t.Fatalf("curve count %d", len(f.Curves))
	}
	for i := 1; i < len(f.MPPs); i++ {
		if f.MPPs[i].P <= f.MPPs[i-1].P {
			t.Error("Pmax should rise with irradiance")
		}
	}
	if !strings.Contains(f.CSV(), "G=1000") {
		t.Error("CSV missing labels")
	}
	if !strings.Contains(f.Render(), "Pmax") {
		t.Error("render missing headers")
	}
}

func TestFigure7Shape(t *testing.T) {
	f := Figure7(64)
	for i := 1; i < len(f.MPPs); i++ {
		if f.MPPs[i].P >= f.MPPs[i-1].P {
			t.Error("Pmax should fall with temperature")
		}
		if f.MPPs[i].V >= f.MPPs[i-1].V {
			t.Error("Vmpp should shift left with temperature")
		}
	}
}

func TestFigures13And14(t *testing.T) {
	l := quickLab(t)
	f13 := Figure13(l)
	f14 := Figure14(l)
	if f13.Label != "Jan@AZ" || f14.Label != "Jul@AZ" {
		t.Errorf("labels %s / %s", f13.Label, f14.Label)
	}
	for _, fig := range []TrackingFigure{f13, f14} {
		if len(fig.Runs) != 3 {
			t.Fatalf("%s: %d runs", fig.Title, len(fig.Runs))
		}
		for i, run := range fig.Runs {
			if len(run.Series) == 0 {
				t.Fatalf("%s %s: empty series", fig.Title, fig.Mixes[i])
			}
		}
		if !strings.Contains(fig.Render(), "budget") {
			t.Error("render missing budget row")
		}
	}
	// High-EPI H1 must track with larger error than low-EPI L1 under the
	// same sky (the paper's ripple observation).
	h1, l1 := f13.Runs[0], f13.Runs[2]
	if h1.TrackErrGeoMean() <= l1.TrackErrGeoMean() {
		t.Errorf("H1 err %.3f not above L1 err %.3f", h1.TrackErrGeoMean(), l1.TrackErrGeoMean())
	}
}

func TestTable7Grid(t *testing.T) {
	l := quickLab(t)
	tb := Table7(l)
	if len(tb.Mixes) != len(l.opts.Mixes()) {
		t.Fatalf("mix count %d", len(tb.Mixes))
	}
	var all []float64
	for _, site := range atmos.Sites {
		for _, season := range atmos.Seasons {
			errs := tb.Err[site.Code][season.String()]
			if len(errs) != len(tb.Mixes) {
				t.Fatalf("%s %s: %d errors", site.Code, season, len(errs))
			}
			all = append(all, errs...)
		}
	}
	for _, e := range all {
		if e < 0 || e > 0.5 {
			t.Errorf("tracking error %v outside a plausible band", e)
		}
	}
	if !strings.Contains(tb.Render(), "Table 7") {
		t.Error("render missing title")
	}
}

func TestFigure15Classes(t *testing.T) {
	l := quickLab(t)
	f := Figure15(l)
	if len(f.Rows) != 16 {
		t.Fatalf("%d rows, want 16 site-seasons", len(f.Rows))
	}
	classes := map[DeclineClass]int{}
	for _, row := range f.Rows {
		if len(row.Normalized) != len(FixedBudgets) {
			t.Fatalf("%s: %d points", row.Label, len(row.Normalized))
		}
		if row.Normalized[0] != 1 && row.Durations[0] > 0 {
			t.Errorf("%s: first point should normalize to 1", row.Label)
		}
		// Duration must not increase with threshold.
		for i := 1; i < len(row.Durations); i++ {
			if row.Durations[i] > row.Durations[i-1]+1e-9 {
				t.Errorf("%s: duration rose with threshold", row.Label)
			}
		}
		classes[row.Class]++
	}
	// The grid must exhibit at least two distinct decline behaviours, as in
	// the paper's three panels.
	if len(classes) < 2 {
		t.Errorf("all 16 patterns fell in one class: %v", classes)
	}
	if !strings.Contains(f.Render(), "Figure 15") {
		t.Error("render missing title")
	}
}

func TestFigures16And17(t *testing.T) {
	l := quickLab(t)
	f16 := Figure16(l)
	f17 := Figure17(l)
	for _, f := range []FixedSweepResult{f16, f17} {
		best := f.BestRatio()
		if best <= 0 || best >= 1 {
			t.Errorf("%s: best ratio %.2f, want inside (0,1) — fixed budgets must lose to tracking", f.Metric, best)
		}
		if !strings.Contains(f.Render(), "normalized") {
			t.Error("render missing title")
		}
	}
	// The headline: best fixed PTP well below SolarCore.
	if f17.BestRatio() > 0.85 {
		t.Errorf("best fixed PTP ratio %.2f, want clearly below 1", f17.BestRatio())
	}
}

func TestFigure18Utilization(t *testing.T) {
	l := quickLab(t)
	f := Figure18(l)
	avg := f.OverallAverage("MPPT&Opt")
	if avg < 0.75 || avg > 0.95 {
		t.Errorf("overall utilization %.3f, want in the paper's ~0.82 regime", avg)
	}
	// Resource ordering: AZ utilization ≥ TN utilization.
	if f.SiteAverage("AZ", "MPPT&Opt") <= f.SiteAverage("TN", "MPPT&Opt") {
		t.Error("AZ should utilize at least as well as TN")
	}
	if f.BatteryBands["Moderate"] <= f.BatteryBands["Low"] || f.BatteryBands["High"] <= f.BatteryBands["Moderate"] {
		t.Error("battery bands out of order")
	}
	if !strings.Contains(f.Render(), "Figure 18") {
		t.Error("render missing title")
	}
}

func TestFigure19Durations(t *testing.T) {
	l := quickLab(t)
	f := Figure19(l)
	for _, site := range atmos.Sites {
		shares := f.SolarShare[site.Code]
		if len(shares) != 4 {
			t.Fatalf("%s: %d seasons", site.Code, len(shares))
		}
		for si, s := range shares {
			if s < 0.3 || s > 1 {
				t.Errorf("%s %s: solar share %.2f implausible", site.Code, atmos.Seasons[si], s)
			}
		}
	}
	if !strings.Contains(f.Render(), "Figure 19") {
		t.Error("render missing title")
	}
}

func TestFigure20Buckets(t *testing.T) {
	l := quickLab(t)
	f := Figure20(l)
	if len(f.Buckets) != 5 {
		t.Fatalf("%d buckets", len(f.Buckets))
	}
	total := 0
	for _, b := range f.Buckets {
		total += b.Samples
	}
	want := 16 * len(l.opts.Mixes()) * len(MPPTPolicies)
	if total > want {
		t.Errorf("bucketed %d runs, more than grid size %d", total, want)
	}
	if total < want/2 {
		t.Errorf("bucketed only %d of %d runs — durations outside all buckets?", total, want)
	}
	if !strings.Contains(f.Render(), "Figure 20") {
		t.Error("render missing title")
	}
}

func TestFigure21Ordering(t *testing.T) {
	l := quickLab(t)
	f := Figure21(l)
	opt, rr, ic := f.Average("MPPT&Opt"), f.Average("MPPT&RR"), f.Average("MPPT&IC")
	bu := f.Average("Battery-U")
	if !(opt > rr && rr > ic) {
		t.Errorf("policy ordering broken: Opt %.3f RR %.3f IC %.3f", opt, rr, ic)
	}
	if bu <= 1 {
		t.Errorf("Battery-U %.3f should beat Battery-L (1.0)", bu)
	}
	// Rough factors from the paper: Opt/RR in [1.05, 1.30], Opt/IC ≥ 1.15.
	if r := opt / rr; r < 1.02 || r > 1.35 {
		t.Errorf("Opt/RR = %.3f outside plausible band", r)
	}
	if r := opt / ic; r < 1.10 {
		t.Errorf("Opt/IC = %.3f, want a large gap", r)
	}
	if f.Average("nope") != 0 {
		t.Error("unknown series should average 0")
	}
	if !strings.Contains(f.Render(), "Figure 21") {
		t.Error("render missing title")
	}
}

func TestHeadlines(t *testing.T) {
	l := quickLab(t)
	h := Headlines(l)
	if h.AvgUtilization < 0.75 || h.AvgUtilization > 0.95 {
		t.Errorf("utilization headline %.3f", h.AvgUtilization)
	}
	if h.OptOverRR <= 0 {
		t.Errorf("Opt over RR %.3f, want positive", h.OptOverRR)
	}
	if h.OptOverIC <= h.OptOverRR {
		t.Errorf("Opt should gain more over IC (%.3f) than over RR (%.3f)", h.OptOverIC, h.OptOverRR)
	}
	if h.OptOverBestFixed < 0.20 {
		t.Errorf("Opt over best fixed %.3f, want a large advantage", h.OptOverBestFixed)
	}
	out := h.Render()
	if !strings.Contains(out, "paper") || !strings.Contains(out, "measured") {
		t.Error("headline render incomplete")
	}
}

func TestLabCaching(t *testing.T) {
	l := quickLab(t)
	m := l.opts.Mixes()[0]
	a := l.MPPT(atmos.AZ, atmos.Jan, m, "MPPT&Opt")
	b := l.MPPT(atmos.AZ, atmos.Jan, m, "MPPT&Opt")
	if a != b {
		t.Error("cache miss on identical run")
	}
	d1 := l.Day(atmos.CO, atmos.Jul)
	d2 := l.Day(atmos.CO, atmos.Jul)
	if d1 != d2 {
		t.Error("day cache miss")
	}
}

func TestOptionsMixes(t *testing.T) {
	full := Options{}
	if len(full.Mixes()) != len(workload.Mixes) {
		t.Error("full options should return every mix")
	}
	quick := Options{Quick: true}
	if n := len(quick.Mixes()); n != 3 {
		t.Errorf("quick mixes = %d, want 3", n)
	}
	if quick.stepMin() != 2 || full.stepMin() != 1 {
		t.Error("step defaults wrong")
	}
	if (Options{StepMin: 5}).stepMin() != 5 {
		t.Error("explicit step ignored")
	}
}
