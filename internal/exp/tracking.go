package exp

import (
	"fmt"

	"solarcore/internal/atmos"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

// TrackingFigure is the data of Figures 13 and 14: per-workload traces of
// the maximal power budget and the power actually drawn under MPPT&Opt.
type TrackingFigure struct {
	Title string
	Label string // weather pattern, e.g. "Jan@AZ"
	Mixes []string
	Runs  []*sim.DayResult
}

// trackingMixes are the three workloads the paper plots: high-EPI
// homogeneous, high-EPI heterogeneous, low-EPI homogeneous.
var trackingMixes = []string{"H1", "HM2", "L1"}

func trackingFigure(l *Lab, title string, site atmos.Site, season atmos.Season) TrackingFigure {
	fig := TrackingFigure{Title: title, Label: season.String() + "@" + site.Code, Mixes: trackingMixes}
	for _, name := range trackingMixes {
		mix, err := workload.MixByName(name)
		if err != nil {
			panic(err)
		}
		fig.Runs = append(fig.Runs, l.MPPTSeries(site, season, mix, "MPPT&Opt"))
	}
	return fig
}

// Figure13 traces MPP tracking accuracy under the regular mid-winter
// Phoenix weather pattern (Figure 13).
func Figure13(l *Lab) TrackingFigure {
	return trackingFigure(l, "Figure 13: MPP tracking accuracy (regular weather)", atmos.AZ, atmos.Jan)
}

// Figure14 traces MPP tracking accuracy under the irregular monsoon-season
// Phoenix weather pattern (Figure 14).
func Figure14(l *Lab) TrackingFigure {
	return trackingFigure(l, "Figure 14: MPP tracking accuracy (irregular weather)", atmos.AZ, atmos.Jul)
}

// Render draws budget and actual power as stacked sparklines per workload
// and summarizes the per-day tracking statistics.
func (f TrackingFigure) Render() string {
	out := fmt.Sprintf("%s — %s\n", f.Title, f.Label)
	rows := make([][]string, 0, len(f.Runs))
	for i, run := range f.Runs {
		var budget, actual []float64
		maxB := 0.0
		stride := max(1, len(run.Series)/72)
		for j := 0; j < len(run.Series); j += stride {
			p := run.Series[j]
			budget = append(budget, p.BudgetW)
			actual = append(actual, p.ActualW)
			if p.BudgetW > maxB {
				maxB = p.BudgetW
			}
		}
		out += fmt.Sprintf("  %-4s budget |%s|\n", f.Mixes[i], sparkline(budget, maxB))
		out += fmt.Sprintf("       actual |%s|\n", sparkline(actual, maxB))
		rows = append(rows, []string{
			f.Mixes[i], pct(run.Utilization()), pct(run.EffectiveDuration()), pct(run.TrackErrGeoMean()),
		})
	}
	out += renderTable("  summary", []string{"mix", "utilization", "eff. duration", "tracking err"}, rows)
	return out
}

// Table7Result holds the geometric-mean relative tracking error for every
// site, season and workload mix (Table 7).
type Table7Result struct {
	Mixes []string
	// Err[site][season][mix index]
	Err map[string]map[string][]float64
}

// Table7 computes the full tracking-error grid under MPPT&Opt.
func Table7(l *Lab) Table7Result {
	mixes := l.opts.Mixes()
	res := Table7Result{Err: map[string]map[string][]float64{}}
	for _, m := range mixes {
		res.Mixes = append(res.Mixes, m.Name)
	}
	for _, site := range atmos.Sites {
		res.Err[site.Code] = map[string][]float64{}
		for _, season := range atmos.Seasons {
			errs := make([]float64, len(mixes))
			for i, mix := range mixes {
				errs[i] = l.MPPT(site, season, mix, "MPPT&Opt").TrackErrGeoMean()
			}
			res.Err[site.Code][season.String()] = errs
		}
	}
	return res
}

// Render draws Table 7 in the paper's layout: one row per site/season, one
// column per workload mix.
func (t Table7Result) Render() string {
	headers := append([]string{"site", "month"}, t.Mixes...)
	var rows [][]string
	for _, site := range atmos.Sites {
		for _, season := range atmos.Seasons {
			errs := t.Err[site.Code][season.String()]
			row := []string{site.Code, season.String()}
			for _, e := range errs {
				row = append(row, pct(e))
			}
			rows = append(rows, row)
		}
	}
	return renderTable("Table 7: average relative tracking error (geometric mean per day)", headers, rows)
}
