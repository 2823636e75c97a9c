package exp

import (
	"fmt"

	"solarcore/internal/atmos"
	"solarcore/internal/mathx"
	"solarcore/internal/power"
)

// Figure21Result is the performance comparison of Figure 21: for every
// site, season and workload, the performance-time product of each MPPT
// policy and of the Battery-U bracket, normalized to Battery-L.
type Figure21Result struct {
	Mixes  []string
	Series []string // MPPTPolicies + "Battery-U"
	// Norm[site][season][mix index][series index]
	Norm map[string]map[string][][]float64
}

// Figure21 computes the normalized-PTP grid.
func Figure21(l *Lab) Figure21Result {
	mixes := l.opts.Mixes()
	res := Figure21Result{
		Series: append(append([]string{}, MPPTPolicies...), "Battery-U"),
		Norm:   map[string]map[string][][]float64{},
	}
	for _, m := range mixes {
		res.Mixes = append(res.Mixes, m.Name)
	}
	for _, site := range atmos.Sites {
		res.Norm[site.Code] = map[string][][]float64{}
		for _, season := range atmos.Seasons {
			grid := make([][]float64, len(mixes))
			for mi, mix := range mixes {
				base := l.Battery(site, season, mix, power.BatteryLowerEff).PTP()
				vals := make([]float64, 0, len(res.Series))
				for _, policy := range MPPTPolicies {
					vals = append(vals, ratio(l.MPPT(site, season, mix, policy).PTP(), base))
				}
				vals = append(vals, ratio(l.Battery(site, season, mix, power.BatteryUpperEff).PTP(), base))
				grid[mi] = vals
			}
			res.Norm[site.Code][season.String()] = grid
		}
	}
	return res
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// Average returns the mean normalized PTP of one series over the whole
// grid — the numbers behind "the average normalized performance of
// MPPT&IC, MPPT&RR and MPPT&Opt is 0.82, 1.02 and 1.13".
func (r Figure21Result) Average(series string) float64 {
	si := indexOf(r.Series, series)
	if si < 0 {
		return 0
	}
	var vals []float64
	for _, seasons := range r.Norm {
		for _, grid := range seasons {
			for _, mixVals := range grid {
				vals = append(vals, mixVals[si])
			}
		}
	}
	return mathx.Mean(vals)
}

// Render draws one row per site/season/mix.
func (r Figure21Result) Render() string {
	headers := append([]string{"site", "month", "mix"}, r.Series...)
	var rows [][]string
	for _, site := range atmos.Sites {
		for _, season := range atmos.Seasons {
			grid := r.Norm[site.Code][season.String()]
			for mi, mixName := range r.Mixes {
				row := []string{site.Code, season.String(), mixName}
				for _, v := range grid[mi] {
					row = append(row, f2(v))
				}
				rows = append(rows, row)
			}
		}
	}
	title := fmt.Sprintf("Figure 21: normalized PTP vs Battery-L (averages: IC %.2f, RR %.2f, Opt %.2f, Battery-U %.2f)",
		r.Average("MPPT&IC"), r.Average("MPPT&RR"), r.Average("MPPT&Opt"), r.Average("Battery-U"))
	return renderTable(title, headers, rows)
}

// HeadlinesResult collects the abstract's headline claims next to the
// values this reproduction measures.
type HeadlinesResult struct {
	AvgUtilization   float64 // paper: 0.82
	OptOverRR        float64 // paper: +10.8 %
	OptOverIC        float64 // paper: +37.8 %
	OptOverBestFixed float64 // paper: ≥ +43 %
	OptVsBatteryU    float64 // paper: ≥ −1 %
	BestFixedRatio   float64 // paper: ≤ 0.70 of SolarCore
}

// Headlines computes the paper's headline numbers from the shared grid.
func Headlines(l *Lab) HeadlinesResult {
	f18 := Figure18(l)
	f21 := Figure21(l)
	f17 := Figure17(l)

	opt, rr, ic := f21.Average("MPPT&Opt"), f21.Average("MPPT&RR"), f21.Average("MPPT&IC")
	bu := f21.Average("Battery-U")
	best := f17.BestRatio()
	return HeadlinesResult{
		AvgUtilization:   f18.OverallAverage("MPPT&Opt"),
		OptOverRR:        opt/rr - 1,
		OptOverIC:        opt/ic - 1,
		OptOverBestFixed: 1/best - 1,
		OptVsBatteryU:    opt/bu - 1,
		BestFixedRatio:   best,
	}
}

// Render compares measured headlines with the paper's claims.
func (h HeadlinesResult) Render() string {
	rows := [][]string{
		{"average green-energy utilization", "82%", pct(h.AvgUtilization)},
		{"MPPT&Opt vs MPPT&RR (PTP)", "+10.8%", pct(h.OptOverRR)},
		{"MPPT&Opt vs MPPT&IC (PTP)", "+37.8%", pct(h.OptOverIC)},
		{"MPPT&Opt vs best fixed budget", "≥ +43%", pct(h.OptOverBestFixed)},
		{"best fixed budget / SolarCore", "< 0.70", f2(h.BestFixedRatio)},
		{"MPPT&Opt vs Battery-U (PTP)", "≥ -1%", pct(h.OptVsBatteryU)},
	}
	return renderTable("Headline comparison (paper vs this reproduction)",
		[]string{"claim", "paper", "measured"}, rows)
}
