package exp

import (
	"fmt"

	"solarcore/internal/atmos"
	"solarcore/internal/mathx"
	"solarcore/internal/power"
)

// Figure18Result holds green-energy utilization for every site, workload
// and MPPT policy, against the Table 3 battery de-rating bands (Figure 18).
type Figure18Result struct {
	Mixes    []string
	Policies []string
	// Util[site][mix index][policy index], averaged over seasons.
	Util map[string][][]float64
	// BatteryBands maps grade name → overall de-rating factor.
	BatteryBands map[string]float64
}

// Figure18 computes the utilization comparison.
func Figure18(l *Lab) Figure18Result {
	mixes := l.opts.Mixes()
	res := Figure18Result{
		Policies:     MPPTPolicies,
		Util:         map[string][][]float64{},
		BatteryBands: map[string]float64{},
	}
	for _, m := range mixes {
		res.Mixes = append(res.Mixes, m.Name)
	}
	for _, g := range power.BatteryGrades {
		res.BatteryBands[g.Name] = g.Derating()
	}
	for _, site := range atmos.Sites {
		perMix := make([][]float64, len(mixes))
		for mi, mix := range mixes {
			perMix[mi] = make([]float64, len(MPPTPolicies))
			for pi, policy := range MPPTPolicies {
				var us []float64
				for _, season := range atmos.Seasons {
					us = append(us, l.MPPT(site, season, mix, policy).Utilization())
				}
				perMix[mi][pi] = mathx.Mean(us)
			}
		}
		res.Util[site.Code] = perMix
	}
	return res
}

// SiteAverage returns the mean utilization for a site under a policy.
func (r Figure18Result) SiteAverage(site, policy string) float64 {
	pi := indexOf(r.Policies, policy)
	var vals []float64
	for _, perPolicy := range r.Util[site] {
		vals = append(vals, perPolicy[pi])
	}
	return mathx.Mean(vals)
}

// OverallAverage returns the mean utilization across all sites and mixes
// for a policy — the paper's headline "82 % on average".
func (r Figure18Result) OverallAverage(policy string) float64 {
	var vals []float64
	for _, site := range atmos.Sites {
		vals = append(vals, r.SiteAverage(site.Code, policy))
	}
	return mathx.Mean(vals)
}

// Render draws one row per site/mix with the three policies as columns.
func (r Figure18Result) Render() string {
	headers := append([]string{"site", "mix"}, r.Policies...)
	var rows [][]string
	for _, site := range atmos.Sites {
		for mi, mixName := range r.Mixes {
			row := []string{site.Code, mixName}
			for pi := range r.Policies {
				row = append(row, pct(r.Util[site.Code][mi][pi]))
			}
			rows = append(rows, row)
		}
	}
	title := fmt.Sprintf(
		"Figure 18: average energy utilization (battery bands: high %.0f%%, typical %.0f%%, low %.0f%%)",
		r.BatteryBands["High"]*100, r.BatteryBands["Moderate"]*100, r.BatteryBands["Low"]*100)
	return renderTable(title, headers, rows)
}

// Figure19Result is the effective operation duration (% of daytime powered
// by solar vs utility) for every site and season (Figure 19).
type Figure19Result struct {
	// SolarShare[site][season index] is the fraction of daytime on solar.
	SolarShare map[string][]float64
}

// Figure19 computes effective operation duration under MPPT&Opt, averaged
// over the workload grid.
func Figure19(l *Lab) Figure19Result {
	mixes := l.opts.Mixes()
	res := Figure19Result{SolarShare: map[string][]float64{}}
	for _, site := range atmos.Sites {
		shares := make([]float64, len(atmos.Seasons))
		for si, season := range atmos.Seasons {
			var vals []float64
			for _, mix := range mixes {
				vals = append(vals, l.MPPT(site, season, mix, "MPPT&Opt").EffectiveDuration())
			}
			shares[si] = mathx.Mean(vals)
		}
		res.SolarShare[site.Code] = shares
	}
	return res
}

// Render draws the stacked solar/utility share per site-season.
func (r Figure19Result) Render() string {
	headers := []string{"site", "month", "solar", "utility"}
	var rows [][]string
	for _, site := range atmos.Sites {
		for si, season := range atmos.Seasons {
			s := r.SolarShare[site.Code][si]
			rows = append(rows, []string{site.Code, season.String(), pct(s), pct(1 - s)})
		}
	}
	return renderTable("Figure 19: effective operation duration (share of daytime)", headers, rows)
}

// Figure20Bucket is one effective-duration bucket of Figure 20.
type Figure20Bucket struct {
	Label   string
	Lo, Hi  float64
	Util    []float64 // mean utilization per policy, MPPTPolicies order
	Samples int
}

// Figure20Result groups every (site, season, mix) day by its effective
// operation duration and reports average utilization per bucket and policy
// (Figure 20).
type Figure20Result struct {
	Policies []string
	Buckets  []Figure20Bucket
}

// Figure20 computes the duration-bucketed utilization.
func Figure20(l *Lab) Figure20Result {
	buckets := []Figure20Bucket{
		{Label: "> 90", Lo: 0.9, Hi: 1.01},
		{Label: "80~90", Lo: 0.8, Hi: 0.9},
		{Label: "70~80", Lo: 0.7, Hi: 0.8},
		{Label: "60~70", Lo: 0.6, Hi: 0.7},
		{Label: "50~60", Lo: 0.5, Hi: 0.6},
	}
	sums := make([][]float64, len(buckets))
	counts := make([][]int, len(buckets))
	for i := range buckets {
		sums[i] = make([]float64, len(MPPTPolicies))
		counts[i] = make([]int, len(MPPTPolicies))
	}
	for _, site := range atmos.Sites {
		for _, season := range atmos.Seasons {
			for _, mix := range l.opts.Mixes() {
				for pi, policy := range MPPTPolicies {
					run := l.MPPT(site, season, mix, policy)
					d := run.EffectiveDuration()
					for bi, b := range buckets {
						if d >= b.Lo && d < b.Hi {
							sums[bi][pi] += run.Utilization()
							counts[bi][pi]++
							break
						}
					}
				}
			}
		}
	}
	res := Figure20Result{Policies: MPPTPolicies}
	for bi, b := range buckets {
		b.Util = make([]float64, len(MPPTPolicies))
		for pi := range MPPTPolicies {
			if counts[bi][pi] > 0 {
				b.Util[pi] = sums[bi][pi] / float64(counts[bi][pi])
			}
			b.Samples += counts[bi][pi]
		}
		res.Buckets = append(res.Buckets, b)
	}
	return res
}

// Render draws one row per duration bucket.
func (r Figure20Result) Render() string {
	headers := append([]string{"duration (% daytime)", "days"}, r.Policies...)
	var rows [][]string
	for _, b := range r.Buckets {
		row := []string{b.Label, fmt.Sprintf("%d", b.Samples)}
		for _, u := range b.Util {
			if u == 0 {
				row = append(row, "-")
			} else {
				row = append(row, pct(u))
			}
		}
		rows = append(rows, row)
	}
	return renderTable("Figure 20: average energy utilization vs effective operation duration", headers, rows)
}

func indexOf(xs []string, want string) int {
	for i, x := range xs {
		if x == want {
			return i
		}
	}
	return -1
}
