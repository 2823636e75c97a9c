package sim

import (
	"fmt"

	"solarcore/internal/mathx"
)

// SeriesResult aggregates a multi-day deployment under one policy.
type SeriesResult struct {
	Days []*DayResult
}

// mean averages f over the days.
func (s *SeriesResult) mean(f func(*DayResult) float64) float64 {
	vals := make([]float64, len(s.Days))
	for i, d := range s.Days {
		vals[i] = f(d)
	}
	return mathx.Mean(vals)
}

// total sums f over the days.
func (s *SeriesResult) total(f func(*DayResult) float64) float64 {
	sum := 0.0
	for _, d := range s.Days {
		sum += f(d)
	}
	return sum
}

// MeanUtilization returns the average daily green-energy utilization.
func (s *SeriesResult) MeanUtilization() float64 { return s.mean((*DayResult).Utilization) }

// MeanEffectiveDuration returns the average daily solar-powered fraction.
func (s *SeriesResult) MeanEffectiveDuration() float64 { return s.mean((*DayResult).EffectiveDuration) }

// TotalPTP returns the total solar-powered giga-instructions.
func (s *SeriesResult) TotalPTP() float64 { return s.total((*DayResult).PTP) }

// TotalSolarWh returns the total solar energy delivered.
func (s *SeriesResult) TotalSolarWh() float64 {
	return s.total(func(d *DayResult) float64 { return d.SolarWh })
}

// TrackErrGeoMean pools every tracking period across the deployment.
func (s *SeriesResult) TrackErrGeoMean() float64 {
	var all []float64
	for _, d := range s.Days {
		all = append(all, d.PeriodErrs...)
	}
	return mathx.GeoMean(all)
}

// RunSeries runs the same configuration over a sequence of solar days (a
// multi-day deployment), one Run per day. A cancellation on base.Ctx
// aborts the sweep between (or within) days and returns the wrapped
// context error instead of a partial series.
func RunSeries(base Config, s Supply, days []*SolarDay) (*SeriesResult, error) {
	if len(days) == 0 {
		return nil, fmt.Errorf("sim: series needs at least one day")
	}
	out := &SeriesResult{}
	for i, day := range days {
		if err := base.canceled(); err != nil {
			return nil, fmt.Errorf("sim: series day %d: %w", i, err)
		}
		cfg := base
		cfg.Day = day
		res, err := Run(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("sim: series day %d: %w", i, err)
		}
		out.Days = append(out.Days, &res.DayResult)
	}
	return out, nil
}
