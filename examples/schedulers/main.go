// Schedulers: reproduce the paper's policy comparison in miniature — run
// the same day and workload under every Table 6 load-adaptation policy and
// the battery-equipped brackets, and show why the throughput-power-ratio
// heuristic wins.
package main

import (
	"fmt"
	"log"

	"solarcore"
)

func main() {
	log.SetFlags(0)

	trace := solarcore.GenerateWeather(solarcore.CO, solarcore.Apr, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	if err != nil {
		log.Fatal(err)
	}

	for _, mixName := range []string{"H1", "ML2"} {
		mix, err := solarcore.MixByName(mixName)
		if err != nil {
			log.Fatal(err)
		}
		cfg := solarcore.Config{Day: day, Mix: mix}

		fmt.Printf("\n%s on %s (%s workload)\n", mixName, trace.Label(), mix.Kind)
		fmt.Printf("%-18s  %12s  %12s  %10s\n", "policy", "solar (Wh)", "PTP (Ginstr)", "util")

		baseline := 0.0
		show := func(name string, res *solarcore.DayResult) {
			norm := ""
			if baseline > 0 {
				norm = fmt.Sprintf("  (%.2f× Battery-L)", res.PTP()/baseline)
			}
			fmt.Printf("%-18s  %12.0f  %12.0f  %9.1f%%%s\n",
				name, res.SolarWh, res.PTP(), res.Utilization()*100, norm)
		}

		batL, err := run(cfg, solarcore.WithBattery(solarcore.BatteryLowerEff))
		if err != nil {
			log.Fatal(err)
		}
		baseline = batL.PTP()
		show("Battery-L", batL)

		batU, err := run(cfg, solarcore.WithBattery(solarcore.BatteryUpperEff))
		if err != nil {
			log.Fatal(err)
		}
		show("Battery-U", batU)

		for _, policy := range solarcore.Policies() {
			res, err := run(cfg, solarcore.WithPolicy(policy))
			if err != nil {
				log.Fatal(err)
			}
			show(policy, res)
		}

		best, err := bestFixed(cfg)
		if err != nil {
			log.Fatal(err)
		}
		show(best.Policy, best)
	}
}

// bestFixed sweeps the Figure 15 thresholds and returns the best-performing
// fixed-budget run — the strongest non-tracking competitor.
func bestFixed(cfg solarcore.Config) (*solarcore.DayResult, error) {
	var best *solarcore.DayResult
	for _, b := range []float64{25, 50, 75, 100, 125} {
		res, err := run(cfg, solarcore.WithFixedBudget(b))
		if err != nil {
			return nil, err
		}
		if best == nil || res.PTP() > best.PTP() {
			best = res
		}
	}
	return best, nil
}

// run simulates cfg's day under one supply option.
func run(cfg solarcore.Config, supply solarcore.RunnerOption) (*solarcore.DayResult, error) {
	r, err := solarcore.NewRunner(cfg, supply)
	if err != nil {
		return nil, err
	}
	return r.Run()
}
