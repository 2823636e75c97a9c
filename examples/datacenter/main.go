// Datacenter: a site-selection study. Where should a solar-powered compute
// cluster go? Simulate several days per season at each candidate site and
// compare annualized green-energy utilization, solar coverage and
// performance — the Table 2 resource classes turned into operator metrics.
package main

import (
	"fmt"
	"log"

	"solarcore"
)

const daysPerSeason = 3

func main() {
	log.SetFlags(0)

	mix, err := solarcore.MixByName("M2")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("site-selection study: %d day(s) per season, mix %s, policy %s\n\n",
		daysPerSeason, mix.Name, solarcore.PolicyOpt)
	fmt.Printf("%-4s %-20s %10s %10s %10s %12s %12s\n",
		"site", "location", "kWh/m²/d", "util", "coverage", "solar Wh/d", "utility Wh/d")

	type tally struct {
		insol, util, cover, solar, utility float64
		n                                  float64
	}

	for _, site := range solarcore.Sites {
		var t tally
		for _, season := range []solarcore.Season{solarcore.Jan, solarcore.Apr, solarcore.Jul, solarcore.Oct} {
			for d := 0; d < daysPerSeason; d++ {
				trace := solarcore.GenerateWeather(site, season, d)
				day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
				if err != nil {
					log.Fatal(err)
				}
				r, err := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix}, solarcore.WithPolicy(solarcore.PolicyOpt))
				if err != nil {
					log.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					log.Fatal(err)
				}
				t.insol += trace.InsolationKWh()
				t.util += res.Utilization()
				t.cover += res.SolarWh / (res.SolarWh + res.UtilityWh)
				t.solar += res.SolarWh
				t.utility += res.UtilityWh
				t.n++
			}
		}
		fmt.Printf("%-4s %-20s %10.2f %9.1f%% %9.1f%% %12.0f %12.0f\n",
			site.Code, site.Name, t.insol/t.n, 100*t.util/t.n, 100*t.cover/t.n,
			t.solar/t.n, t.utility/t.n)
	}

	fmt.Println("\nutil     = solar energy used / theoretical panel maximum")
	fmt.Println("coverage = share of chip energy supplied by the panel rather than the grid")
}
