package solarcore_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"solarcore"
)

// goldenPath holds the committed digests of every golden run. Set
// SOLARCORE_UPDATE_GOLDEN=1 to rewrite it from the current engine; a
// change that must keep result bytes stable must leave it untouched.
var goldenPath = filepath.Join("testdata", "golden_runs.json")

// goldenDigest pins one run: the SHA-256 of json.Marshal(result) and
// of the JSONL event stream an attached JSONLSink records (the bytes
// /v1/stream serves).
type goldenDigest struct {
	Name   string             `json:"name"`
	Spec   *solarcore.RunSpec `json:"spec,omitempty"`
	Result string             `json:"result_sha256"`
	Events string             `json:"events_sha256"`
}

// goldenCase runs one simulation with obs attached and returns the value
// whose JSON encoding is pinned.
type goldenCase struct {
	name string
	spec *solarcore.RunSpec
	run  func(t *testing.T, obs solarcore.Observer) any
}

// goldenWatchdogSpec drops the controller's sensors for two hours of
// midday: the watchdog must trip into fallback, so the fallback path is
// pinned too.
var goldenWatchdogSpec = solarcore.RunSpec{Site: "AZ", Season: "Jul", Policy: solarcore.PolicyOpt,
	StepMin: 1, Panels: 1, Faults: "sensor-drop:t0=600,t1=720,i=1"}

// goldenSpecs spans the RunSpec space: every site and season, the three
// MPPT policies, Fixed-Power and the battery baseline, 1- and 8-minute
// steps, 1 and 4 panels, with and without fault schedules.
func goldenSpecs() []solarcore.RunSpec {
	sites := []string{"AZ", "CO", "NC", "TN"}
	seasons := []string{"Jan", "Apr", "Jul", "Oct"}
	faults := []string{
		"cloud:t0=600,t1=720,i=1",
		"core-fail:t0=600,t1=900,i=1",
		"conv-derate:t0=540,t1=780,i=0.5",
		"string-cut:t0=660,t1=760,i=0.5",
		"solver:t0=600,t1=700,i=1",
		"sensor-bias:t0=600,t1=800,i=0.6",
		"core-throttle:t0=700,t1=820,i=1",
		"cloud:t0=600,t1=720,i=1;core-fail:t0=600,t1=900,i=1",
	}
	mixes := solarcore.Mixes()
	policies := solarcore.Policies()
	var out []solarcore.RunSpec
	for si, site := range sites {
		for qi, season := range seasons {
			k := si*len(seasons) + qi
			for j := 0; j < 4; j++ {
				s := solarcore.RunSpec{
					Site: site, Season: season, Day: k % 3,
					Mix:     mixes[(k+j)%len(mixes)].Name,
					StepMin: []float64{1, 8}[j%2],
					Panels:  []int{1, 4}[(k+j/2)%2],
				}
				switch m := (k + j) % 5; {
				case m < 3:
					s.Policy = policies[m]
				case m == 3:
					s.FixedW = 45 * float64(s.Panels)
				default:
					s.BatteryEff = []float64{solarcore.BatteryUpperEff, solarcore.BatteryLowerEff}[k%2]
				}
				if j == 3 {
					s.Faults = faults[k%len(faults)]
				}
				out = append(out, s)
			}
		}
	}
	return append(out, goldenWatchdogSpec)
}

// goldenRunnerConfig is the base of the Runner-only cases: an AZ July
// day on one panel under the HM2 mix.
func goldenRunnerConfig(t *testing.T) solarcore.Config {
	t.Helper()
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jul, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := solarcore.MixByName("HM2")
	if err != nil {
		t.Fatal(err)
	}
	return solarcore.Config{Day: day, Mix: mix}
}

// goldenRunner builds and runs one Runner-only case.
func goldenRunner(t *testing.T, cfg solarcore.Config, opts ...solarcore.RunnerOption) *solarcore.DayResult {
	t.Helper()
	r, err := solarcore.NewRunner(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for i, s := range goldenSpecs() {
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("spec-%02d", i),
			spec: &s,
			run: func(t *testing.T, o solarcore.Observer) any {
				res, err := s.Run(context.Background(), solarcore.WithObserver(o))
				if err != nil {
					t.Fatal(err)
				}
				return res
			},
		})
	}
	with := func(edit func(*solarcore.Config), opts ...solarcore.RunnerOption) func(*testing.T, solarcore.Observer) any {
		return func(t *testing.T, o solarcore.Observer) any {
			cfg := goldenRunnerConfig(t)
			edit(&cfg)
			return goldenRunner(t, cfg, append(opts, solarcore.WithObserver(o))...)
		}
	}
	keep := func(c *solarcore.Config) { c.KeepSeries = true }
	thermal := solarcore.DefaultThermal()
	watchdog, err := solarcore.ParseFaults(goldenWatchdogSpec.Faults)
	if err != nil {
		panic(err)
	}
	cases = append(cases,
		goldenCase{name: "runner-mppt-series", run: with(keep, solarcore.WithPolicy(solarcore.PolicyRR))},
		goldenCase{name: "runner-mppt-series-fallback", run: with(keep, solarcore.WithFaults(watchdog))},
		goldenCase{name: "runner-fixed-series", run: with(keep, solarcore.WithFixedBudget(45))},
		goldenCase{name: "runner-thermal", run: with(func(c *solarcore.Config) { c.Thermal = &thermal })},
		goldenCase{name: "runner-event-tracking", run: with(func(c *solarcore.Config) { c.EventTracking = true })},
		goldenCase{name: "runner-dvfs-transition", run: with(func(c *solarcore.Config) { c.DVFSTransitionUs = 50 })},
		goldenCase{name: "runner-bank-two-days", run: func(t *testing.T, o solarcore.Observer) any {
			return goldenBankDays(t, o, false)
		}},
		goldenCase{name: "runner-bank-series", run: func(t *testing.T, o solarcore.Observer) any {
			return goldenBankDays(t, o, true)
		}},
		goldenCase{name: "runner-run-series", run: func(t *testing.T, o solarcore.Observer) any {
			cfg := goldenRunnerConfig(t)
			var days []*solarcore.SolarDay
			for _, tr := range solarcore.GenerateWeatherRun(solarcore.NC, solarcore.Apr, 2) {
				day, err := solarcore.NewDay(tr, solarcore.BP3180N(), 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				days = append(days, day)
			}
			r, err := solarcore.NewRunner(cfg, solarcore.WithPolicy(solarcore.PolicyIC), solarcore.WithObserver(o))
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunSeries(days)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	)
	return cases
}

// goldenBankDays chains two days against one persistent bank, so the
// second day starts from the first day's state of charge and wear.
func goldenBankDays(t *testing.T, o solarcore.Observer, keepSeries bool) []*solarcore.BankDayResult {
	t.Helper()
	cfg := goldenRunnerConfig(t)
	cfg.KeepSeries = keepSeries
	bank, err := solarcore.NewBank(solarcore.LeadAcidBank(400))
	if err != nil {
		t.Fatal(err)
	}
	r, err := solarcore.NewRunner(cfg, solarcore.WithBank(bank, 0.95), solarcore.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	var out []*solarcore.BankDayResult
	for range 2 {
		res, err := r.RunBank()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenRuns pins the result bytes and the observer event stream of
// every supply mode, with and without faults, against the committed
// corpus: an engine change that claims to keep bytes must pass it
// unchanged.
func TestGoldenRuns(t *testing.T) {
	var got []goldenDigest
	for _, c := range goldenCases() {
		var buf bytes.Buffer
		sink := solarcore.NewJSONLSink(&buf)
		v := c.run(t, sink)
		if err := sink.Flush(); err != nil {
			t.Fatalf("%s: flush: %v", c.name, err)
		}
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		if c.spec != nil && c.spec.Faults == goldenWatchdogSpec.Faults {
			res := v.(*solarcore.DayResult)
			if res.Faults.WatchdogTrips == 0 || res.Faults.FallbackPeriods == 0 {
				t.Errorf("%s: watchdog case never fell back: %+v", c.name, res.Faults)
			}
		}
		got = append(got, goldenDigest{Name: c.name, Spec: c.spec, Result: sha256Hex(body), Events: sha256Hex(buf.Bytes())})
	}

	if os.Getenv("SOLARCORE_UPDATE_GOLDEN") != "" {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden corpus (SOLARCORE_UPDATE_GOLDEN=1 writes it): %v", err)
	}
	var want []goldenDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden corpus has %d cases, the test builds %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Name != g.Name {
			t.Fatalf("case %d: corpus names %q, the test builds %q", i, w.Name, g.Name)
		}
		if (w.Spec == nil) != (g.Spec == nil) || w.Spec != nil && w.Spec.Canonical() != g.Spec.Canonical() {
			t.Errorf("%s: corpus spec %s, the test builds %s", w.Name, w.Spec.Canonical(), g.Spec.Canonical())
		}
		if w.Result != g.Result {
			t.Errorf("%s: result digest %s, want %s", w.Name, g.Result, w.Result)
		}
		if w.Events != g.Events {
			t.Errorf("%s: event-stream digest %s, want %s", w.Name, g.Events, w.Events)
		}
	}
}
