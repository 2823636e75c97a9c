package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"solarcore"
	"solarcore/internal/atmos"
	"solarcore/internal/pv"
	"solarcore/internal/sim"
)

// reference is the byte-exact answer for s: RunSpec.Run and
// json.Marshal in process, the same calls a node makes on a miss.
func reference(s solarcore.RunSpec) ([]byte, error) {
	res, err := s.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", specLabel(s), err)
	}
	return json.Marshal(res)
}

// untracedRequest returns reference's bytes and times the work a node
// does for one uncached /v1/run — RunSpec.Run, Hash and json.Marshal —
// and RunSpec.Run alone.
func untracedRequest(s solarcore.RunSpec) (body []byte, request, run time.Duration, err error) {
	t0 := time.Now()
	res, err := s.Run(context.Background())
	if err != nil {
		return nil, 0, 0, err
	}
	run = time.Since(t0)
	_ = s.Hash()
	body, err = json.Marshal(res)
	return body, time.Since(t0), run, err
}

func modeOf(n solarcore.RunSpec) string {
	switch {
	case n.FixedW > 0:
		return "fixed"
	case n.BatteryEff > 0:
		return "battery"
	}
	return "mppt"
}

// runSpans names the spans whose work RunSpec.Run itself does; their sum
// over RunSpec.Run's untraced time is the trace's coverage.
var runSpans = []string{"solarcore.validate", "atmos.generate", "sim.day_build", "solarcore.runner", "sim.track."}

// tracedRequest makes the calls RunSpec.Run makes — validate, weather
// synthesis, the SolarDay MPP table, the Runner, the track loop — plus
// the hash and marshal a node adds, with one span around each call into
// a layer's public function. The spans sit in the benchmark, not in the
// program. It returns the marshaled result, which must equal reference.
func tracedRequest(t *tracer, req int, s solarcore.RunSpec) ([]byte, *atmos.Trace, error) {
	root := t.begin("request", 0, req)
	defer t.end(root)
	var err error
	if t.do("solarcore.validate", root, req, func() { err = s.Validate() }); err != nil {
		return nil, nil, err
	}
	t.do("solarcore.hash", root, req, func() { _ = s.Hash() })
	n := s.Normalized()
	// Validate accepted every name below, so the lookups cannot fail.
	site, _ := solarcore.SiteByCode(n.Site)
	season, _ := solarcore.SeasonByName(n.Season)
	mix, _ := solarcore.MixByName(n.Mix)
	faults, _ := solarcore.ParseFaults(n.Faults)
	var tr *atmos.Trace
	t.do("atmos.generate", root, req, func() { tr = atmos.Generate(site, season, atmos.GenConfig{Day: n.Day}) })
	var day *sim.SolarDay
	if t.do("sim.day_build", root, req, func() { day, err = sim.NewSolarDay(tr, pv.BP3180N(), 1, n.Panels) }); err != nil {
		return nil, nil, err
	}
	opts := []solarcore.RunnerOption{solarcore.WithFaults(faults)}
	switch modeOf(n) {
	case "fixed":
		opts = append(opts, solarcore.WithFixedBudget(n.FixedW))
	case "battery":
		opts = append(opts, solarcore.WithBattery(n.BatteryEff))
	default:
		opts = append(opts, solarcore.WithPolicy(n.Policy))
	}
	var r *solarcore.Runner
	if t.do("solarcore.runner", root, req, func() {
		r, err = solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix, StepMin: n.StepMin}, opts...)
	}); err != nil {
		return nil, nil, err
	}
	var res *solarcore.DayResult
	if t.do("sim.track."+modeOf(n), root, req, func() { res, err = r.Run() }); err != nil {
		return nil, nil, err
	}
	var b []byte
	t.do("serve.marshal", root, req, func() { b, err = json.Marshal(res) })
	return b, tr, err
}

// mppProbe repeats the SolarDay MPP table's per-sample work, one
// pv.(*Module).MPP call per weather sample, with a span around each
// call. It sits under its own root, outside the request's coverage.
func mppProbe(t *tracer, req int, tr *atmos.Trace, panels int) int {
	root := t.begin("pv.mpp_day", 0, req)
	defer t.end(root)
	params := pv.BP3180N()
	arr := pv.NewArray(params, 1, panels)
	for _, s := range tr.Samples {
		env := pv.Env{Irradiance: s.Irradiance, CellTemp: params.CellTemperature(s.AmbientC, s.Irradiance)}
		t.do("pv.mpp", root, req, func() { _ = arr.Module.MPP(env) })
	}
	return len(tr.Samples)
}

// trackProbe times only the track loop of s on a prebuilt day, for a
// mode the workload's own runs do not exercise.
func trackProbe(t *tracer, req int, s solarcore.RunSpec) error {
	r, err := s.Runner()
	if err != nil {
		return err
	}
	root := t.begin("mode_probe", 0, req)
	defer t.end(root)
	t.do("sim.track."+modeOf(s.Normalized()), root, req, func() { _, err = r.Run() })
	return err
}
