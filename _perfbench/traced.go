package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/atmos"
	"solarcore/internal/obs"
	"solarcore/internal/route"
	"solarcore/internal/serve"
	"solarcore/internal/store"
)

// traceSpecsFor returns the specs the traced run replays in process:
// the workload's first fill specs, its first sweep batch, or its first
// replay keys.
func (b *bench) traceSpecsFor(p *phase) []solarcore.RunSpec {
	switch b.workload {
	case "fill":
		g := newFillGen(b.seed)
		var out []solarcore.RunSpec
		for len(out) < traceSpecs {
			out = append(out, g.Next())
		}
		return out
	case "sweep":
		return newSweepGen(b.seed).Next()
	}
	return p.plan.Keys[:traceSpecs]
}

// traced is the per-layer run. It drives the workload against its
// servers for half the run (for the servers' /metrics counters and the
// client-side wait), probes the HTTP and gate hops, then replays the
// workload's specs in process — once untraced and once with a span
// around each layer call — times the serve and store layers on the
// results, and reports a self-time table, the span file and every
// per-layer metric.
func (b *bench) traced() error {
	ctx := context.Background()
	p, err := b.start(ctx, time.Duration(b.seconds)*time.Second/2)
	if err != nil {
		return err
	}
	defer func() { p.f.stop() }()
	b.count(p)
	if b.res.Failed > 0 {
		b.fail("%d of %d requests failed", b.res.Failed, b.res.Attempted)
	}
	b.serverLayers(p)
	t := newTracer()
	if err := b.probeHTTP(ctx, t, p); err != nil {
		return err
	}
	specs, bodies, err := b.layerReplay(t, p)
	if err != nil {
		return err
	}
	if err := b.probeServeStore(ctx, t, specs, bodies); err != nil {
		return err
	}
	return b.writeTrace(t)
}

// serverLayers reports what the servers' /metrics counters and the
// client saw in the measured phase.
func (b *bench) serverLayers(p *phase) {
	hits, misses := p.delta(serve.MetricCacheHits), p.delta(serve.MetricCacheMisses)
	b.set("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses), fmt.Sprintf("/metrics: %g hits, %g misses", hits, misses))
	b.set("serve.coalesced_ratio", "ratio", ratio(p.delta(serve.MetricCoalesced), hits+misses), "/metrics: coalesced of lookups")
	b.set("serve.rejected", "count", p.delta(serve.MetricRejected), "/metrics: 429s")
	sh, sm := p.delta(store.MetricHits), p.delta(store.MetricMisses)
	b.set("store.hit_ratio", "ratio", ratio(sh, sh+sm), fmt.Sprintf("/metrics: %g store hits, %g misses", sh, sm))
	var latSum time.Duration
	n := 0
	for _, o := range p.outs {
		if o.ok {
			latSum += o.lat
			n++
		}
	}
	meanLat := float64(latSum) / 1e6 / float64(max(n, 1))
	simPerReq := p.delta(serve.MetricRunMs+".sum") / float64(max(len(p.outs), 1))
	b.set("serve.wait_ms", "ms", meanLat-simPerReq,
		fmt.Sprintf("client mean %.4g ms - server simulation %.4g ms per request", meanLat, simPerReq))
	b.reportTail(p, p.latencies())
	seen := map[dayKey]bool{}
	runs := 0
	for _, o := range p.outs {
		for _, r := range o.runs {
			seen[keyOf(r.spec)] = true
			runs++
		}
	}
	b.set("sim.distinct_days_per_run", "ratio", ratio(float64(len(seen)), float64(runs)),
		fmt.Sprintf("%d day keys over %d delivered runs", len(seen), runs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeHTTP times client.Run on a spec the fleet has cached, direct to
// the node that serves it and through solargate (a probe gate in front
// of the node on fill and sweep, whose topology has none).
func (b *bench) probeHTTP(ctx context.Context, t *tracer, p *phase) error {
	gateBefore := p.before
	if p.f.gate == nil {
		if err := p.f.addGate(b.bins); err != nil {
			return err
		}
		gateBefore = nil
	}
	var spec solarcore.RunSpec
	for i := len(p.outs) - 1; i >= 0; i-- {
		if p.outs[i].ok {
			spec = p.outs[i].runs[len(p.outs[i].runs)-1].spec
			break
		}
	}
	req := client.RunRequest{RunSpec: spec}
	via := client.New(p.f.gate.url)
	first, err := via.Run(ctx, req)
	if err != nil {
		return fmt.Errorf("gate probe: %w", err)
	}
	direct := client.New(first.Backend)
	if _, err := direct.Run(ctx, req); err != nil {
		return fmt.Errorf("node probe: %w", err)
	}
	var rerr error
	for i := 0; i < probeCalls && rerr == nil; i++ {
		t.do("client.run", 0, i, func() { _, rerr = direct.Run(ctx, req) })
		if rerr == nil {
			t.do("route.run", 0, i, func() { _, rerr = via.Run(ctx, req) })
		}
	}
	if rerr != nil {
		return fmt.Errorf("probe: %w", rerr)
	}
	rt, _ := t.mean("", "client.run")
	hop, _ := t.mean("", "route.run")
	b.set("http.roundtrip_us", "us", float64(rt)/1e3, fmt.Sprintf("client.Run direct to a node, cached, n=%d", probeCalls))
	b.set("route.hop_us", "us", float64(hop-rt)/1e3, fmt.Sprintf("client.Run via solargate minus direct, same spec, n=%d", probeCalls))
	snap, err := p.f.gate.metrics(ctx)
	if err != nil {
		return err
	}
	for _, m := range []struct{ name, counter string }{{"route.hedges", route.MetricHedges}, {"route.retries", route.MetricRetries}} {
		v := snap.Counters[m.counter] - gateBefore["gate/"+m.counter]
		b.set(m.name, "count", v, "gate /metrics from the start of the measured phase to the end of the probes")
	}
	return nil
}

// layerReplay replays the workload's specs in process, untraced and
// traced in turn, and reports the request layers, the MPP solves, the
// trace's coverage and its overhead. It returns the specs and their
// marshaled results.
func (b *bench) layerReplay(t *tracer, p *phase) ([]solarcore.RunSpec, [][]byte, error) {
	specs := b.traceSpecsFor(p)
	var untracedRun time.Duration
	untracedReq := make([]time.Duration, len(specs))
	bodies := make([][]byte, len(specs))
	days := make([]*atmos.Trace, len(specs))
	modes := map[string]bool{}
	for i, s := range specs {
		want, reqD, runD, err := untracedRequest(s)
		if err != nil {
			return nil, nil, err
		}
		untracedReq[i] = reqD
		untracedRun += runD
		got, tr, err := tracedRequest(t, i, s)
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(got, want) {
			b.fail("%s: traced layer calls give other bytes than RunSpec.Run", specLabel(s))
		}
		bodies[i], days[i] = got, tr
		modes[modeOf(s.Normalized())] = true
	}
	calls, probed := 0, map[dayKey]bool{}
	for i, tr := range days {
		if k := keyOf(specs[i]); !probed[k] {
			probed[k] = true
			calls += mppProbe(t, i, tr, k.Panels)
		}
	}
	for _, mode := range []string{"mppt", "fixed", "battery"} {
		if modes[mode] {
			continue
		}
		s := specs[0]
		s.Policy, s.FixedW, s.BatteryEff = "", 0, 0
		switch mode {
		case "fixed":
			s.FixedW = 90
		case "battery":
			s.BatteryEff = solarcore.BatteryUpperEff
		}
		if err := trackProbe(t, len(specs), s); err != nil {
			return nil, nil, err
		}
	}

	var covered time.Duration
	var extra []float64 // per spec: traced minus untraced, µs
	for _, s := range t.spans {
		if s.Name == "request" {
			extra = append(extra, float64(s.dur()-untracedReq[s.Req])/1e3)
			continue
		}
		if s.Parent == 0 || t.spans[s.Parent-1].Name != "request" {
			continue
		}
		for _, name := range runSpans {
			if strings.HasPrefix(s.Name, name) {
				covered += s.dur()
			}
		}
	}
	b.set("trace.coverage", "ratio", float64(covered)/float64(untracedRun),
		fmt.Sprintf("layer spans / untraced RunSpec.Run, %d specs", len(specs)))
	b.set("trace.overhead_us", "us", median(extra),
		fmt.Sprintf("median over %d specs of traced minus untraced time per request; run-to-run noise of a 15 ms request dwarfs it", len(extra)))

	inRequest := func(prefix string, unit time.Duration) float64 {
		d, _ := t.mean("request", prefix)
		return float64(d) / float64(unit)
	}
	b.set("solarcore.spec_us", "us", inRequest("solarcore.validate", time.Microsecond)+inRequest("solarcore.hash", time.Microsecond),
		"Validate + Hash per spec")
	b.set("atmos.generate_ms", "ms", inRequest("atmos.generate", time.Millisecond), "atmos.Generate")
	b.set("sim.day_build_ms", "ms", inRequest("sim.day_build", time.Millisecond), "sim.NewSolarDay")
	mpp, n := t.mean("pv.mpp_day", "pv.mpp")
	b.set("pv.mpp_us", "us", float64(mpp)/1e3, fmt.Sprintf("pv.(*Module).MPP on the days' envs, n=%d", n))
	b.set("pv.mpp_calls_per_day", "count", float64(calls)/float64(len(probed)), "MPP solves per SolarDay build")
	b.set("sim.track_ms", "ms", inRequest("sim.track.", time.Millisecond), "Runner.Run on a prebuilt day, all modes")
	for _, mode := range []string{"mppt", "fixed", "battery"} {
		d, n := t.mean("", "sim.track."+mode)
		note := fmt.Sprintf("n=%d", n)
		if !modes[mode] {
			note += ", probe: the workload has no runs in this mode"
		}
		b.set("sim.track_ms."+mode, "ms", float64(d)/1e6, note)
	}
	b.set("serve.marshal_ms", "ms", inRequest("serve.marshal", time.Millisecond), "json.Marshal(DayResult)")
	size := 0
	for _, body := range bodies {
		size += len(body)
	}
	b.set("serve.result_bytes", "bytes", float64(size)/float64(len(bodies)), "marshaled DayResult")
	return specs, bodies, nil
}

// probeServeStore times serve.(*Server).Result in process — a miss
// simulates, a repeat hits — then store.Put and store.Get on the
// benchmark's own filesystem, and a warm start over what they wrote.
func (b *bench) probeServeStore(ctx context.Context, t *tracer, specs []solarcore.RunSpec, bodies [][]byte) error {
	srv := serve.New(serve.Config{Clock: time.Now})
	defer func() { _ = srv.Close() }()
	for i, s := range specs {
		for _, want := range []string{obs.CacheMiss, obs.CacheHit} {
			var got string
			var err error
			var body []byte
			t.do("serve.result_"+want, 0, i, func() { body, got, err = srv.Result(ctx, s, 0) })
			if err != nil {
				return err
			}
			if got != want || !bytes.Equal(body, bodies[i]) {
				b.fail("serve.Result gave %s with other bytes, want %s", got, want)
			}
		}
	}
	miss, _ := t.mean("", "serve.result_"+obs.CacheMiss)
	hit, _ := t.mean("", "serve.result_"+obs.CacheHit)
	b.set("serve.result_miss_ms", "ms", float64(miss)/1e6, "serve.(*Server).Result, uncached")
	b.set("serve.result_hit_us", "us", float64(hit)/1e3, "serve.(*Server).Result, cached")

	dir := filepath.Join(b.work, "trace-store")
	st, err := store.Open(store.Config{Dir: dir, Clock: time.Now})
	if err != nil {
		return err
	}
	for i, s := range specs {
		t.do("store.put", 0, i, func() { err = st.Put(s.Hash(), bodies[i]) })
		if err != nil {
			_ = st.Close()
			return err
		}
	}
	for i, s := range specs {
		var got []byte
		var ok bool
		t.do("store.get", 0, i, func() { got, ok = st.Get(s.Hash()) })
		if !ok || !bytes.Equal(got, bodies[i]) {
			b.fail("store.Get lost or changed %s", specLabel(s))
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	st, err = store.Open(store.Config{Dir: dir, Clock: time.Now})
	if err != nil {
		return err
	}
	records, _, warmMs := st.WarmStart()
	if err := st.Close(); err != nil {
		return err
	}
	put, _ := t.mean("", "store.put")
	get, _ := t.mean("", "store.get")
	b.set("store.put_ms", "ms", float64(put)/1e6, "store.Put, fsynced")
	b.set("store.get_us", "us", float64(get)/1e3, "store.Get, verified read")
	b.set("store.warm_start_ms", "ms", warmMs, fmt.Sprintf("store.Open over %d records", records))
	return nil
}

// writeTrace writes the spans and the self-time tables under
// .bench_build/out and prints the tables.
func (b *bench) writeTrace(t *tracer) error {
	out := filepath.Join(filepath.Dir(filepath.Dir(b.work)), "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err := t.writeSpans(stem + "-spans.jsonl"); err != nil {
		return err
	}
	isRequest := func(root string) bool { return root == "request" }
	reqStats := t.selfTimes(isRequest)
	var table bytes.Buffer
	fmt.Fprintf(&table, "# one /v1/run request's layer calls, in process (%s)\n", b.workload)
	writeTable(&table, reqStats)
	fmt.Fprintf(&table, "# probes: HTTP and gate hops, MPP solves, serve.Result, store\n")
	writeTable(&table, t.selfTimes(func(root string) bool { return !isRequest(root) }))
	if err := os.WriteFile(stem+"-layers.txt", table.Bytes(), 0o644); err != nil {
		return err
	}
	var reqSelf time.Duration
	for _, st := range reqStats {
		reqSelf += st.self
	}
	b.say("largest layer of a request: %s, %.1f%% of its self time", reqStats[0].name, 100*float64(reqStats[0].self)/float64(reqSelf))
	b.say("spans: %d written to %s-spans.jsonl; self-time tables:", len(t.spans), stem)
	for _, line := range strings.Split(strings.TrimRight(table.String(), "\n"), "\n") {
		b.say("  %s", line)
	}
	return nil
}
