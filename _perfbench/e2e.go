package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"solarcore/internal/serve"
)

// nodeCounters sums the nodes' /metrics counters, adds each node's
// serve_run_ms sum and count under "serve_run_ms.sum" and
// "serve_run_ms.count", and the gate's counters under a "gate/" prefix.
func (b *bench) nodeCounters(ctx context.Context, f *fleet) (map[string]float64, error) {
	m := map[string]float64{}
	for _, n := range f.nodes {
		snap, err := n.metrics(ctx)
		if err != nil {
			return nil, err
		}
		for k, v := range snap.Counters {
			m[k] += v
		}
		h := snap.Histograms[serve.MetricRunMs]
		m[serve.MetricRunMs+".sum"] += h.Sum
		m[serve.MetricRunMs+".count"] += float64(h.Count)
	}
	if f.gate != nil {
		snap, err := f.gate.metrics(ctx)
		if err != nil {
			return nil, err
		}
		for k, v := range snap.Counters {
			m["gate/"+k] += v
		}
	}
	return m, nil
}

func (p *phase) delta(name string) float64 { return p.after[name] - p.before[name] }

// endToEnd runs the workload untraced and reports the end-to-end
// metrics.
func (b *bench) endToEnd() error {
	ctx := context.Background()
	p, err := b.start(ctx, time.Duration(b.seconds)*time.Second)
	if err != nil {
		return err
	}
	rss, err := p.f.peakRSSMiB()
	p.f.stop()
	if err != nil {
		return err
	}
	if err := b.verify(p); err != nil {
		return err
	}

	lat := p.latencies()
	b.count(p)
	req := b.requestNoun()
	rates, p50s := p.windowed()
	b.set("setup_s", "s", median(p.setups), fmt.Sprintf("median of %d set-ups %s", len(p.setups), fmtList(p.setups)))
	b.set("runs_per_s", "1/s", median(rates), fmt.Sprintf("median over %d windows of verified runs completed per second %s; %d runs in %.3f s",
		len(rates), fmtList(rates), p.runsDone(), p.elapsed.Seconds()))
	b.set("latency_p50_ms", "ms", median(p50s), fmt.Sprintf("median over %d windows of %s p50 %s; n=%d %ss",
		len(p50s), req, fmtList(p50s), len(lat), req))
	b.set("server_cpu_ms_per_run", "ms", p.cpu*1000/float64(max(p.runsDone(), 1)),
		fmt.Sprintf("%.2f CPU s of %d server processes over %d runs in the measured phase", p.cpu, len(p.f.procs), p.runsDone()))
	b.set("server_rss_mb", "MiB", rss, fmt.Sprintf("peak VmHWM summed over %d server processes", len(p.f.procs)))
	fail := float64(b.res.Failed) / float64(b.res.Attempted)
	b.set("ok_frac", "ratio", 1-fail, fmt.Sprintf("1 - fail_frac; fail_frac %.6g = %d failed of %d attempted",
		fail, b.res.Failed, b.res.Attempted))
	b.reportTail(p, lat)
	return nil
}

// count records the phase's attempted and failed requests, and reports
// the first failure.
func (b *bench) count(p *phase) {
	b.res.Attempted = len(p.outs)
	for _, o := range p.outs {
		if !o.ok {
			if b.res.Failed == 0 {
				b.say("first failed request: %s", o.err)
			}
			b.res.Failed++
		}
	}
}

// requestNoun names what one request of the workload carries.
func (b *bench) requestNoun() string {
	if b.workload == "sweep" {
		return "batch"
	}
	return "request"
}

// latencies returns each request's latency in send order; a failed
// request counts as the whole phase, since it misses any latency limit.
func (p *phase) latencies() []time.Duration {
	lat := make([]time.Duration, len(p.outs))
	for i, o := range p.outs {
		lat[i] = o.lat
		if !o.ok {
			lat[i] = p.elapsed
		}
	}
	return lat
}

// phaseWindows is how many equal spans of time the measured phase is
// split into. Throughput and the median latency are reported as the
// median over the windows, so a burst of load from elsewhere on the
// host moves one window, not the result.
const phaseWindows = 6

// windowed returns, for each window of the measured phase, the verified
// runs per second delivered in it, and the p50 latency of the requests
// sent in it. A request's runs are spread evenly over its lifetime, so
// a 40-run sweep batch straddling two windows counts in both.
func (p *phase) windowed() (rates, p50s []float64) {
	lat := p.latencies()
	for w := 0; w < phaseWindows; w++ {
		lo, hi := p.d*time.Duration(w)/phaseWindows, p.d*time.Duration(w+1)/phaseWindows
		var runs float64
		var sent []time.Duration
		for i, o := range p.outs {
			if o.ok {
				start, end := o.sent, o.sent+o.lat
				if overlap := min(end, hi) - max(start, lo); overlap > 0 {
					runs += float64(len(o.runs)) * float64(overlap) / float64(max(end-start, 1))
				}
			}
			if o.sent >= lo && o.sent < hi {
				sent = append(sent, lat[i])
			}
		}
		rates = append(rates, runs/(hi-lo).Seconds())
		if len(sent) > 0 {
			v, _ := percentile(sortedMs(sent), 0.5)
			p50s = append(p50s, v)
		}
	}
	return rates, p50s
}

// reportTail reports the tail latency, at the highest of p99, p90 and
// p75 that keeps at least ten samples beyond it (p99 on fill and
// replay; sweep's hundred-odd batches support p90 or p75), and the
// generator's lateness. Both follow the host's CPU steal too closely for
// a bound, so they are printed here and are per-layer metrics of the
// traced run.
func (b *bench) reportTail(p *phase, lat []time.Duration) {
	q := 0.75
	for _, c := range []float64{0.99, 0.90} {
		if float64(len(lat))*(1-c) >= 10 {
			q = c
			break
		}
	}
	name := fmt.Sprintf("latency_p%g_ms", q*100)
	if b.workload == "sweep" {
		name = fmt.Sprintf("batch_p%g_ms", q*100)
	}
	tail, wins, beyond := windowedTail(lat, q)
	note := fmt.Sprintf("median of %d windows' p%g %s, >=%d samples beyond each; n=%d %ss", len(wins), q*100, fmtList(wins), beyond, len(lat), b.requestNoun())
	if beyond < 10 {
		note += "; WARNING: fewer than 10 samples beyond, run longer"
	}
	b.say("%s %.6g ms  (%s)", name, tail, note)
	if b.traceRun {
		b.set("e2e.latency_tail_ms", "ms", tail, name+": "+note)
	}
	late := make([]time.Duration, len(p.outs))
	for i, o := range p.outs {
		late[i] = o.late
	}
	lateMs := sortedMs(late)
	l50, _ := percentile(lateMs, 0.5)
	l99, _ := percentile(lateMs, 0.99)
	note = fmt.Sprintf("generator lateness, p50 %.4g ms, n=%d; validity only", l50, len(lateMs))
	if b.traceRun {
		b.set("bench.gen_late_p99_ms", "ms", l99, note)
	} else {
		b.say("bench.gen_late_p99_ms %.6g ms  (%s)", l99, note)
	}
}

func fmtList(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s + "]"
}

// verify is the correctness gate, run after the measured phase. Every
// response already passed its X-Body-Sum check (sweep responses carry
// none; their items are checked here by digest). It then compares the
// SHA-256 of served result bytes with in-process RunSpec.Run plus
// json.Marshal: a seeded sample of runs on fill and sweep, every key on
// replay. A mismatch fails the request that delivered it. On replay no
// simulation may run during the measured phase.
func (b *bench) verify(p *phase) error {
	type at struct{ out, run int }
	var check []at
	if b.workload == "replay" {
		want := make([][32]byte, len(p.plan.Keys))
		errs := make([]error, len(p.plan.Keys))
		each(b.workers, len(want), func(i int) outcome {
			body, err := reference(p.plan.Keys[i])
			want[i], errs[i] = sha256.Sum256(body), err
			return outcome{}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for i, o := range p.prefill {
			if o.ok && o.runs[0].sum != want[i%len(want)] {
				b.fail("prefill of key %d served wrong bytes", i%len(want))
			}
		}
		bad := 0
		for i := range p.outs {
			o := &p.outs[i]
			if o.ok && o.runs[0].sum != want[p.plan.Key[i]] {
				o.ok, o.err = false, "wrong result bytes"
				bad++
			}
		}
		if bad > 0 {
			b.fail("%d replay responses differ from in-process bytes", bad)
		}
		b.say("verified: all %d keys' bytes and %d measured responses against in-process RunSpec.Run", len(want), len(p.outs))
		if n := p.delta(serve.MetricRuns); n != 0 {
			b.fail("%s rose by %g during the measured phase", serve.MetricRuns, n)
		}
		return nil
	}
	for i, o := range p.outs {
		if !o.ok {
			continue
		}
		for j := range o.runs {
			check = append(check, at{i, j})
		}
	}
	r := rand.New(rand.NewSource(b.seed))
	r.Shuffle(len(check), func(i, j int) { check[i], check[j] = check[j], check[i] })
	if len(check) > verifySample {
		check = check[:verifySample]
	}
	if len(check) == 0 {
		b.fail("no successful request to verify")
		return nil
	}
	for _, c := range check {
		o := &p.outs[c.out]
		got := o.runs[c.run]
		body, err := reference(got.spec)
		if err != nil {
			return err
		}
		if sha256.Sum256(body) != got.sum {
			b.fail("%s: served bytes differ from in-process RunSpec.Run", specLabel(got.spec))
			o.ok, o.err = false, "wrong result bytes"
		}
	}
	b.say("verified: %d sampled runs' bytes against in-process RunSpec.Run", len(check))
	return nil
}
