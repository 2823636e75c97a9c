// Command perfbench is solarcore's end-to-end benchmark. It starts the
// real solard and solargate binaries on loopback, drives one workload
// against them from this single process, checks the result bytes, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object. With -trace 1 it instead reports per-layer
// numbers from an in-process replay of the workload's specs with a span
// around each layer call, plus the servers' own /metrics counters. See
// README.md in this directory for the workloads and what each metric
// should move.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash _perfbench/run.sh --workload fill --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// replayWarm is how many scheduled arrivals warm the replay nodes'
	// LRUs, closed loop, before the measured phase.
	replayWarm = 1000
	// replayRate is replay's offered load in requests per second: well
	// under the gate path's capacity (about 2.7k/s cached on a 2-vCPU
	// host), so the generator measures latency, not a growing backlog.
	replayRate = 500
	// setupReps is how often set-up is repeated in one run; setup_s is
	// the median. Replay's set-up prefills the store, so it repeats less.
	setupReps       = 11
	replaySetupReps = 3
	// verifySample is how many measured runs fill and sweep re-run in
	// process to compare bytes; replay compares every key.
	verifySample = 12
	// traceSpecs is how many fill specs the traced run replays in
	// process; sweep replays one batch, replay its first keys.
	traceSpecs = 24
	// probeCalls is how many cached /v1/run calls each HTTP probe makes.
	probeCalls = 200
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: a workload, a seed and a length.
type bench struct {
	workload string
	seed     int64
	seconds  int
	bins     string // directory holding solard and solargate
	work     string // scratch root for stores and outputs
	workers  int    // load-generator connections and threads: nproc
	traceRun bool   // -trace 1: report per-layer metrics

	res    result
	report []string // human-readable lines printed before the JSON
}

func main() { os.Exit(run()) }

func run() int {
	var b bench
	var trace int
	flag.StringVar(&b.workload, "workload", "", "fill, sweep or replay")
	flag.Int64Var(&b.seed, "seed", 1, "workload seed")
	flag.IntVar(&b.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run")
	flag.StringVar(&b.bins, "bin", "", "directory with the solard and solargate binaries")
	flag.StringVar(&b.work, "work", "", "directory for stores and outputs")
	flag.Parse()
	switch {
	case b.workload != "fill" && b.workload != "sweep" && b.workload != "replay":
		return usage("unknown -workload %q (want fill, sweep or replay)", b.workload)
	case b.seconds < 2:
		return usage("-seconds must be at least 2")
	case trace != 0 && trace != 1:
		return usage("-trace must be 0 or 1")
	case b.bins == "" || b.work == "":
		return usage("-bin and -work are required")
	}
	b.workers = runtime.NumCPU()
	b.res = result{Correct: true, Metrics: map[string]metric{}}
	b.work = filepath.Join(b.work, "run", fmt.Sprintf("%s-%d", b.workload, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return usage("%v", err)
	}
	defer func() { _ = os.RemoveAll(b.work) }()

	var err error
	if b.traceRun = trace == 1; b.traceRun {
		err = b.traced()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	host, err := hostRecord(b.work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: host record: %v\n", err)
		return 1
	}
	w := bufio.NewWriter(os.Stdout)
	for _, line := range b.report {
		fmt.Fprintln(w, line)
	}
	hb, _ := json.Marshal(host) // strings and ints only
	fmt.Fprintf(w, "host: %s\n", hb)
	rb, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", rb)
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	return 2
}

// set records a metric and its report line; note says what it counts.
func (b *bench) set(name, unit string, v float64, note string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
	b.say("%s %.6g %s  (%s)", name, v, unit, note)
}

func (b *bench) say(format string, args ...any) {
	b.report = append(b.report, b.workload+": "+fmt.Sprintf(format, args...))
}

// fail marks the run incorrect with a reason.
func (b *bench) fail(format string, args ...any) {
	b.res.Correct = false
	b.say("CHECK FAILED: "+format, args...)
}

// phase is one workload's servers plus its measured phase.
type phase struct {
	f       *fleet
	setups  []float64     // seconds per set-up repetition
	prefill []outcome     // replay: the set-up's prefill requests
	outs    []outcome     // the measured phase
	d       time.Duration // the measured phase's configured length
	elapsed time.Duration // until its last response
	// before and after are the nodes' /metrics counters, summed, around
	// the measured phase.
	before, after map[string]float64
	cpu           float64 // server CPU seconds spent in the measured phase
	plan          replayPlan
}

// runsDone is the number of verified runs the phase delivered.
func (p *phase) runsDone() int {
	n := 0
	for _, o := range p.outs {
		if o.ok {
			n += len(o.runs)
		}
	}
	return n
}

// start brings up the workload's servers setupReps times (keeping the
// last) and, on replay, prefills and warms them each time; then it runs
// the measured phase for d. On success the caller stops p.f.
func (b *bench) start(ctx context.Context, d time.Duration) (_ *phase, err error) {
	p := &phase{d: d}
	defer func() {
		if err != nil && p.f != nil {
			p.f.stop()
		}
	}()
	reps := setupReps
	if b.workload == "replay" {
		reps = replaySetupReps
		p.plan = newReplayPlan(b.seed, replayRate, int(d/time.Second))
	}
	for rep := 0; rep < reps; rep++ {
		if p.f != nil {
			p.f.stop()
		}
		t0 := time.Now()
		if b.workload == "replay" {
			if p.f, err = startFleet(b.bins, b.work, 2, replayNodeCache, true); err == nil {
				err = b.prefill(ctx, p)
			}
		} else {
			p.f, err = startFleet(b.bins, b.work, 1, 1024, false)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}

	// fill and sweep are closed loops: send makes one request. Replay is
	// an open loop over its schedule.
	hc := newHTTPClient(b.workers)
	var send func() outcome
	switch b.workload {
	case "fill":
		g := newFillGen(b.seed)
		send = func() outcome {
			s := g.Next()
			body := runBody(s)
			return doRun(ctx, hc, p.f.target, s, body, time.Now())
		}
	case "sweep":
		g := newSweepGen(b.seed)
		send = func() outcome {
			batch := g.Next()
			body := sweepBody(batch)
			return doSweep(ctx, hc, p.f.target, batch, body, time.Now())
		}
	}
	if send != nil {
		// Warm the connections and the node with one request each.
		each(b.workers, b.workers, func(int) outcome { return send() })
	}
	if p.before, err = b.nodeCounters(ctx, p.f); err != nil {
		return nil, err
	}
	cpu0, err := p.f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if send != nil {
		p.outs, p.elapsed = closedLoop(ctx, b.workers, d, send)
	} else {
		bodies := make([][]byte, len(p.plan.Keys))
		for i, s := range p.plan.Keys {
			bodies[i] = runBody(s)
		}
		p.outs, p.elapsed = openLoop(ctx, b.workers, p.plan.Due, func(i int, due time.Time) outcome {
			k := p.plan.Key[i]
			return doRun(ctx, hc, p.f.target, p.plan.Keys[k], bodies[k], due)
		})
	}
	cpu1, err := p.f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if p.after, err = b.nodeCounters(ctx, p.f); err != nil {
		return nil, err
	}
	return p, nil
}

// prefill asks every node for every replay key, so each node's store
// holds the whole key set and a request the gate hedges or retries onto
// a second node reads its store instead of simulating. It then warms
// the nodes' LRUs with the schedule's first arrivals through the gate.
// Every request must succeed.
func (b *bench) prefill(ctx context.Context, p *phase) error {
	hc := newHTTPClient(b.workers)
	keys := p.plan.Keys
	p.prefill = nil
	for _, n := range p.f.nodes {
		p.prefill = append(p.prefill, each(b.workers, len(keys), func(i int) outcome {
			return doRun(ctx, hc, n.url, keys[i], runBody(keys[i]), time.Now())
		})...)
	}
	warm := each(b.workers, min(replayWarm, len(p.plan.Key)), func(i int) outcome {
		k := keys[p.plan.Key[i]]
		return doRun(ctx, hc, p.f.target, k, runBody(k), time.Now())
	})
	for _, o := range append(warm, p.prefill...) {
		if !o.ok {
			return fmt.Errorf("prefill: %s", o.err)
		}
	}
	return nil
}
