package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"solarcore"
	"solarcore/client"
)

// newHTTPClient allows at most conns connections to the target: the
// load generator never opens more connections than it has workers.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// outcome is one request of a measured phase.
type outcome struct {
	lat  time.Duration // request latency (open loop: from its due time)
	late time.Duration // how late the generator sent it
	sent time.Duration // when it was sent (open loop: due), from the phase start
	ok   bool
	err  string
	// runs completed and verified by this request, with their result
	// digests for the post-run byte check.
	runs []served
}

// served is one simulated day a response delivered.
type served struct {
	spec solarcore.RunSpec
	sum  [32]byte
}

// post sends one JSON body and returns the response body. For /v1/run
// it requires the X-Body-Sum header and checks the body against it, so
// a missing or wrong checksum fails the request.
func post(ctx context.Context, hc *http.Client, url string, body []byte, needSum bool) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, client.DecodeError(resp.StatusCode, resp.Header, b)
	}
	if needSum {
		sum := resp.Header.Get(client.HeaderBodySum)
		if sum == "" {
			return nil, fmt.Errorf("no %s header", client.HeaderBodySum)
		}
		if err := client.CheckBodySum(sum, b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func runBody(s solarcore.RunSpec) []byte {
	b, err := json.Marshal(client.RunRequest{V: client.WireVersion, RunSpec: s})
	if err != nil {
		panic(err) // RunSpec holds only strings and numbers
	}
	return b
}

func sweepBody(specs []solarcore.RunSpec) []byte {
	req := client.SweepRequest{V: client.WireVersion}
	for _, s := range specs {
		req.Runs = append(req.Runs, client.RunRequest{V: client.WireVersion, RunSpec: s})
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // RunSpec holds only strings and numbers
	}
	return b
}

// doRun sends one /v1/run request and records its latency from start.
func doRun(ctx context.Context, hc *http.Client, base string, s solarcore.RunSpec, body []byte, start time.Time) outcome {
	b, err := post(ctx, hc, base+"/v1/run", body, true)
	o := outcome{lat: time.Since(start)}
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.ok = true
	o.runs = []served{{spec: s, sum: sha256.Sum256(b)}}
	return o
}

// doSweep sends one /v1/sweep batch; every item must carry a result.
func doSweep(ctx context.Context, hc *http.Client, base string, specs []solarcore.RunSpec, body []byte, start time.Time) outcome {
	b, err := post(ctx, hc, base+"/v1/sweep", body, false)
	o := outcome{lat: time.Since(start)}
	if err != nil {
		o.err = err.Error()
		return o
	}
	var sr client.SweepResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		o.err = err.Error()
		return o
	}
	if len(sr.Results) != len(specs) {
		o.err = fmt.Sprintf("sweep returned %d items for %d runs", len(sr.Results), len(specs))
		return o
	}
	for i, it := range sr.Results {
		if it.Error != "" || len(it.Result) == 0 || it.Hash != specs[i].Hash() {
			o.err = fmt.Sprintf("sweep item %d: hash %s error %q", i, it.Hash, it.Error)
			return o
		}
		o.runs = append(o.runs, served{spec: specs[i], sum: sha256.Sum256(it.Result)})
	}
	o.ok = true
	return o
}

// closedLoop runs workers clients, each sending its next request only
// after the previous one completed, until d has passed, and returns the
// outcomes in send order. A request's "late" time is the generator's own
// turnaround before sending it.
func closedLoop(ctx context.Context, workers int, d time.Duration, send func() outcome) ([]outcome, time.Duration) {
	var mu sync.Mutex
	var all []outcome
	var wg sync.WaitGroup
	t0 := time.Now()
	stop := t0.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			last := time.Now()
			for ctx.Err() == nil {
				start := time.Now()
				if start.After(stop) {
					break
				}
				o := send()
				o.late, o.sent = start.Sub(last), start.Sub(t0)
				last = time.Now()
				mine = append(mine, o)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].sent < all[j].sent })
	return all, time.Since(t0)
}

// openLoop sends request i at due[i] after the start, from workers
// senders: a request due while every sender is busy goes out late, and
// its latency counts from its due time.
func openLoop(ctx context.Context, workers int, due []int64, send func(i int, dueAt time.Time) outcome) ([]outcome, time.Duration) {
	out := make([]outcome, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := t0.Add(time.Duration(due[i]))
				sleepUntil(at)
				late := time.Since(at)
				o := send(i, at)
				o.late, o.sent = late, time.Duration(due[i])
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// sleepUntil blocks in nanosleep(2) until t. time.Sleep parks on the
// runtime's netpoller, whose epoll timeout has millisecond resolution:
// it wakes about half a millisecond late, which would swamp a cached
// request's latency. nanosleep wakes within about a tenth of that.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// percentile returns the q-quantile (nearest rank) of sorted and how
// many samples lie beyond it.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i], len(sorted) - 1 - i
}

func sortedMs(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / 1e6
	}
	sort.Float64s(v)
	return v
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// each runs f(0..n-1) on workers goroutines and returns the outcomes in
// index order.
func each(workers, n int, f func(i int) outcome) []outcome {
	out := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// maxWindows bounds how many consecutive windows windowedTail splits a
// run into.
const maxWindows = 6

// windowedTail splits the latencies, in send order, into as many equal
// windows (at most maxWindows) as leave at least ten samples beyond the
// q-quantile in each, and returns the median of the windows' quantiles,
// the quantiles themselves and the fewest samples beyond any of them. A
// single stall then moves one window, not the reported tail.
func windowedTail(lat []time.Duration, q float64) (tail float64, wins []float64, beyond int) {
	w := int(float64(len(lat)) * (1 - q) / 10)
	w = max(1, min(w, maxWindows))
	beyond = len(lat)
	for i := 0; i < w; i++ {
		v, n := percentile(sortedMs(lat[i*len(lat)/w:(i+1)*len(lat)/w]), q)
		wins = append(wins, v)
		beyond = min(beyond, n)
	}
	return median(wins), wins, beyond
}
