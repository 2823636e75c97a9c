package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the id of the span that made the call (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; the spans are written out once the
// run ends, so tracing does no I/O while it times. It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// do runs f inside a span.
func (t *tracer) do(name string, parent, req int, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// layerStat is one row of the self-time table.
type layerStat struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// selfTimes aggregates by name the spans whose root span satisfies
// keep. A span's self time is its duration minus that of its children;
// a layer's children run one after another, so the sum of their
// durations is the part of the interval they cover.
func (t *tracer) selfTimes(keep func(root string) bool) []layerStat {
	child := make([]time.Duration, len(t.spans)+1)
	root := make([]string, len(t.spans)+1)
	for _, s := range t.spans {
		root[s.ID] = s.Name
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
			root[s.ID] = root[s.Parent]
		}
	}
	by := map[string]*layerStat{}
	var order []string
	for _, s := range t.spans {
		if !keep(root[s.ID]) {
			continue
		}
		st, ok := by[s.Name]
		if !ok {
			st = &layerStat{name: s.Name}
			by[s.Name] = st
			order = append(order, s.Name)
		}
		st.count++
		st.total += s.dur()
		st.self += s.dur() - child[s.ID]
	}
	out := make([]layerStat, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// mean returns the mean duration, and the count, of the spans whose
// name has the prefix and, unless parent is empty, whose parent span is
// named parent.
func (t *tracer) mean(parent, prefix string) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		if parent != "" && (s.Parent == 0 || t.spans[s.Parent-1].Name != parent) {
			continue
		}
		sum += s.dur()
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / time.Duration(n), n
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeTable prints the self-time table, heaviest layer first.
func writeTable(w io.Writer, stats []layerStat) {
	var all time.Duration
	for _, s := range stats {
		all += s.self
	}
	fmt.Fprintf(w, "%-22s %8s %12s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self_mean_us", "self_%")
	for _, s := range stats {
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f %12.2f %6.1f%%\n", s.name, s.count,
			float64(s.total)/1e6, float64(s.self)/1e6, float64(s.self)/1e3/float64(s.count),
			100*float64(s.self)/float64(all))
	}
}
