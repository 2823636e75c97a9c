package stream

import "solarcore/internal/obs"

// NewPublisher returns the obs envelope adapter publishing every event
// of a run to t. It is the same obs.EventFunc encoder a JSONLSink uses,
// so a live stream and a durable tail replay deliver identical lines.
//
// Publish never blocks (Topic drops oldest under pressure), so a
// publisher attached via solarcore.WithObserver keeps the simulation
// hot-path cost at one marshal per hook — and the benchmark pair in
// bench_test.go holds that to <1% of the run.
func NewPublisher(t *Topic) obs.EventFunc { return t.Publish }
