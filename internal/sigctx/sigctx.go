// Package sigctx is the context plumbing shared by the CLIs and the
// servers. WithShutdown wires POSIX shutdown signals into a context:
// cmd/solard (graceful HTTP drain) and cmd/solarfleet (worker-pool
// cancellation with partial-result flush) share it so both react to
// SIGINT and SIGTERM identically — first signal cancels the context
// cooperatively, second signal kills the process via Go's default
// disposition (signal.Reset inside stop). Each is the one
// context-bounded worker pool behind solarfleet's days, the experiment
// lab's prefetch grid and both servers' /v1/sweep fan-out.
// ServeAndDrain is the one shutdown state machine of solard and
// solargate, and OpenAccess opens their -access sink.
package sigctx

import (
	"context"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// WithShutdown returns a copy of parent canceled on SIGINT or SIGTERM.
// Call stop to release the signal registration; after stop (or after the
// first signal) a subsequent signal takes the process down immediately.
func WithShutdown(parent context.Context) (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// Each runs fn(i) for i in [0, n) on at most workers goroutines (at
// least one) and waits for them. Indices are fed in order, each only
// after ctx is checked not done: a context done before the call runs
// nothing, and after a cancel at most the one index whose check raced
// it still starts (running ones finish). A canceled caller never blocks
// on the feed. fed is the count of indices handed out — exactly
// [0, fed) ran; n when ctx outlived the feed.
func Each(ctx context.Context, n, workers int, fn func(i int)) (fed int) {
	workers = max(1, min(workers, n))
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	defer func() {
		close(next)
		wg.Wait()
	}()
	for i := range n {
		if ctx.Err() != nil {
			return i
		}
		select {
		case next <- i:
		case <-ctx.Done():
			return i
		}
	}
	return n
}
