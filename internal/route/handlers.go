package route

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"solarcore/client"
	"solarcore/internal/edge"
	"solarcore/internal/obs"
)

// countRequest records one completed request for the edge middleware
// (single registration site for the counter).
func (rt *Router) countRequest() {
	rt.reg.Add(MetricRequests, 1)
}

// countPanic records one contained panic (single registration site for
// the counter).
func (rt *Router) countPanic() {
	rt.reg.Add(MetricPanics, 1)
}

// writeFetchError maps a fetchRun failure onto the wire envelope. An
// upstream APIError passes through with its original status, code and
// Retry-After — the gate is transparent to solard's own semantics; gate-
// local conditions get their own codes.
func (rt *Router) writeFetchError(w http.ResponseWriter, err error) {
	var ae *client.APIError
	switch {
	case errors.As(err, &ae):
		if ae.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(ae.RetryAfter.Seconds())))
		}
		client.WriteError(w, ae.Status, ae.Code, ae.Message)
	case errors.Is(err, ErrNoBackends):
		w.Header().Set("Retry-After", "1")
		client.WriteError(w, http.StatusServiceUnavailable, client.CodeNoBackends, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		client.WriteError(w, http.StatusGatewayTimeout, client.CodeDeadline, err.Error())
	case errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		client.WriteError(w, http.StatusServiceUnavailable, client.CodeCanceled, err.Error())
	default:
		client.WriteError(w, http.StatusBadGateway, client.CodeUnreachable,
			fmt.Sprintf("upstream unreachable: %v", err))
	}
}

// refuseDraining answers the drain rejection of the work routes and
// reports whether it did.
func (rt *Router) refuseDraining(w http.ResponseWriter) bool {
	if !rt.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "5")
	client.WriteError(w, http.StatusServiceUnavailable, client.CodeDraining, "router is draining")
	return true
}

// handleRun serves POST /v1/run: validate once at the edge, route to
// the owning shard, and relay the winner's body byte-for-byte. The
// response reports where the bytes came from: X-Cache is the backend's
// cache disposition, X-Gate the route disposition (primary/hedged/
// retried), X-Gate-Backend the node that answered.
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	if rt.refuseDraining(w) {
		return
	}
	req, rej := edge.DecodeRun(w, r)
	if rej != nil {
		rej.Write(w)
		return
	}
	res, disp, backendName, err := rt.fetchRun(r.Context(), req.Hash(), req)
	if err != nil {
		rt.writeFetchError(w, err)
		return
	}
	if res.Cache != "" {
		w.Header().Set(client.HeaderCache, res.Cache)
	}
	w.Header().Set(client.HeaderRoute, disp)
	w.Header().Set(client.HeaderBackend, backendName)
	// Re-declare integrity for the gate→client hop: the upstream sum was
	// verified by the typed client when the body arrived here.
	w.Header().Set(client.HeaderBodySum, client.BodySum(res.Body))
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(res.Body)
}

// handleSweep serves POST /v1/sweep: the batch is validated up front,
// then every cell is routed independently to its owning shard — each
// with its own hedge/retry budget — and reassembled in request order.
// Per-cell failures are reported in-place so one bad shard never loses
// the batch.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	if rt.refuseDraining(w) {
		return
	}
	req, rej := edge.DecodeSweep(w, r, rt.cfg.MaxSweep)
	if rej != nil {
		rej.Write(w)
		return
	}
	ctx := r.Context()
	items := make([]client.SweepItem, len(req.Runs))
	// Durable sweeps: restore cells a previous (crashed) attempt already
	// finished and journal new completions. done is written only here,
	// before the workers start, and read-only afterwards.
	done := make([]bool, len(req.Runs))
	var ck *checkpoint
	if rt.cfg.CheckpointDir != "" {
		ck = rt.openCheckpoint(sweepID(req.Runs), items, done)
	}
	// Four fan-out workers per backend keep every shard busy.
	edge.Sweep(ctx, req.Runs, items, 4*len(rt.backends), func(i int) {
		if done[i] {
			return
		}
		items[i] = rt.sweepCell(ctx, req.Runs[i])
		if items[i].Error == "" {
			ck.record(i, items[i])
		}
	})
	if ck != nil {
		// Cells the feed never started carry the cancellation error, so
		// an error-free batch is exactly a complete one.
		ck.finish(!slices.ContainsFunc(items, func(it client.SweepItem) bool { return it.Error != "" }))
	}
	edge.WriteJSON(w, http.StatusOK, client.SweepResponse{Results: items})
}

// sweepCell routes one sweep cell as a per-cell run, containing a
// panicking code path to its own item.
func (rt *Router) sweepCell(ctx context.Context, spec client.RunRequest) (item client.SweepItem) {
	defer func() {
		if p := recover(); p != nil {
			rt.countPanic()
			item.Cache = ""
			item.Result = nil
			item.Error = fmt.Sprintf("cell panicked: %v", p)
		}
	}()
	item.Hash = spec.Hash()
	res, _, _, err := rt.fetchRun(ctx, item.Hash, spec)
	if err != nil {
		item.Error = err.Error()
		return item
	}
	item.Cache = res.Cache
	item.Result = res.Body
	return item
}

// handlePolicies proxies GET /v1/policies to the first healthy backend
// — the policy table is identical fleet-wide, so any node can answer.
func (rt *Router) handlePolicies(w http.ResponseWriter, r *http.Request) {
	var lastErr error
	for _, b := range rt.healthyBackends() {
		pols, err := b.cli.Policies(r.Context())
		if err == nil {
			edge.WriteJSON(w, http.StatusOK, client.PoliciesResponse{Policies: pols})
			return
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrNoBackends
	}
	rt.writeFetchError(w, lastErr)
}

// handleMetrics serves GET /metrics: the router's own route_* counters
// merged with every healthy backend's snapshot through
// obs.MergeSnapshots — one fleet-wide view, counters summed, gauges
// last-write, histograms pooled.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snaps := []obs.Snapshot{rt.reg.Snapshot()}
	for _, b := range rt.healthyBackends() {
		snap, err := b.cli.Metrics(r.Context())
		if err != nil {
			// A node that cannot answer /metrics right now is simply absent
			// from this scrape; the prober will eject it if it stays dark.
			continue
		}
		snaps = append(snaps, snap)
	}
	merged := obs.MergeSnapshots(snaps...)
	w.Header().Set("Content-Type", "application/json")
	// A late encode failure cannot reach the client; dropped deliberately.
	_ = merged.WriteJSON(w)
}

// handleHealthz serves GET /healthz: 200 while at least one backend is
// routable, 503 once draining or when the whole fleet is ejected.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case rt.draining.Load():
		w.Header().Set("Retry-After", "5")
		edge.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case rt.Healthy() == 0:
		w.Header().Set("Retry-After", "1")
		edge.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy backends"})
	default:
		edge.WriteJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"backends": rt.Healthy(),
		})
	}
}
