package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"solarcore"
	"solarcore/client"
	"solarcore/internal/edge"
)

// The wire contract — request/response types, the error envelope, the
// strict decoder — is defined once in solarcore/client and shared with
// the fleet router and every consumer; this package only implements the
// server side of it.

// headerCache is the response header simulation handlers set to report
// the cache disposition; the middleware copies it into the access log.
// The name itself belongs to the wire contract package.
const headerCache = client.HeaderCache

// countRequest records one completed request for the edge middleware;
// the constant name at this one call keeps the counter under the
// solarvet metricname rule.
func (s *Server) countRequest() {
	s.reg.Add(MetricRequests, 1)
}

// countPanic records one contained panic. Both recover sites — the
// edge middleware and the sweep workers' per-item recover — go through
// this helper so the counter keeps a single registration site
// (solarvet metricname rule).
func (s *Server) countPanic() {
	s.reg.Add(MetricPanics, 1)
}

// runErrorClass maps a Result failure to its HTTP status, envelope code
// and retry hint: backpressure and drain shed load retryably (429/503),
// a blown run deadline is 504, and anything else is a plain 500. The
// /v1/run error response and the /v1/stream terminal frame share it.
func runErrorClass(err error) (status int, code string, retryMs int64) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, client.CodeOverloaded, 1000
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, client.CodeDraining, 5000
	case errors.Is(err, solarcore.ErrUnknownPolicy):
		return http.StatusBadRequest, client.CodeBadRequest, 0
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, client.CodeDeadline, 0
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, client.CodeCanceled, 1000
	default:
		return http.StatusInternalServerError, client.CodeInternal, 0
	}
}

// writeRunError answers a Result failure with its runErrorClass status,
// mirroring the retry hint into Retry-After.
func writeRunError(w http.ResponseWriter, err error) {
	status, code, retryMs := runErrorClass(err)
	if retryMs > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(retryMs/1000, 10))
	}
	msg := err.Error()
	if code == client.CodeDeadline {
		msg = "run deadline exceeded: " + msg
	}
	client.WriteError(w, status, code, msg)
}

// refuseDraining answers the drain rejection of the work routes and
// reports whether it did.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "5")
	client.WriteError(w, http.StatusServiceUnavailable, client.CodeDraining, ErrDraining.Error())
	return true
}

// handleRun serves POST /v1/run: one spec in, one DayResult out, through
// cache, coalescer and the bounded pool.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	req, rej := edge.DecodeRun(w, r)
	if rej != nil {
		rej.Write(w)
		return
	}
	body, src, err := s.Result(r.Context(), req.RunSpec, req.TimeoutMs)
	if err != nil {
		writeRunError(w, err)
		return
	}
	w.Header().Set(headerCache, src)
	// Declare the body checksum so clients can detect in-flight
	// corruption: HTTP itself delivers flipped bits as a healthy 200.
	w.Header().Set(client.HeaderBodySum, client.BodySum(body))
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// handleSweep serves POST /v1/sweep: the whole batch is validated up
// front (any invalid spec or wire version fails the request with 400
// before any simulation starts), then fanned over the worker pool;
// per-item failures (deadline, shed load) are reported in-place so one
// bad cell never loses the batch.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	req, rej := edge.DecodeSweep(w, r, s.cfg.MaxSweep)
	if rej != nil {
		rej.Write(w)
		return
	}
	ctx := r.Context()
	items := make([]client.SweepItem, len(req.Runs))
	edge.Sweep(ctx, req.Runs, items, s.cfg.MaxInflight, func(i int) {
		items[i] = s.sweepItem(ctx, req.Runs[i])
	})
	edge.WriteJSON(w, http.StatusOK, client.SweepResponse{Results: items})
}

// sweepItem runs one sweep cell, containing a panicking simulation to
// its own item (the sweep workers sit outside the middleware's recover,
// so without this a single bad cell would take down the process).
func (s *Server) sweepItem(ctx context.Context, spec client.RunRequest) (item client.SweepItem) {
	defer func() {
		if p := recover(); p != nil {
			s.countPanic()
			item.Cache = ""
			item.Result = nil
			item.Error = fmt.Sprintf("run panicked: %v", p)
		}
	}()
	item.Hash = spec.Hash()
	body, src, err := s.Result(ctx, spec.RunSpec, spec.TimeoutMs)
	if err != nil {
		item.Error = err.Error()
		return item
	}
	item.Cache = src
	item.Result = body
	return item
}

// handlePolicies serves GET /v1/policies: the Table 6 policy names.
func (s *Server) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	edge.WriteJSON(w, http.StatusOK, client.PoliciesResponse{Policies: solarcore.Policies()})
}

// handleMetrics serves GET /metrics: the Metrics snapshot as indented
// JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// A late encode failure cannot reach the client; dropped deliberately.
	_ = s.Metrics().WriteJSON(w)
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once
// draining so load balancers stop routing new work here.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		edge.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	edge.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
