// Package edge is the server side of the solarcore/client wire contract,
// shared by solard (internal/serve) and solargate (internal/route): the
// instrumenting middleware, the JSON response writer, the strict request
// decoders of /v1/run, /v1/sweep and /v1/stream, the SSE frame writer and
// the context-bounded sweep fan-out. Both servers receive requests
// through this one module, so the node and the gate cannot disagree on
// what counts as a valid request (DESIGN.md §12, §15).
package edge

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"solarcore/client"
	"solarcore/internal/obs"
	"solarcore/internal/sigctx"
)

// recorder captures the status code and body size a handler wrote, for
// metrics and the access log.
type recorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach Flush through the recorder (the SSE handlers flush per event).
func (r *recorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Meter is one server's instrumentation: where Instrument counts
// requests and panics, where it logs access lines, and its clock.
type Meter struct {
	// CountRequest records one completed request. The server owns the
	// counter, so its name stays a constant at the registry call.
	CountRequest func()
	// CountPanic records one contained panic; the server owns the
	// counter so its sweep workers can bump it from their own recover.
	CountPanic func()
	// AccessLog, when non-nil, receives one obs.AccessEvent per request.
	AccessLog *obs.JSONLSink
	// Clock supplies wall time for access-log durations.
	Clock func() time.Time
}

// Instrument wraps h with the serving middleware stack: request
// counting, panic containment (a panicking handler answers the 500
// envelope and the server lives on), and one access-log line per
// request.
func (m Meter) Instrument(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &recorder{ResponseWriter: w}
		start := m.Clock()
		defer func() {
			if p := recover(); p != nil {
				m.CountPanic()
				if rec.status == 0 {
					client.WriteError(rec, http.StatusInternalServerError, client.CodeInternal, "internal error")
				}
			}
			m.CountRequest()
			if m.AccessLog != nil {
				status := rec.status
				if status == 0 {
					status = http.StatusOK
				}
				m.AccessLog.OnAccess(obs.AccessEvent{
					Method: r.Method,
					Path:   r.URL.Path,
					Status: status,
					DurMs:  m.Clock().Sub(start).Seconds() * 1000,
					Bytes:  rec.bytes,
					Cache:  rec.Header().Get(client.HeaderCache),
					Remote: r.RemoteAddr,
				})
			}
		}()
		h(rec, r)
	})
}

// WriteJSON writes v as the response body with the given status. A late
// encode failure cannot reach the client anymore (the header is out),
// so it is dropped deliberately.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Reject is a refused request: the status, envelope code and message a
// handler answers with.
type Reject struct {
	Status  int
	Code    string
	Message string
}

// Write answers the refusal through the wire contract's one error
// emitter.
func (e *Reject) Write(w http.ResponseWriter) {
	client.WriteError(w, e.Status, e.Code, e.Message)
}

func badRequest(msg string) *Reject {
	return &Reject{http.StatusBadRequest, client.CodeBadRequest, msg}
}

// checkRun applies the wire version and spec validity checks every
// decoded run request goes through.
func checkRun(req client.RunRequest) *Reject {
	if err := client.CheckWireVersion(req.V); err != nil {
		return &Reject{http.StatusBadRequest, client.CodeUnsupportedVersion, err.Error()}
	}
	if err := req.Validate(); err != nil {
		return badRequest(err.Error())
	}
	return nil
}

// DecodeRun decodes and validates a POST /v1/run body.
func DecodeRun(w http.ResponseWriter, r *http.Request) (client.RunRequest, *Reject) {
	var req client.RunRequest
	if err := client.ReadJSON(w, r, &req); err != nil {
		return req, badRequest(err.Error())
	}
	return req, checkRun(req)
}

// DecodeSweep decodes and validates a POST /v1/sweep body of at most max
// runs. The whole batch is checked up front: one bad item fails the
// request before any cell starts.
func DecodeSweep(w http.ResponseWriter, r *http.Request, max int) (client.SweepRequest, *Reject) {
	var req client.SweepRequest
	if err := client.ReadJSON(w, r, &req); err != nil {
		return req, badRequest(err.Error())
	}
	if err := client.CheckWireVersion(req.V); err != nil {
		return req, &Reject{http.StatusBadRequest, client.CodeUnsupportedVersion, err.Error()}
	}
	if len(req.Runs) == 0 {
		return req, badRequest("empty sweep: give at least one run")
	}
	if len(req.Runs) > max {
		return req, badRequest(fmt.Sprintf("sweep of %d runs exceeds the limit of %d", len(req.Runs), max))
	}
	for i, item := range req.Runs {
		if rej := checkRun(item); rej != nil {
			rej.Message = fmt.Sprintf("runs[%d]: %s", i, rej.Message)
			return req, rej
		}
	}
	return req, nil
}

// DecodeStream decodes and validates a GET /v1/stream request: the run
// request in the `spec` query parameter and the Last-Event-ID resume
// cursor.
func DecodeStream(r *http.Request) (req client.RunRequest, after uint64, rej *Reject) {
	specParam := r.URL.Query().Get("spec")
	if specParam == "" {
		return req, 0, badRequest("missing spec query parameter")
	}
	if err := client.UnmarshalStrict([]byte(specParam), &req); err != nil {
		return req, 0, badRequest(err.Error())
	}
	if rej := checkRun(req); rej != nil {
		return req, 0, rej
	}
	after, err := client.ParseLastEventID(r.Header.Get(client.HeaderLastEventID))
	if err != nil {
		return req, 0, badRequest(err.Error())
	}
	return req, after, nil
}

// Sweep runs cell(i) for every run of a validated batch on at most
// workers goroutines, fed under ctx: a client that disconnects (or a
// pool wedged by a panic) cannot leave the feed blocked forever. Cells
// the pool never started report the cancellation in items.
func Sweep(ctx context.Context, runs []client.RunRequest, items []client.SweepItem, workers int, cell func(i int)) {
	fed := sigctx.Each(ctx, len(runs), workers, cell)
	for i := fed; i < len(items); i++ {
		items[i].Hash = runs[i].Hash()
		items[i].Error = fmt.Errorf("sweep canceled: %w", ctx.Err()).Error()
	}
}

// Heartbeat is the SSE keep-alive comment sent while a feed is idle.
const Heartbeat = ": hb\n\n"

// StartSSE commits an event-stream response: the SSE content type, no
// caching, status 200, flushed so the watcher sees the stream open.
func StartSSE(w http.ResponseWriter, rc *http.ResponseController) {
	h := w.Header()
	h.Set("Content-Type", client.ContentTypeSSE)
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()
}

// WriteFrame writes one SSE frame in a single Write: an `id:` line when
// id is non-zero (gap frames carry none, so a resume cursor stays pinned
// to the last real event), then `event:` and `data:`.
func WriteFrame(w io.Writer, id uint64, event string, data []byte) error {
	buf := make([]byte, 0, len(event)+len(data)+41)
	if id > 0 {
		buf = append(buf, "id: "...)
		buf = strconv.AppendUint(buf, id, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, "event: "...)
	buf = append(buf, event...)
	buf = append(buf, "\ndata: "...)
	buf = append(buf, data...)
	buf = append(buf, "\n\n"...)
	_, err := w.Write(buf)
	return err
}
