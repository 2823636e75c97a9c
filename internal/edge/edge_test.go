package edge

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"solarcore/client"
	"solarcore/internal/obs"
)

// TestWriteFrame pins the SSE frame bytes: an id line only for non-zero
// ids, then event and data, blank-line terminated, in one Write.
func TestWriteFrame(t *testing.T) {
	for _, tc := range []struct {
		id         uint64
		event      string
		data, want string
	}{
		{42, "tick", `{"seq":42}`, "id: 42\nevent: tick\ndata: {\"seq\":42}\n\n"},
		{0, "gap", `{"dropped":3}`, "event: gap\ndata: {\"dropped\":3}\n\n"},
		{18446744073709551615, "run_end", `{}`, "id: 18446744073709551615\nevent: run_end\ndata: {}\n\n"},
	} {
		var w countingWriter
		if err := WriteFrame(&w, tc.id, tc.event, []byte(tc.data)); err != nil {
			t.Fatal(err)
		}
		if got := w.buf.String(); got != tc.want || w.writes != 1 {
			t.Errorf("frame = %q in %d writes, want %q in 1", got, w.writes, tc.want)
		}
	}
	if err := WriteFrame(failWriter{}, 1, "tick", nil); err == nil {
		t.Error("write failure not reported")
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("gone") }

// TestInstrument checks the middleware contract: every request counted,
// a panic before any write answers the 500 envelope and is counted, and
// each request leaves one access line with status, bytes and cache.
func TestInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	var log bytes.Buffer
	panics := 0
	tick := time.Unix(0, 0)
	m := Meter{
		CountRequest: func() { reg.Add("test_requests_total", 1) },
		CountPanic:   func() { panics++ },
		AccessLog:    obs.NewJSONLSink(&log),
		Clock:        func() time.Time { tick = tick.Add(time.Millisecond); return tick },
	}
	ok := m.Instrument(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(client.HeaderCache, obs.CacheHit)
		_, _ = w.Write([]byte("hello"))
	})
	boom := m.Instrument(func(http.ResponseWriter, *http.Request) { panic("boom") })

	rec := httptest.NewRecorder()
	ok.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "hello" {
		t.Fatalf("ok route answered %d %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest("POST", "/boom", nil))
	ae := client.DecodeError(rec.Code, rec.Header(), rec.Body.Bytes())
	if ae.Status != http.StatusInternalServerError || ae.Code != client.CodeInternal {
		t.Fatalf("panic answered %+v, want the 500 internal envelope", *ae)
	}
	if panics != 1 {
		t.Errorf("panics counted = %d, want 1", panics)
	}
	if got := reg.Snapshot().Counters["test_requests_total"]; got != 2 {
		t.Errorf("requests counted = %v, want 2", got)
	}
	if err := m.AccessLog.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(strings.NewReader(log.String()))
	if err != nil || len(evs) != 2 {
		t.Fatalf("access log: %d events, err %v", len(evs), err)
	}
	first, second := evs[0].Access, evs[1].Access
	if first.Path != "/ok" || first.Status != 200 || first.Bytes != 5 || first.Cache != obs.CacheHit || first.DurMs != 1 {
		t.Errorf("ok access line = %+v", *first)
	}
	if second.Path != "/boom" || second.Method != "POST" || second.Status != 500 {
		t.Errorf("panic access line = %+v", *second)
	}
}
