package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// SchemaVersion is the JSONL event-stream schema version. Every emitted
// line carries it in the "v" field; ReadEvents rejects any other value.
// Bump it only with a migration note in DESIGN.md §10.
const SchemaVersion = 1

// Event type discriminators (the "type" field of a JSONL line).
const (
	TypeRunStart = "run_start"
	TypeTrack    = "track"
	TypeAlloc    = "alloc"
	TypeTick     = "tick"
	TypeRunEnd   = "run_end"
	TypeFault    = "fault"
	TypeWatchdog = "watchdog"
)

// TypeStore is the Event.Type discriminator of a StoreEvent line.
const TypeStore = "store"

// TypeGap is the Event.Type discriminator of a GapEvent line.
const TypeGap = "gap"

// GapEvent marks a hole in a live event stream: a slow subscriber (or a
// truncated durable tail) missed Dropped events that the hub's bounded
// ring had already discarded (DESIGN.md §17). A stream carrying gap
// lines is explicitly gapped — consumers see the loss instead of a
// silently shortened sequence.
type GapEvent struct {
	// Dropped is how many consecutive events are missing before the next
	// line of the stream.
	Dropped uint64 `json:"dropped"`
}

// Store-event operation labels (StoreEvent.Op).
const (
	// StoreOpWarmStart is the one-line boot summary of a directory scan.
	StoreOpWarmStart = "warm_start"
	// StoreOpQuarantine records a torn or corrupt record moved aside.
	StoreOpQuarantine = "quarantine"
	// StoreOpEvict records a record deleted by byte-budget pressure.
	StoreOpEvict = "evict"
)

// StoreEvent is one durable-result-store lifecycle record
// (internal/store, DESIGN.md §16): warm starts, quarantines and
// byte-budget evictions, on the same versioned JSONL envelope as the
// simulation and access streams.
type StoreEvent struct {
	// Op is one of the StoreOp* labels.
	Op string `json:"op"`
	// Key is the RunSpec hash concerned; empty for directory-wide ops.
	Key string `json:"key,omitempty"`
	// Records is the record count involved (warm start: records loaded).
	Records int `json:"records,omitempty"`
	// Bytes is the on-disk byte count after the operation.
	Bytes int64 `json:"bytes,omitempty"`
	// DurMs is the operation wall time in milliseconds; zero when the
	// store runs without a clock.
	DurMs float64 `json:"dur_ms,omitempty"`
	// Detail carries the failure text of a quarantine, when known.
	Detail string `json:"detail,omitempty"`
}

// Event is the JSONL envelope: one line per hook invocation, with Type
// selecting which single payload pointer is populated. The envelope
// round-trips exactly through encoding/json (Go emits float64 with the
// shortest representation that parses back to the same value), which the
// schema test asserts. MarshalEvent and DecodeEvent are its only codec.
type Event struct {
	// V is the schema version (SchemaVersion).
	V int `json:"v"`
	// Type is one of the Type* discriminators.
	Type string `json:"type"`

	RunStart *RunStartEvent `json:"run_start,omitempty"`
	Track    *TrackEvent    `json:"track,omitempty"`
	Alloc    *AllocEvent    `json:"alloc,omitempty"`
	Tick     *TickEvent     `json:"tick,omitempty"`
	RunEnd   *RunEndEvent   `json:"run_end,omitempty"`
	Fault    *FaultEvent    `json:"fault,omitempty"`
	Watchdog *WatchdogEvent `json:"watchdog,omitempty"`
	Access   *AccessEvent   `json:"access,omitempty"`
	Store    *StoreEvent    `json:"store,omitempty"`
	Gap      *GapEvent      `json:"gap,omitempty"`
}

// payload returns how many payload pointers e carries and the Type
// discriminator of the last one set.
func (e *Event) payload() (typ string, n int) {
	for _, p := range [...]struct {
		typ string
		set bool
	}{
		{TypeRunStart, e.RunStart != nil},
		{TypeTrack, e.Track != nil},
		{TypeAlloc, e.Alloc != nil},
		{TypeTick, e.Tick != nil},
		{TypeRunEnd, e.RunEnd != nil},
		{TypeFault, e.Fault != nil},
		{TypeWatchdog, e.Watchdog != nil},
		{TypeAccess, e.Access != nil},
		{TypeStore, e.Store != nil},
		{TypeGap, e.Gap != nil},
	} {
		if p.set {
			typ, n = p.typ, n+1
		}
	}
	return typ, n
}

// Validate checks the envelope invariants: a known schema version and
// exactly one payload, matching the Type discriminator.
func (e Event) Validate() error {
	if e.V != SchemaVersion {
		return fmt.Errorf("obs: event schema version %d (want %d)", e.V, SchemaVersion)
	}
	typ, n := e.payload()
	if n != 1 {
		return fmt.Errorf("obs: event %q carries %d payloads (want exactly 1)", e.Type, n)
	}
	if typ != e.Type {
		return fmt.Errorf("obs: event type %q does not match payload %q", e.Type, typ)
	}
	return nil
}

// MarshalEvent encodes one envelope line (without its trailing newline).
// It first stamps ev's V with SchemaVersion and its Type with the
// discriminator of the single payload ev carries, so callers set only
// the payload.
func MarshalEvent(ev *Event) ([]byte, error) {
	typ, n := ev.payload()
	if n != 1 {
		return nil, fmt.Errorf("obs: event carries %d payloads (want exactly 1)", n)
	}
	ev.V, ev.Type = SchemaVersion, typ
	return json.Marshal(ev)
}

// DecodeEvent decodes one envelope line and validates it.
func DecodeEvent(line []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return Event{}, err
	}
	return ev, ev.Validate()
}

// EventFunc adapts a consumer of encoded event lines into an Observer,
// in the style of http.HandlerFunc. Each hook — the seven Observer hooks
// plus OnAccess and OnStore — wraps its payload in the envelope, encodes
// it with MarshalEvent and calls f with the Type discriminator and the
// line. JSONLSink writes the lines to a file and stream.NewPublisher
// publishes them to a live topic, so both carry the same bytes.
type EventFunc func(typ string, line []byte)

func (f EventFunc) emit(ev Event) {
	// The payloads are plain structs of numbers and strings and every
	// hook sets exactly one, so MarshalEvent cannot fail.
	if line, err := MarshalEvent(&ev); err == nil {
		f(ev.Type, line)
	}
}

// OnRunStart implements Observer.
func (f EventFunc) OnRunStart(ev RunStartEvent) { f.emit(Event{RunStart: &ev}) }

// OnTrack implements Observer. The Levels slice is referenced, not
// copied; the engine hands each event a fresh slice.
func (f EventFunc) OnTrack(ev TrackEvent) { f.emit(Event{Track: &ev}) }

// OnAlloc implements Observer.
func (f EventFunc) OnAlloc(ev AllocEvent) { f.emit(Event{Alloc: &ev}) }

// OnTick implements Observer.
func (f EventFunc) OnTick(ev TickEvent) { f.emit(Event{Tick: &ev}) }

// OnRunEnd implements Observer.
func (f EventFunc) OnRunEnd(ev RunEndEvent) { f.emit(Event{RunEnd: &ev}) }

// OnFault implements Observer.
func (f EventFunc) OnFault(ev FaultEvent) { f.emit(Event{Fault: &ev}) }

// OnWatchdog implements Observer.
func (f EventFunc) OnWatchdog(ev WatchdogEvent) { f.emit(Event{Watchdog: &ev}) }

// OnAccess emits one access-log line.
func (f EventFunc) OnAccess(ev AccessEvent) { f.emit(Event{Access: &ev}) }

// OnStore emits one store lifecycle line.
func (f EventFunc) OnStore(ev StoreEvent) { f.emit(Event{Store: &ev}) }

// JSONLSink is an Observer that appends one JSON line per event to a
// writer: the EventFunc adapter over a buffered writer. Writes are
// buffered; call Flush (or Close) when the run is done. The first write
// error sticks: subsequent events are dropped and Err/Flush/Close report
// it. A JSONLSink is safe for concurrent use.
type JSONLSink struct {
	// EventFunc supplies the hooks; NewJSONLSink points it at the sink.
	EventFunc

	mu  sync.Mutex
	buf *bufio.Writer
	err error
}

// NewJSONLSink builds a sink writing to w. The caller retains ownership
// of w (Close flushes the sink but does not close w).
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{buf: bufio.NewWriter(w)}
	s.EventFunc = s.write
	return s
}

func (s *JSONLSink) write(_ string, line []byte) {
	s.mu.Lock()
	if s.err == nil {
		if _, s.err = s.buf.Write(line); s.err == nil {
			s.err = s.buf.WriteByte('\n')
		}
	}
	s.mu.Unlock()
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush drains the buffer and returns the first error seen.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.buf.Flush()
	}
	return s.err
}

// Close flushes the sink. It does not close the underlying writer.
func (s *JSONLSink) Close() error { return s.Flush() }

// ReadEvents decodes and validates a JSONL event stream written by
// JSONLSink, returning every event in order. It fails on the first
// malformed or schema-violating line, identifying it by number — with
// one exception: a torn final line (no trailing newline and not a valid
// event — the signature of a crash-truncated tail) returns every event
// before it together with an error wrapping io.ErrUnexpectedEOF, so
// callers can keep the salvageable prefix and test the cause with
// errors.Is. A final line that parses and validates but merely lacks its
// newline is accepted whole.
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var events []Event
	for line := 1; ; line++ {
		raw, rerr := br.ReadBytes('\n')
		torn := false
		switch {
		case rerr == io.EOF:
			if len(bytes.TrimSpace(raw)) == 0 {
				return events, nil
			}
			torn = true
		case rerr != nil:
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, rerr)
		}
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) == 0 {
			continue
		}
		ev, err := DecodeEvent(trimmed)
		if err != nil {
			if torn {
				return events, fmt.Errorf("obs: jsonl line %d truncated: %w (%v)", line, io.ErrUnexpectedEOF, err)
			}
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		events = append(events, ev)
		if torn {
			return events, nil
		}
	}
}
