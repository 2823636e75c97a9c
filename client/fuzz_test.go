package client

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

// FuzzStream feeds arbitrary bytes to the /v1/stream SSE frame decoder
// as a response body. Whatever arrives — torn frames, multi-line data,
// comments, error frames, bad ids — Next must never panic; every event
// it delivers other than a heartbeat must carry a valid envelope whose
// Type matches the frame; and LastEventID must equal the last non-zero
// id delivered.
func FuzzStream(f *testing.F) {
	tick := `{"v":1,"type":"tick","tick":{"minute":301,"budget_w":49.5,"demand_w":48.75,"on_solar":true}}`
	f.Add("id: 1\nevent: tick\ndata: "+tick+"\n\n", false)
	f.Add(": hb\n\nid: 2\nevent: tick\ndata: "+tick+"\n\n", true)
	f.Add("event: gap\ndata: {\"v\":1,\"type\":\"gap\",\"gap\":{\"dropped\":3}}\n\nid: 7\ndata: "+tick+"\n\n", false)
	f.Add("id: 3\nevent: tick\ndata: {\"v\":1,\"type\":\"tick\",\ndata: \"tick\":{}}\n\n", false)
	f.Add("id: 4\nevent: error\ndata: {\"v\":1,\"error\":{\"code\":\"internal\",\"message\":\"boom\"}}\n\n", false)
	f.Add("id: 5\nevent: tick\ndata: "+tick[:40], false)
	f.Add("id: 6\nevent: alloc\ndata: "+tick+"\n\n", false)
	f.Add("id: -1\ndata: "+tick+"\n\n", false)
	f.Add("retry: 10\r\nid: 8\r\ndata: "+tick+"\r\n\r\n", false)
	f.Fuzz(func(t *testing.T, body string, heartbeats bool) {
		r := strings.NewReader(body)
		s := &Stream{body: io.NopCloser(r), br: bufio.NewReader(r), hb: heartbeats}
		var last uint64
		for {
			ev, err := s.Next()
			if err != nil {
				break
			}
			if ev.Type == TypeHeartbeat {
				continue
			}
			if ev.Event == nil {
				t.Fatalf("event %q delivered without a decoded envelope\nbody: %q", ev.Type, body)
			}
			if verr := ev.Event.Validate(); verr != nil {
				t.Fatalf("delivered event fails Validate: %v\nbody: %q", verr, body)
			}
			if ev.Type != ev.Event.Type {
				t.Fatalf("StreamEvent.Type %q != payload type %q\nbody: %q", ev.Type, ev.Event.Type, body)
			}
			if ev.ID != 0 {
				last = ev.ID
			}
		}
		if got := s.LastEventID(); got != last {
			t.Fatalf("LastEventID() = %d, want last delivered id %d\nbody: %q", got, last, body)
		}
	})
}
