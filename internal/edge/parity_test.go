package edge_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"solarcore/client"
	"solarcore/internal/route"
	"solarcore/internal/serve"
	"solarcore/internal/stream"
)

// parityMaxSweep is the sweep limit both servers are configured with,
// so the over-limit case trips the same check at the node and the gate.
const parityMaxSweep = 3

// TestGateNodeRejectParity sends one table of malformed requests to a
// solard node (serve.Server) and to a solargate router (route.Router)
// with the same sweep limit, and requires the two to refuse each one
// identically: same status, same envelope code, same message — the same
// response bytes. Nothing here reaches a backend or a simulation; every
// case is decided by the shared request decoders.
func TestGateNodeRejectParity(t *testing.T) {
	node := serve.New(serve.Config{MaxSweep: parityMaxSweep, Stream: stream.NewHub(stream.Config{})})
	defer func() { _ = node.Close() }()
	gate, err := route.New(route.Config{
		// Never dialed: every request below is refused at the edge.
		Backends: []string{"http://127.0.0.1:9"},
		MaxSweep: parityMaxSweep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = gate.Close() }()

	runs := func(items ...string) string { return `{"runs":[` + strings.Join(items, ",") + `]}` }
	stream := func(spec string) string { return "/v1/stream?spec=" + url.QueryEscape(spec) }
	cases := []struct {
		name, method, path, body, lastEventID string
		wantCode                              string
	}{
		{"run bad json", "POST", "/v1/run", `{"site":`, "", client.CodeBadRequest},
		{"run trailing data", "POST", "/v1/run", `{} {}`, "", client.CodeBadRequest},
		{"run unknown field", "POST", "/v1/run", `{"sight":"AZ"}`, "", client.CodeBadRequest},
		{"run v2", "POST", "/v1/run", `{"v":2}`, "", client.CodeUnsupportedVersion},
		{"run bad spec", "POST", "/v1/run", `{"site":"XX"}`, "", client.CodeBadRequest},
		{"run unknown policy", "POST", "/v1/run", `{"policy":"nope"}`, "", client.CodeBadRequest},
		{"sweep bad json", "POST", "/v1/sweep", `{"runs":[`, "", client.CodeBadRequest},
		{"sweep trailing data", "POST", "/v1/sweep", runs(`{}`) + `x`, "", client.CodeBadRequest},
		{"sweep unknown field", "POST", "/v1/sweep", `{"runz":[]}`, "", client.CodeBadRequest},
		{"sweep v2", "POST", "/v1/sweep", `{"v":2,"runs":[{}]}`, "", client.CodeUnsupportedVersion},
		{"sweep empty", "POST", "/v1/sweep", runs(), "", client.CodeBadRequest},
		{"sweep over limit", "POST", "/v1/sweep", runs(`{}`, `{}`, `{}`, `{}`), "", client.CodeBadRequest},
		{"sweep item v2", "POST", "/v1/sweep", runs(`{}`, `{"v":2}`), "", client.CodeUnsupportedVersion},
		{"sweep item bad spec", "POST", "/v1/sweep", runs(`{}`, `{"day":-1}`), "", client.CodeBadRequest},
		{"stream missing spec", "GET", "/v1/stream", "", "", client.CodeBadRequest},
		{"stream bad json", "GET", stream(`{"site":`), "", "", client.CodeBadRequest},
		{"stream trailing data", "GET", stream(`{} {}`), "", "", client.CodeBadRequest},
		{"stream unknown field", "GET", stream(`{"sight":"AZ"}`), "", "", client.CodeBadRequest},
		{"stream v2", "GET", stream(`{"v":2}`), "", "", client.CodeUnsupportedVersion},
		{"stream bad spec", "GET", stream(`{"panels":-1}`), "", "", client.CodeBadRequest},
		{"stream non-decimal Last-Event-ID", "GET", stream(`{}`), "", "x1", client.CodeBadRequest},
	}
	do := func(h http.Handler, method, path, body, lastEventID string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if lastEventID != "" {
			req.Header.Set(client.HeaderLastEventID, lastEventID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := do(node.Handler(), tc.method, tc.path, tc.body, tc.lastEventID)
			g := do(gate.Handler(), tc.method, tc.path, tc.body, tc.lastEventID)
			ne := client.DecodeError(n.Code, n.Header(), n.Body.Bytes())
			ge := client.DecodeError(g.Code, g.Header(), g.Body.Bytes())
			if *ne != *ge {
				t.Fatalf("node refused with %+v, gate with %+v", *ne, *ge)
			}
			if ne.Status != http.StatusBadRequest || ne.Code != tc.wantCode || ne.Message == "" {
				t.Fatalf("refusal = %+v, want 400 %s with a message", *ne, tc.wantCode)
			}
			if !bytes.Equal(n.Body.Bytes(), g.Body.Bytes()) {
				t.Fatalf("bodies differ:\nnode %s\ngate %s", n.Body.Bytes(), g.Body.Bytes())
			}
			var env map[string]json.RawMessage
			if err := json.Unmarshal(n.Body.Bytes(), &env); err != nil || len(env) != 1 || env["error"] == nil {
				t.Fatalf("body is not the v1 envelope: %s", n.Body.Bytes())
			}
		})
	}
}
