package sigctx

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"solarcore/internal/obs"
)

// recordSteps returns close steps that log their names into order; the
// one named failName returns an error.
func recordSteps(order *[]string, failName string, names ...string) []Step {
	steps := make([]Step, len(names))
	for i, n := range names {
		steps[i] = Step{Name: n, Close: func() error {
			*order = append(*order, n)
			if n == failName {
				return errors.New("boom")
			}
			return nil
		}}
	}
	return steps
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestServeAndDrainOrder drives the clean shutdown path: drain first,
// then every close step in order, then the exit line.
func TestServeAndDrainOrder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var order []string
	var stdout, stderr bytes.Buffer
	code := ServeAndDrain(ctx, "d", &http.Server{}, listen(t), time.Second,
		func() { order = append(order, "drain") }, &stdout, &stderr,
		recordSteps(&order, "", "close", "store close")...)
	if code != 0 || stderr.Len() != 0 {
		t.Fatalf("code %d, stderr %q", code, stderr.String())
	}
	if got := strings.Join(order, ","); got != "drain,close,store close" {
		t.Errorf("order = %s", got)
	}
	if want := "d: signal received, draining (grace 1s)\nd: drained, exiting\n"; stdout.String() != want {
		t.Errorf("stdout = %q, want %q", stdout.String(), want)
	}
}

// TestServeAndDrainStepFailure checks a failing step is reported under
// its name, the later steps still run and the exit code is 1.
func TestServeAndDrainStepFailure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var order []string
	var stdout, stderr bytes.Buffer
	code := ServeAndDrain(ctx, "d", &http.Server{}, listen(t), time.Second, func() {}, &stdout, &stderr,
		recordSteps(&order, "close", "close", "store close")...)
	if code != 1 || stderr.String() != "d: close: boom\n" {
		t.Fatalf("code %d, stderr %q", code, stderr.String())
	}
	if got := strings.Join(order, ","); got != "close,store close" {
		t.Errorf("order = %s", got)
	}
	if strings.Contains(stdout.String(), "drained, exiting") {
		t.Error("failed shutdown announced a clean exit")
	}
}

// TestServeAndDrainServeFailure checks a listener that fails before any
// signal still runs every close step and exits 1 without draining.
func TestServeAndDrainServeFailure(t *testing.T) {
	ln := listen(t)
	_ = ln.Close()
	var order []string
	var stdout, stderr bytes.Buffer
	code := ServeAndDrain(context.Background(), "d", &http.Server{}, ln, time.Second,
		func() { order = append(order, "drain") }, &stdout, &stderr,
		recordSteps(&order, "", "close", "store close")...)
	if code != 1 || !strings.HasPrefix(stderr.String(), "d: ") {
		t.Fatalf("code %d, stderr %q", code, stderr.String())
	}
	if got := strings.Join(order, ","); got != "close,store close" {
		t.Errorf("order = %s", got)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}

// TestOpenAccess covers the three -access forms: off, stdout and a file.
func TestOpenAccess(t *testing.T) {
	var stdout bytes.Buffer
	if sink, closeFile, err := OpenAccess("", &stdout); err != nil || sink != nil {
		t.Fatalf("off: sink %v, err %v", sink, err)
	} else {
		closeFile()
	}
	sink, closeFile, err := OpenAccess("-", &stdout)
	if err != nil {
		t.Fatal(err)
	}
	sink.OnAccess(obs.AccessEvent{Method: "GET", Path: "/healthz", Status: 200})
	if err := sink.Flush(); err != nil || !strings.Contains(stdout.String(), "/healthz") {
		t.Fatalf("stdout sink wrote %q, err %v", stdout.String(), err)
	}
	closeFile()
	path := filepath.Join(t.TempDir(), "access.jsonl")
	if _, closeFile, err = OpenAccess(path, &stdout); err != nil {
		t.Fatal(err)
	}
	closeFile()
	if _, _, err := OpenAccess(filepath.Join(path, "nested"), &stdout); err == nil {
		t.Error("file under a regular file opened without error")
	}
}
