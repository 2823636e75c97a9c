package sigctx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"solarcore/internal/obs"
)

// Step is one named shutdown step a daemon runs after its listener
// drains; a failure prints as "NAME: Name: err" on stderr.
type Step struct {
	Name  string
	Close func() error
}

// OpenAccess opens a daemon's -access sink: "" is off (nil sink), "-"
// writes to stdout, anything else creates a file at that path. Call
// closeFile once the sink's last flush is done.
func OpenAccess(path string, stdout io.Writer) (sink *obs.JSONLSink, closeFile func(), err error) {
	switch path {
	case "":
		return nil, func() {}, nil
	case "-":
		return obs.NewJSONLSink(stdout), func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return obs.NewJSONLSink(f), func() { _ = f.Close() }, nil
}

// ServeAndDrain is the shutdown state machine shared by solard and
// solargate (DESIGN.md §12). It serves hs on ln until ctx is done, then
// announces the drain, calls startDrain (health checks fail, new work
// is refused), shuts the listener down under the grace budget, runs the
// close steps in order, waits for Serve to return, and reports the exit
// code: 0 only when every step succeeded. If Serve fails first, the
// close steps still run (their errors unreported) and the code is 1.
// Every line is prefixed with the daemon's name.
func ServeAndDrain(ctx context.Context, name string, hs *http.Server, ln net.Listener,
	grace time.Duration, startDrain func(), stdout, stderr io.Writer, steps ...Step) int {
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	select {
	case err := <-served:
		// Serve only returns on failure here (Shutdown is the other exit,
		// taken below).
		for _, s := range steps {
			_ = s.Close()
		}
		_, _ = fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	case <-ctx.Done():
	}

	_, _ = fmt.Fprintf(stdout, "%s: signal received, draining (grace %s)\n", name, grace)
	startDrain()
	// ctx is already done: the grace budget starts fresh from it.
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), grace)
	defer cancel()
	code := 0
	if err := hs.Shutdown(sctx); err != nil {
		_, _ = fmt.Fprintf(stderr, "%s: drain incomplete: %v\n", name, err)
		code = 1
	}
	for _, s := range steps {
		if err := s.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			_, _ = fmt.Fprintf(stderr, "%s: %s: %v\n", name, s.Name, err)
			code = 1
		}
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		_, _ = fmt.Fprintf(stderr, "%s: serve: %v\n", name, err)
		code = 1
	}
	if code == 0 {
		_, _ = fmt.Fprintf(stdout, "%s: drained, exiting\n", name)
	}
	return code
}
