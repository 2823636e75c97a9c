package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"solarcore/internal/obs"
)

// proc is one server process started by the benchmark.
type proc struct {
	name    string
	url     string
	cmd     *exec.Cmd
	drained chan struct{} // closed once the stdout drain has hit EOF
}

// launch starts a solard or solargate binary on an ephemeral loopback
// port, waits for its "listening on" announce line and a healthy
// /healthz, and returns it running. The child dies with the benchmark
// (Pdeathsig), so a killed run leaves no server behind.
func launch(bin string, args ...string) (*proc, error) {
	name := filepath.Base(bin)
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, drained: make(chan struct{})}
	urls := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && p.url == "" {
				u, _, _ := strings.Cut(rest, " ")
				p.url = u
				urls <- u
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case <-urls:
	case <-p.drained:
		p.stop()
		return nil, fmt.Errorf("%s exited before announcing its address", name)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not announce its address within 30s", name)
	}
	if err := waitHealthy(p.url); err != nil {
		p.stop()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return p, nil
}

func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after 30s (last error %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (the servers drain and exit 0), kills after 15s,
// and waits for the process and its output drain to end.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	<-p.drained
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (p *proc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads the process's user plus system CPU time. The kernel
// charges time a hypervisor stole from the vCPU to no process, so this
// holds steady where wall-clock latency does not.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	var f []string
	if i := strings.LastIndexByte(string(b), ')'); i >= 0 {
		f = strings.Fields(string(b[i+1:]))
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
	}
	var ticks float64
	for _, s := range f[11:13] { // utime, stime
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", p.cmd.Process.Pid, err)
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// metrics scrapes the server's /metrics registry snapshot.
func (p *proc) metrics(ctx context.Context) (obs.Snapshot, error) {
	var snap obs.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, err
	}
	defer func() { _ = resp.Body.Close() }()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("%s /metrics: %w", p.name, err)
	}
	return snap, nil
}

// fleet is the set of servers one workload runs against; target is the
// URL the load generator drives.
type fleet struct {
	procs  []*proc
	nodes  []*proc
	gate   *proc
	target string
}

func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

func (f *fleet) peakRSSMiB() (float64, error) {
	var sum float64
	for _, p := range f.procs {
		v, err := p.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (f *fleet) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range f.procs {
		v, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// startFleet launches n solard nodes, each with a durable store in its
// own fresh directory under dir, and a solargate in front of them when
// gate is set. cache is each node's LRU capacity.
func startFleet(bins, dir string, n, cache int, gate bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		store := filepath.Join(dir, fmt.Sprintf("node%d", i))
		if err := os.RemoveAll(store); err != nil {
			return nil, err
		}
		p, err := launch(filepath.Join(bins, "solard"), "-store.dir", store, "-cache", strconv.Itoa(cache))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		f.nodes = append(f.nodes, p)
	}
	f.target = f.nodes[0].url
	if gate {
		if err := f.addGate(bins); err != nil {
			f.stop()
			return nil, err
		}
		f.target = f.gate.url
	}
	return f, nil
}

func (f *fleet) addGate(bins string) error {
	var urls []string
	for _, p := range f.nodes {
		urls = append(urls, p.url)
	}
	g, err := launch(filepath.Join(bins, "solargate"), "-backends", strings.Join(urls, ","))
	if err != nil {
		return err
	}
	f.procs = append(f.procs, g)
	f.gate = g
	return nil
}
