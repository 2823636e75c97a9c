package main

import (
	"strings"
	"testing"
)

// runCLI invokes run with captured output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestBadFaultSpecExitsNonZero(t *testing.T) {
	code, out, errs := runCLI("-faults", "warp-core:t0=0,t1=10,i=1")
	if code == 0 {
		t.Fatalf("exit code 0 for malformed -faults; stderr: %q", errs)
	}
	if out != "" {
		t.Errorf("malformed -faults produced stdout before failing: %q", out)
	}
	if !strings.Contains(errs, "cloud") {
		t.Errorf("error does not list the known fault kinds: %q", errs)
	}
	if n := strings.Count(strings.TrimSpace(errs), "\n"); n != 0 {
		t.Errorf("want a one-line error, got %d lines: %q", n+1, errs)
	}
}

func TestUnknownPolicyExitsNonZero(t *testing.T) {
	code, out, errs := runCLI("-policy", "MPPT&Magic")
	if code == 0 {
		t.Fatalf("exit code 0 for unknown policy; stdout: %q", out)
	}
	if out != "" {
		t.Errorf("unknown policy produced stdout before failing: %q", out)
	}
	for _, want := range []string{"MPPT&Magic", "MPPT&Opt", "MPPT&IC", "MPPT&RR"} {
		if !strings.Contains(errs, want) {
			t.Errorf("error %q does not mention %q", errs, want)
		}
	}
}

func TestUnknownSiteExitsNonZero(t *testing.T) {
	if code, _, errs := runCLI("-site", "XX"); code == 0 || errs == "" {
		t.Fatalf("code=%d stderr=%q for unknown site", code, errs)
	}
}

func TestCleanRunExitsZero(t *testing.T) {
	code, out, errs := runCLI("-step", "8")
	if code != 0 {
		t.Fatalf("exit code %d; stderr: %q", code, errs)
	}
	for _, want := range []string{"run", "solar energy", "performance"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "faults") {
		t.Errorf("clean run printed a fault summary:\n%s", out)
	}
}

func TestFaultedRunPrintsSummary(t *testing.T) {
	code, out, errs := runCLI("-step", "8", "-faults", "sensor-drop:t0=600,t1=720,i=1")
	if code != 0 {
		t.Fatalf("exit code %d; stderr: %q", code, errs)
	}
	if !strings.Contains(out, "faults") || !strings.Contains(out, "watchdog trips") {
		t.Errorf("faulted run did not print the fault summary:\n%s", out)
	}
}

func TestBatterySeriesPrintsTrace(t *testing.T) {
	code, out, errs := runCLI("-battery", "U", "-series", "-step", "8")
	if code != 0 {
		t.Fatalf("exit code %d; stderr: %q", code, errs)
	}
	_, csv, ok := strings.Cut(out, "minute,budget_w,actual_w,on_solar\n")
	if !ok {
		t.Fatalf("no series header:\n%s", out)
	}
	rows := strings.Split(strings.TrimSpace(csv), "\n")
	if len(rows) < 10 || !strings.HasSuffix(rows[0], ",true") {
		t.Errorf("battery series has %d rows, first %q; want a powered trace", len(rows), rows[0])
	}
}
