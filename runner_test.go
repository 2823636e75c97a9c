package solarcore_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"solarcore"
	"solarcore/internal/power"
)

func testDay(t *testing.T) (*solarcore.SolarDay, solarcore.Mix) {
	t.Helper()
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Apr, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := solarcore.MixByName("HM2")
	if err != nil {
		t.Fatal(err)
	}
	return day, mix
}

// TestRunnerDefaultPolicy pins the Runner's default supply: no supply
// option means WithPolicy(PolicyOpt), the paper's headline configuration.
func TestRunnerDefaultPolicy(t *testing.T) {
	day, mix := testDay(t)
	cfg := solarcore.Config{Day: day, Mix: mix, StepMin: 2}
	want, err := runDay(cfg, solarcore.WithPolicy(solarcore.PolicyOpt))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runDay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("default-mode Runner diverges from WithPolicy(PolicyOpt)")
	}
}

// TestErrUnknownPolicy checks that every name-resolving entry point wraps
// the sentinel and preserves the historical message shape.
func TestErrUnknownPolicy(t *testing.T) {
	day, mix := testDay(t)
	cfg := solarcore.Config{Day: day, Mix: mix, StepMin: 2}

	if _, err := solarcore.NewRunner(cfg, solarcore.WithPolicy("MPPT&Magic")); !errors.Is(err, solarcore.ErrUnknownPolicy) {
		t.Errorf("NewRunner: %v", err)
	} else if want := `solarcore: unknown policy "MPPT&Magic"`; !strings.Contains(err.Error(), want) {
		t.Errorf("NewRunner error %q does not contain %q", err, want)
	}
	if _, err := (solarcore.RunSpec{Policy: "MPPT&Magic"}).Runner(); !errors.Is(err, solarcore.ErrUnknownPolicy) {
		t.Errorf("RunSpec.Runner: %v", err)
	}
	circuit := power.NewCircuit(solarcore.NewModule(solarcore.BP3180N()))
	chip, err := solarcore.NewChip(solarcore.DefaultChip())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solarcore.NewController(circuit, chip, "MPPT&Magic", solarcore.ControllerConfig{}); !errors.Is(err, solarcore.ErrUnknownPolicy) {
		t.Errorf("NewController: %v", err)
	}
}

func TestRunnerModeConflict(t *testing.T) {
	day, mix := testDay(t)
	cfg := solarcore.Config{Day: day, Mix: mix}
	_, err := solarcore.NewRunner(cfg,
		solarcore.WithPolicy(solarcore.PolicyOpt), solarcore.WithFixedBudget(75))
	if err == nil {
		t.Fatal("conflicting modes should error")
	}
	if !strings.Contains(err.Error(), "WithPolicy") || !strings.Contains(err.Error(), "WithFixedBudget") {
		t.Errorf("conflict error should name both options: %v", err)
	}
}

func TestRunnerWrongModeMethods(t *testing.T) {
	day, mix := testDay(t)
	cfg := solarcore.Config{Day: day, Mix: mix, StepMin: 2}
	r, err := solarcore.NewRunner(cfg, solarcore.WithFixedBudget(75))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunBank(); err == nil {
		t.Error("RunBank outside WithBank mode should error")
	}
	if _, err := r.RunSeries([]*solarcore.SolarDay{day}); err == nil {
		t.Error("RunSeries outside WithPolicy mode should error")
	}
}

// TestRunnerContextCancel checks that a canceled context yields the
// wrapped context error and no partial result, on every mode.
func TestRunnerContextCancel(t *testing.T) {
	day, mix := testDay(t)
	cfg := solarcore.Config{Day: day, Mix: mix, StepMin: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	modes := map[string]solarcore.RunnerOption{
		"policy":  solarcore.WithPolicy(solarcore.PolicyOpt),
		"fixed":   solarcore.WithFixedBudget(75),
		"battery": solarcore.WithBattery(solarcore.BatteryUpperEff),
	}
	for name, opt := range modes {
		t.Run(name, func(t *testing.T) {
			r, err := solarcore.NewRunner(cfg, opt, solarcore.WithContext(ctx))
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Error("canceled run must not return a partial result")
			}
		})
	}
	t.Run("bank", func(t *testing.T) {
		bank, err := solarcore.NewBank(solarcore.LeadAcidBank(900))
		if err != nil {
			t.Fatal(err)
		}
		r, err := solarcore.NewRunner(cfg, solarcore.WithBank(bank, 0.95), solarcore.WithContext(ctx))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunBank()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Error("canceled bank run must not return a partial result")
		}
	})
	t.Run("series", func(t *testing.T) {
		r, err := solarcore.NewRunner(cfg, solarcore.WithContext(ctx))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSeries([]*solarcore.SolarDay{day})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Error("canceled series must not return a partial result")
		}
	})
}

// TestRunnerObservability drives a run through the public observability
// surface: a JSONL sink whose output round-trips through ReadEvents and a
// metrics registry that accounts the run.
func TestRunnerObservability(t *testing.T) {
	day, mix := testDay(t)
	cfg := solarcore.Config{Day: day, Mix: mix, StepMin: 2}

	var buf bytes.Buffer
	sink := solarcore.NewJSONLSink(&buf)
	reg := solarcore.NewRegistry()
	r, err := solarcore.NewRunner(cfg,
		solarcore.WithObserver(sink),
		solarcore.WithObserver(solarcore.MetricsObserver(reg)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := solarcore.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Type != "run_start" || events[len(events)-1].Type != "run_end" {
		t.Errorf("stream must open with run_start and close with run_end, got %s..%s",
			events[0].Type, events[len(events)-1].Type)
	}
	end := events[len(events)-1].RunEnd
	if end.SolarWh != res.SolarWh || end.UtilityWh != res.UtilityWh {
		t.Errorf("run_end energy %v/%v diverges from DayResult %v/%v",
			end.SolarWh, end.UtilityWh, res.SolarWh, res.UtilityWh)
	}

	snap := reg.Snapshot()
	if snap.Counters["runs_total"] != 1 {
		t.Errorf("runs_total = %v", snap.Counters["runs_total"])
	}
	if snap.Counters["solar_wh_total"] != res.SolarWh {
		t.Errorf("solar_wh_total = %v, want %v", snap.Counters["solar_wh_total"], res.SolarWh)
	}
	merged := solarcore.MergeMetrics(snap, snap)
	if merged.Counters["runs_total"] != 2 {
		t.Errorf("merged runs_total = %v", merged.Counters["runs_total"])
	}
}

func TestRunnerWithFaults(t *testing.T) {
	day, mix := testDay(t)
	cfg := solarcore.Config{Day: day, Mix: mix, StepMin: 2}

	clean, err := runDay(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A disarmed schedule is exactly a no-op through the Runner facade.
	r, err := solarcore.NewRunner(cfg, solarcore.WithFaults(&solarcore.FaultSchedule{}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Error("disarmed WithFaults diverges from a clean run")
	}

	// An armed schedule perturbs the run and reports its activity.
	s, err := solarcore.ParseFaults("sensor-drop:t0=600,t1=720,i=1")
	if err != nil {
		t.Fatal(err)
	}
	r, err = solarcore.NewRunner(cfg, solarcore.WithFaults(s))
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Faults.Injected == 0 || faulted.Faults.WatchdogTrips == 0 {
		t.Errorf("armed schedule reported no activity: %+v", faulted.Faults)
	}
	if reflect.DeepEqual(faulted, clean) {
		t.Error("armed schedule did not perturb the run")
	}
}

// TestRunnerBankHonorsFaults checks that a bank day routes through the
// shared fault hook: a midday cloud burst is reported and cuts the
// energy the bank system delivers.
func TestRunnerBankHonorsFaults(t *testing.T) {
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jul, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := solarcore.MixByName("HM2")
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := solarcore.ParseFaults("cloud:t0=600,t1=720,i=1")
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...solarcore.RunnerOption) *solarcore.BankDayResult {
		bank, err := solarcore.NewBank(solarcore.LeadAcidBank(400))
		if err != nil {
			t.Fatal(err)
		}
		r, err := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix}, append(opts, solarcore.WithBank(bank, 0.95))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunBank()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean, faulted := run(), run(solarcore.WithFaults(cloud))
	if faulted.Faults.Injected == 0 {
		t.Errorf("bank run reported no injected faults: %+v", faulted.Faults)
	}
	if faulted.SolarWh >= clean.SolarWh {
		t.Errorf("cloudy bank day delivered %.1f Wh, clean day %.1f Wh", faulted.SolarWh, clean.SolarWh)
	}
}

func TestParseFaultsErrors(t *testing.T) {
	if _, err := solarcore.ParseFaults("warp-core:t0=0,t1=1,i=1"); err == nil {
		t.Fatal("unknown kind accepted")
	} else if !strings.Contains(err.Error(), "cloud") {
		t.Errorf("error %q does not list the valid kinds", err)
	}
	if len(solarcore.FaultKinds()) == 0 {
		t.Error("no built-in fault kinds listed")
	}
}
