package sim

import (
	"context"
	"errors"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/obs"
)

// recorder captures every lifecycle hook invocation in order; the
// embedded Nop absorbs the fault hooks.
type recorder struct {
	obs.Nop
	types  []string
	starts []obs.RunStartEvent
	tracks []obs.TrackEvent
	allocs []obs.AllocEvent
	ticks  []obs.TickEvent
	ends   []obs.RunEndEvent
}

func (r *recorder) OnRunStart(ev obs.RunStartEvent) {
	r.types = append(r.types, "run_start")
	r.starts = append(r.starts, ev)
}
func (r *recorder) OnTrack(ev obs.TrackEvent) {
	r.types = append(r.types, "track")
	r.tracks = append(r.tracks, ev)
}
func (r *recorder) OnAlloc(ev obs.AllocEvent) {
	r.types = append(r.types, "alloc")
	r.allocs = append(r.allocs, ev)
}
func (r *recorder) OnTick(ev obs.TickEvent) {
	r.types = append(r.types, "tick")
	r.ticks = append(r.ticks, ev)
}
func (r *recorder) OnRunEnd(ev obs.RunEndEvent) {
	r.types = append(r.types, "run_end")
	r.ends = append(r.ends, ev)
}

// TestObserverEventSequence pins the hook contract: one run_start first,
// one run_end last, one tick per kept series point, one track per
// tracking period, and run_end totals equal to the DayResult.
func TestObserverEventSequence(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Jul, "HM2")
	cfg.KeepSeries = true
	rec := &recorder{}
	cfg.Observer = rec

	res, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.types) < 3 {
		t.Fatalf("only %d events", len(rec.types))
	}
	if rec.types[0] != "run_start" || rec.types[len(rec.types)-1] != "run_end" {
		t.Errorf("sequence must be run_start..run_end, got %s..%s",
			rec.types[0], rec.types[len(rec.types)-1])
	}
	if len(rec.starts) != 1 || len(rec.ends) != 1 {
		t.Fatalf("starts=%d ends=%d, want exactly one each", len(rec.starts), len(rec.ends))
	}
	start := rec.starts[0]
	if start.Runner != "MPPT" || start.Policy != "MPPT&Opt" || start.Mix != "HM2" {
		t.Errorf("run_start identity wrong: %+v", start)
	}
	if start.Cores <= 0 || start.EndMin <= start.StartMin {
		t.Errorf("run_start geometry wrong: %+v", start)
	}
	if len(rec.ticks) != len(res.Series) {
		t.Errorf("ticks = %d, series points = %d", len(rec.ticks), len(res.Series))
	}
	if len(rec.tracks) != len(res.PeriodErrs) {
		t.Errorf("tracks = %d, tracking periods = %d", len(rec.tracks), len(res.PeriodErrs))
	}
	for _, tr := range rec.tracks {
		if tr.K <= 0 || len(tr.Levels) != start.Cores {
			t.Fatalf("track event malformed: %+v", tr)
		}
	}
	end := rec.ends[0]
	if end.Runner != "MPPT" {
		t.Errorf("run_end runner = %q", end.Runner)
	}
	if end.SolarWh != res.SolarWh || end.UtilityWh != res.UtilityWh ||
		end.SolarMin != res.SolarMin || end.Transitions != res.Transitions {
		t.Errorf("run_end totals diverge from DayResult:\n %+v\n %+v", end, res)
	}
}

// TestObserverBaselines checks every engine entry point brackets its run
// with start/end hooks.
func TestObserverBaselines(t *testing.T) {
	runs := map[string]func(cfg Config) error{
		"Fixed": func(cfg Config) error {
			_, err := Run(cfg, Fixed(75))
			return err
		},
		"Battery": func(cfg Config) error {
			_, err := Run(cfg, Battery(0.92))
			return err
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			cfg := cfgFor(t, atmos.CO, atmos.Apr, "M1")
			rec := &recorder{}
			cfg.Observer = rec
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
			if len(rec.starts) != 1 || len(rec.ends) != 1 {
				t.Fatalf("starts=%d ends=%d", len(rec.starts), len(rec.ends))
			}
			if rec.starts[0].Runner != rec.ends[0].Runner {
				t.Errorf("runner mismatch: %q vs %q", rec.starts[0].Runner, rec.ends[0].Runner)
			}
		})
	}
}

// TestObserverUnaffectedResult checks that attaching an observer does not
// perturb the simulation itself.
func TestObserverUnaffectedResult(t *testing.T) {
	cfg := cfgFor(t, atmos.NC, atmos.Oct, "L1")
	plain, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = obs.Nop{}
	observed, err := Run(cfg, optTPR)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SolarWh != observed.SolarWh || plain.GInstrTotal != observed.GInstrTotal {
		t.Errorf("observer changed the physics: %+v vs %+v", plain, observed)
	}
}

// TestRunCanceled checks the engine honors Config.Ctx under every supply
// and in a series: wrapped context error, no partial result.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cfgFor(t, atmos.AZ, atmos.Jan, "H1")
	cfg.Ctx = ctx

	for name, s := range map[string]Supply{
		"MPPT": optTPR, "Fixed": Fixed(75), "Battery": Battery(0.92), "Bank": Bank(newBank(t, 900), 0.95),
	} {
		if res, err := Run(cfg, s); !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s: res=%v err=%v", name, res, err)
		}
	}
	if sr, err := RunSeries(cfg, optTPR, []*SolarDay{cfg.Day}); !errors.Is(err, context.Canceled) || sr != nil {
		t.Errorf("RunSeries: res=%v err=%v", sr, err)
	}
}
