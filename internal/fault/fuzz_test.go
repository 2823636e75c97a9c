package fault

import (
	"math"
	"testing"
)

// FuzzParseSpec fuzzes the -faults / RunSpec.Faults grammar: whatever
// arrives, ParseSpec must fail cleanly or return a schedule whose every
// injector has a finite non-empty window t0 < t1 and an intensity in
// [0,1]. It must never panic.
func FuzzParseSpec(f *testing.F) {
	// The non-finite and out-of-range inputs the parser once accepted.
	f.Add("cloud:t0=NaN,t1=660,i=0.5")
	f.Add("cloud:t0=600,t1=660,i=NaN")
	f.Add("cloud:t0=600,t1=Inf,i=0.5")
	f.Add("cloud:t0=600,t1=660,i=0.5,seed=1e300")
	// The fault schedules of the golden run corpus.
	f.Add("sensor-drop:t0=600,t1=720,i=1")
	f.Add("cloud:t0=600,t1=720,i=1")
	f.Add("core-fail:t0=600,t1=900,i=1")
	f.Add("conv-derate:t0=540,t1=780,i=0.5")
	f.Add("string-cut:t0=660,t1=760,i=0.5")
	f.Add("solver:t0=600,t1=700,i=1")
	f.Add("sensor-bias:t0=600,t1=800,i=0.6")
	f.Add("core-throttle:t0=700,t1=820,i=1")
	f.Add("cloud:t0=600,t1=720,i=1;core-fail:t0=600,t1=900,i=1")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for i, inj := range s.Injectors {
			w, in := inj.Window(), inj.Intensity()
			if math.IsNaN(w.T0) || math.IsInf(w.T0, 0) || math.IsNaN(w.T1) || math.IsInf(w.T1, 0) || !(w.T0 < w.T1) {
				t.Fatalf("spec %q: injector %d window [%g,%g) not finite and non-empty", spec, i, w.T0, w.T1)
			}
			if !(in >= 0 && in <= 1) {
				t.Fatalf("spec %q: injector %d intensity %g outside [0,1]", spec, i, in)
			}
		}
		// Runtime derives the per-injector seeds: it may not panic on an
		// accepted schedule.
		_ = s.Runtime()
	})
}
