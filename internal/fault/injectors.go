package fault

import (
	"math"

	"solarcore/internal/mathx"
	"solarcore/internal/power"
)

// Spec keywords of the built-in injectors (the <kind> token of ParseSpec
// and the Kind() of each injector).
const (
	KindCloud        = "cloud"         // cloud-transient irradiance burst
	KindSensorStuck  = "sensor-stuck"  // I/V sensors freeze at window entry
	KindSensorBias   = "sensor-bias"   // current-sensor bias drifts over the window
	KindSensorDrop   = "sensor-drop"   // sensor readings drop to zero
	KindConvStuck    = "conv-stuck"    // converter transfer ratio stuck
	KindConvDerate   = "conv-derate"   // converter efficiency derated
	KindCoreFail     = "core-fail"     // a fraction of cores fail off
	KindCoreThrottle = "core-throttle" // all cores force-throttled
	KindStringCut    = "string-cut"    // PV string disconnect
	KindSolver       = "solver"        // operating-point solver fault
)

// CloudBurst is a cloud-transient irradiance fault: over the window the
// plane-of-array irradiance is scaled down by a smooth sin² bump of depth
// Intensity, modulated by a deterministic per-minute flicker that mimics
// ragged cloud edges. Intensity 1 blacks the panel out at the burst peak.
type CloudBurst struct {
	W Window
	I float64 // burst depth, unit: ratio
	// Seed drives the edge flicker; 0 inherits from the schedule.
	Seed int64
}

// Kind implements Injector.
func (c *CloudBurst) Kind() string { return KindCloud }

// Window implements Injector.
func (c *CloudBurst) Window() Window { return c.W }

// Intensity implements Injector.
//
// unit: ratio
func (c *CloudBurst) Intensity() float64 { return c.I }

func (c *CloudBurst) seeded(seed int64) Injector {
	if c.Seed != 0 {
		return c
	}
	cp := *c
	cp.Seed = seed
	return &cp
}

// IrradianceScale implements IrradianceScaler: 1 − I·sin²(π·u) shaped
// over the window, with ±20 % deterministic flicker on the bump depth.
//
// unit: minute=min, return=ratio
func (c *CloudBurst) IrradianceScale(minute float64) float64 {
	u := c.W.frac(minute)
	bump := math.Sin(math.Pi * u)
	bump *= bump
	flicker := 0.8 + 0.4*hash01(c.Seed, int64(minute)) // ±20 % around 1
	return mathx.Clamp(1-c.I*bump*flicker, 0, 1)
}

// StringDisconnect is a PV string fault: a fraction Intensity of the
// array's parallel strings drops off the bus for the window, scaling the
// generator output current (and so its deliverable power) by 1−I at an
// unchanged voltage.
type StringDisconnect struct {
	W Window
	I float64 // disconnected fraction, unit: ratio
}

// Kind implements Injector.
func (s *StringDisconnect) Kind() string { return KindStringCut }

// Window implements Injector.
func (s *StringDisconnect) Window() Window { return s.W }

// Intensity implements Injector.
//
// unit: ratio
func (s *StringDisconnect) Intensity() float64 { return s.I }

// GeneratorScale implements GeneratorScaler.
//
// unit: minute=min, return=ratio
func (s *StringDisconnect) GeneratorScale(minute float64) float64 {
	return mathx.Clamp(1-s.I, 0, 1)
}

// SensorStuck freezes the controller's I/V sensors: the first reading
// taken inside the window is captured, and every later reading is the
// blend (1−I)·live + I·frozen. At Intensity 1 the controller is blind to
// everything that happens after window entry — the classic stuck-at
// sensor fault.
type SensorStuck struct {
	W Window
	I float64 // blend toward the frozen reading, unit: ratio
}

// Kind implements Injector.
func (s *SensorStuck) Kind() string { return KindSensorStuck }

// Window implements Injector.
func (s *SensorStuck) Window() Window { return s.W }

// Intensity implements Injector.
//
// unit: ratio
func (s *SensorStuck) Intensity() float64 { return s.I }

// Sense implements Senser.
//
// unit: minute=min
func (s *SensorStuck) Sense(minute float64, op power.Operating, st *SenseState) power.Operating {
	if !st.hasValue {
		st.frozen, st.hasValue = op, true
	}
	f := st.frozen
	out := op
	out.VLoad = (1-s.I)*op.VLoad + s.I*f.VLoad
	out.ILoad = (1-s.I)*op.ILoad + s.I*f.ILoad
	out.PLoad = out.VLoad * out.ILoad
	return out
}

// SensorBias is a drifting current-sensor bias: the sensed rail current
// is scaled by 1 + I·u as the window progresses (u the window phase), so
// the controller increasingly overestimates the delivered power — the
// slow calibration walk-off of a real shunt amplifier.
type SensorBias struct {
	W Window
	I float64 // full-window bias magnitude, unit: ratio
}

// Kind implements Injector.
func (s *SensorBias) Kind() string { return KindSensorBias }

// Window implements Injector.
func (s *SensorBias) Window() Window { return s.W }

// Intensity implements Injector.
//
// unit: ratio
func (s *SensorBias) Intensity() float64 { return s.I }

// Sense implements Senser.
//
// unit: minute=min
func (s *SensorBias) Sense(minute float64, op power.Operating, st *SenseState) power.Operating {
	bias := 1 + s.I*s.W.frac(minute)
	out := op
	out.ILoad *= bias
	out.PLoad = out.VLoad * out.ILoad
	return out
}

// SensorDropout zeroes the sensor readings for a deterministic fraction
// Intensity of the window's minutes (a flaky sensor harness or ADC): the
// controller sees a dead rail and must not mistake it for a collapsed
// supply. At Intensity 1 every in-window reading is dropped.
type SensorDropout struct {
	W Window
	I float64 // dropped fraction of minutes, unit: ratio
	// Seed selects which minutes drop; 0 inherits from the schedule.
	Seed int64
}

// Kind implements Injector.
func (s *SensorDropout) Kind() string { return KindSensorDrop }

// Window implements Injector.
func (s *SensorDropout) Window() Window { return s.W }

// Intensity implements Injector.
//
// unit: ratio
func (s *SensorDropout) Intensity() float64 { return s.I }

func (s *SensorDropout) seeded(seed int64) Injector {
	if s.Seed != 0 {
		return s
	}
	cp := *s
	cp.Seed = seed
	return &cp
}

// Dropped reports whether the sensor is dark at the given minute — a
// pure function of (Seed, ⌊minute⌋), so every reading within one
// simulated minute agrees and replays identically.
//
// unit: minute=min
func (s *SensorDropout) Dropped(minute float64) bool {
	return hash01(s.Seed, int64(math.Floor(minute))) < s.I
}

// Sense implements Senser.
//
// unit: minute=min
func (s *SensorDropout) Sense(minute float64, op power.Operating, st *SenseState) power.Operating {
	if !s.Dropped(minute) {
		return op
	}
	return power.Operating{VPanel: op.VPanel, IPanel: op.IPanel}
}

// ConverterStuck jams the DC/DC transfer ratio: for the window every
// tuning step and ratio set is ignored, stranding the operating point
// wherever the fault found it. Any positive intensity jams the ratio
// (the knob is binary); zero is a no-op like every injector.
type ConverterStuck struct {
	W Window
	I float64 // >0 jams the ratio, unit: ratio
}

// Kind implements Injector.
func (c *ConverterStuck) Kind() string { return KindConvStuck }

// Window implements Injector.
func (c *ConverterStuck) Window() Window { return c.W }

// Intensity implements Injector.
//
// unit: ratio
func (c *ConverterStuck) Intensity() float64 { return c.I }

// Converter implements ConverterMod.
//
// unit: minute=min, effScale=ratio
func (c *ConverterStuck) Converter(minute float64) (stuck bool, effScale float64) {
	return c.I > 0, 1
}

// ConverterDerate degrades the DC/DC conversion efficiency by the factor
// 1−I for the window (aging capacitors, a failed phase of a multi-phase
// stage). Intensity 1 is a dead converter.
type ConverterDerate struct {
	W Window
	I float64 // efficiency loss, unit: ratio
}

// Kind implements Injector.
func (c *ConverterDerate) Kind() string { return KindConvDerate }

// Window implements Injector.
func (c *ConverterDerate) Window() Window { return c.W }

// Intensity implements Injector.
//
// unit: ratio
func (c *ConverterDerate) Intensity() float64 { return c.I }

// Converter implements ConverterMod.
//
// unit: minute=min, effScale=ratio
func (c *ConverterDerate) Converter(minute float64) (stuck bool, effScale float64) {
	return false, mathx.Clamp(1-c.I, 0, 1)
}

// CoreFail kills a fraction Intensity of the chip's cores for the
// window: the first ⌈I·cores⌉ cores are forced to the gated state and
// refuse to power up until the window closes.
type CoreFail struct {
	W Window
	I float64 // failed core fraction, unit: ratio
}

// Kind implements Injector.
func (c *CoreFail) Kind() string { return KindCoreFail }

// Window implements Injector.
func (c *CoreFail) Window() Window { return c.W }

// Intensity implements Injector.
//
// unit: ratio
func (c *CoreFail) Intensity() float64 { return c.I }

// Failed returns how many cores the fault kills on a chip of the given
// size: at least one for any positive intensity, all of them at 1.
func (c *CoreFail) Failed(cores int) int {
	n := int(math.Ceil(c.I * float64(cores)))
	if n < 1 && c.I > 0 {
		n = 1
	}
	if n > cores {
		n = cores
	}
	return n
}

// CoreCap implements CoreMod: failed cores cap at Gated (-1).
//
// unit: minute=min
func (c *CoreFail) CoreCap(minute float64, core, cores, top int) int {
	if core < c.Failed(cores) {
		return -1 // mcore.Gated
	}
	return top
}

// CoreThrottle force-throttles every core for the window: the highest
// reachable DVFS level is scaled down to ⌊(1−I)·top⌋ — the firmware
// thermal-emergency clamp of a real part. Intensity 1 pins every core to
// its lowest operating point (still running, unlike CoreFail).
type CoreThrottle struct {
	W Window
	I float64 // throttle depth, unit: ratio
}

// Kind implements Injector.
func (c *CoreThrottle) Kind() string { return KindCoreThrottle }

// Window implements Injector.
func (c *CoreThrottle) Window() Window { return c.W }

// Intensity implements Injector.
//
// unit: ratio
func (c *CoreThrottle) Intensity() float64 { return c.I }

// CoreCap implements CoreMod.
//
// unit: minute=min
func (c *CoreThrottle) CoreCap(minute float64, core, cores, top int) int {
	cap := int(math.Floor((1 - c.I) * float64(top)))
	if cap < 0 {
		cap = 0
	}
	if cap > top {
		cap = top
	}
	return cap
}

// SolverFault makes the operating-point solver path fail for a
// deterministic fraction Intensity of the window's minutes, surfacing
// the typed ErrSolverFault the degradation machinery must absorb
// (numerical non-convergence on a pathological I-V curve, a NaN from a
// corrupted parameter block).
type SolverFault struct {
	W Window
	I float64 // faulted fraction of minutes, unit: ratio
	// Seed selects which minutes fault; 0 inherits from the schedule.
	Seed int64
}

// Kind implements Injector.
func (s *SolverFault) Kind() string { return KindSolver }

// Window implements Injector.
func (s *SolverFault) Window() Window { return s.W }

// Intensity implements Injector.
//
// unit: ratio
func (s *SolverFault) Intensity() float64 { return s.I }

func (s *SolverFault) seeded(seed int64) Injector {
	if s.Seed != 0 {
		return s
	}
	cp := *s
	cp.Seed = seed
	return &cp
}

// SolverErr implements SolverMod.
//
// unit: minute=min
func (s *SolverFault) SolverErr(minute float64) error {
	if hash01(s.Seed, int64(math.Floor(minute))) < s.I {
		return SolverError(minute)
	}
	return nil
}
