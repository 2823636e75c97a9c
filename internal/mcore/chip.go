package mcore

import (
	"fmt"
	"math"
)

// Activity is the instantaneous execution behaviour a core observes from
// the program it runs: an IPC (committed instructions per cycle) and an
// effective switched capacitance (nF) that set throughput and dynamic
// power. Package workload provides phase-varying implementations.
//
// Demand must be a pure function of minute: a Chip remembers each core's
// last (minute, ipc, ceff) and answers repeated queries for the same
// minute from that memo without calling Demand again. An implementation
// whose answers can change — workload.TraceActivity exposes its IPC and
// CeffNF slices — must not be mutated while a chip runs it; install the
// changed activity again with SetActivity, which clears the memo.
type Activity interface {
	// Demand returns the activity seen at a simulation minute.
	//
	// unit: minute=min, ipc=instr, ceffNF=F
	Demand(minute float64) (ipc, ceffNF float64)
}

// ConstantActivity is a fixed-behaviour Activity, useful for tests and
// synthetic loads.
type ConstantActivity struct {
	IPC    float64 // committed instructions per cycle
	CeffNF float64 // effective switched capacitance, nF
}

// Demand returns the fixed IPC and capacitance.
//
// unit: minute=min, ipc=instr, ceffNF=F
func (a ConstantActivity) Demand(minute float64) (ipc, ceffNF float64) { return a.IPC, a.CeffNF }

// Gated marks a power-gated core (per-core power gating, Section 4.1).
const Gated = -1

// Chip is the simulated multi-core processor: per-core DVFS level and
// activity, with power and throughput evaluation at arbitrary simulation
// times. It is a pure model — no goroutines, no wall-clock.
type Chip struct {
	cfg    Config
	levels []int
	cores  []coreActivity
	// caps bounds each core's reachable operating point: top (the
	// default) is unconstrained, Gated marks a failed core forced off.
	// The fault-injection layer (internal/fault) drives this; nil means
	// no cap was ever installed and every fast path skips the checks.
	caps []int

	transitions uint64
}

// NewChip builds a chip from cfg with every core at the lowest operating
// point running a nominal activity (IPC 1, 2.5 nF).
func NewChip(cfg Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Chip{
		cfg:    cfg,
		levels: make([]int, cfg.Cores),
		cores:  make([]coreActivity, cfg.Cores),
	}
	for i := range c.cores {
		c.cores[i].act = ConstantActivity{IPC: 1, CeffNF: 2.5}
	}
	return c, nil
}

// coreActivity is the program one core runs plus a one-entry memo of its
// last Demand. Power, throughput, MinPower/MaxPower and the TPR probes
// ask for the same minute many times per tick, and Demand is pure in
// minute, so the memo returns the very float64s a fresh call would.
type coreActivity struct {
	act Activity
	// memo reports whether minute, ipc and ceff hold an answer of act.
	memo      bool
	minute    float64
	ipc, ceff float64
}

// set installs act and empties the memo.
func (a *coreActivity) set(act Activity) {
	a.act, a.memo = act, false
}

// demand returns act.Demand(minute), from the memo when it holds the
// bit-identical minute.
//
// unit: minute=min, ipc=instr, ceff=F
func (a *coreActivity) demand(minute float64) (ipc, ceff float64) {
	if !a.memo || math.Float64bits(minute) != math.Float64bits(a.minute) {
		a.ipc, a.ceff = a.act.Demand(minute)
		a.memo, a.minute = true, minute
	}
	return a.ipc, a.ceff
}

// MustNewChip is NewChip for known-good configurations; it panics on error.
func MustNewChip(cfg Config) *Chip {
	c, err := NewChip(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// NumCores returns the core count.
func (c *Chip) NumCores() int { return c.cfg.Cores }

// NumLevels returns the number of DVFS operating points.
func (c *Chip) NumLevels() int { return len(c.cfg.Points) }

// Level returns the current operating point index of a core, or Gated.
func (c *Chip) Level(core int) int { return c.levels[core] }

// SetLevel sets a core's operating point; Gated powers the core down.
// A request above the core's installed level cap (see SetLevelCap) is
// silently clamped to the cap — the hardware ignores programming of a
// failed or force-throttled core, it does not fault the caller.
func (c *Chip) SetLevel(core, level int) error {
	if core < 0 || core >= c.cfg.Cores {
		return fmt.Errorf("mcore: core %d out of range", core)
	}
	if level != Gated && (level < 0 || level >= len(c.cfg.Points)) {
		return fmt.Errorf("mcore: level %d out of range", level)
	}
	if cap := c.levelCap(core); level > cap {
		level = cap
	}
	if c.levels[core] != level {
		c.transitions++
	}
	c.levels[core] = level
	return nil
}

// levelCap returns the core's effective cap: top when none installed.
func (c *Chip) levelCap(core int) int {
	if c.caps == nil {
		return len(c.cfg.Points) - 1
	}
	return c.caps[core]
}

// LevelCap returns the core's installed operating-point cap: the top
// level when unconstrained, Gated for a failed core.
func (c *Chip) LevelCap(core int) int { return c.levelCap(core) }

// SetLevelCap bounds a core's reachable operating point: StepUp stops at
// the cap and SetLevel requests above it clamp down. cap = NumLevels()-1
// removes the constraint; cap = Gated fails the core off entirely. A
// core currently above the new cap is immediately forced down (counting
// the DVFS transition, as the hardware's emergency clamp would).
func (c *Chip) SetLevelCap(core, cap int) error {
	if core < 0 || core >= c.cfg.Cores {
		return fmt.Errorf("mcore: core %d out of range", core)
	}
	top := len(c.cfg.Points) - 1
	if cap != Gated && (cap < 0 || cap > top) {
		return fmt.Errorf("mcore: level cap %d out of range", cap)
	}
	if c.caps == nil {
		if cap == top {
			return nil // installing the default is a no-op
		}
		c.caps = make([]int, c.cfg.Cores)
		for i := range c.caps {
			c.caps[i] = top
		}
	}
	c.caps[core] = cap
	if c.levels[core] > cap {
		c.levels[core] = cap
		c.transitions++
	}
	return nil
}

// SetAllLevels sets every core to the same operating point.
func (c *Chip) SetAllLevels(level int) error {
	for i := 0; i < c.cfg.Cores; i++ {
		if err := c.SetLevel(i, level); err != nil {
			return err
		}
	}
	return nil
}

// SetActivity assigns the program behaviour a core executes and clears
// the core's Demand memo.
func (c *Chip) SetActivity(core int, a Activity) error {
	if core < 0 || core >= c.cfg.Cores {
		return fmt.Errorf("mcore: core %d out of range", core)
	}
	if a == nil {
		return fmt.Errorf("mcore: nil activity for core %d", core)
	}
	c.cores[core].set(a)
	return nil
}

// StepUp raises a core one operating point (ungating it to the lowest point
// first) and reports whether anything changed. A core at its level cap —
// including a failed core capped at Gated — refuses to move.
func (c *Chip) StepUp(core int) bool {
	switch {
	case c.levels[core] >= c.levelCap(core):
		return false
	case c.levels[core] == Gated:
		c.levels[core] = 0
		c.transitions++
		return true
	default:
		c.levels[core]++
		c.transitions++
		return true
	}
}

// StepDown lowers a core one operating point, gating it below the lowest
// point, and reports whether anything changed.
func (c *Chip) StepDown(core int) bool {
	switch {
	case c.levels[core] == Gated:
		return false
	case c.levels[core] == 0:
		c.levels[core] = Gated
		c.transitions++
		return true
	default:
		c.levels[core]--
		c.transitions++
		return true
	}
}

// CorePower returns one core's instantaneous power draw (W) at the given
// simulation minute: Ceff·V²·f dynamic power plus voltage-proportional
// leakage; zero when gated.
//
// unit: minute=min, return=W
func (c *Chip) CorePower(core int, minute float64) float64 {
	lvl := c.levels[core]
	if lvl == Gated {
		return 0
	}
	_, ceff := c.cores[core].demand(minute)
	p := c.cfg.Points[lvl]
	base := ceff*p.VoltV*p.VoltV*p.FreqGHz + c.cfg.LeakWPerV*p.VoltV + c.cfg.ActiveWatts
	return base * c.cfg.classOf(core).Power
}

// Power returns the chip's total instantaneous power draw (W).
//
// unit: minute=min, return=W
func (c *Chip) Power(minute float64) float64 {
	sum := 0.0
	for i := 0; i < c.cfg.Cores; i++ {
		sum += c.CorePower(i, minute)
	}
	return sum
}

// CoreThroughput returns one core's instantaneous throughput in GIPS
// (billion instructions per second): IPC·f, zero when gated.
//
// unit: minute=min, return=GIPS
func (c *Chip) CoreThroughput(core int, minute float64) float64 {
	lvl := c.levels[core]
	if lvl == Gated {
		return 0
	}
	ipc, _ := c.cores[core].demand(minute)
	return ipc * c.cfg.Points[lvl].FreqGHz * c.cfg.classOf(core).Perf
}

// Throughput returns the chip's total instantaneous throughput in GIPS.
//
// unit: minute=min, return=GIPS
func (c *Chip) Throughput(minute float64) float64 {
	sum := 0.0
	for i := 0; i < c.cfg.Cores; i++ {
		sum += c.CoreThroughput(i, minute)
	}
	return sum
}

// MinPower returns the chip power with every core gated except one at the
// lowest operating point — the smallest load the chip can present while
// still making progress.
//
// unit: minute=min, return=W
func (c *Chip) MinPower(minute float64) float64 {
	min := 0.0
	for i := 0; i < c.cfg.Cores; i++ {
		save := c.levels[i]
		c.levels[i] = 0
		p := c.CorePower(i, minute)
		c.levels[i] = save
		if i == 0 || p < min {
			min = p
		}
	}
	return min
}

// MaxPower returns the chip power with every core at the top operating
// point.
//
// unit: minute=min, return=W
func (c *Chip) MaxPower(minute float64) float64 {
	sum := 0.0
	top := len(c.cfg.Points) - 1
	for i := 0; i < c.cfg.Cores; i++ {
		save := c.levels[i]
		c.levels[i] = top
		sum += c.CorePower(i, minute)
		c.levels[i] = save
	}
	return sum
}

// DeltaUp returns the throughput and power increases of raising a core one
// operating point at the given minute. ok is false when the core is already
// at the top.
//
// unit: minute=min, dT=GIPS, dP=W
func (c *Chip) DeltaUp(core int, minute float64) (dT, dP float64, ok bool) {
	lvl := c.levels[core]
	if lvl == len(c.cfg.Points)-1 {
		return 0, 0, false
	}
	t0, p0 := c.CoreThroughput(core, minute), c.CorePower(core, minute)
	c.levels[core] = lvl + 1
	if lvl == Gated {
		c.levels[core] = 0
	}
	dT = c.CoreThroughput(core, minute) - t0
	dP = c.CorePower(core, minute) - p0
	c.levels[core] = lvl
	return dT, dP, true
}

// DeltaDown returns the throughput and power decreases (as positive
// numbers) of lowering a core one operating point. ok is false when the
// core is already gated.
//
// unit: minute=min, dT=GIPS, dP=W
func (c *Chip) DeltaDown(core int, minute float64) (dT, dP float64, ok bool) {
	lvl := c.levels[core]
	if lvl == Gated {
		return 0, 0, false
	}
	t0, p0 := c.CoreThroughput(core, minute), c.CorePower(core, minute)
	if lvl == 0 {
		c.levels[core] = Gated
	} else {
		c.levels[core] = lvl - 1
	}
	dT = t0 - c.CoreThroughput(core, minute)
	dP = p0 - c.CorePower(core, minute)
	c.levels[core] = lvl
	return dT, dP, true
}

// TPRUp returns the throughput-power ratio ΔT/ΔP of raising a core one
// level (Section 4.3) — the marginal performance return of giving this core
// more power. Returns 0 when the core cannot be raised.
//
// unit: minute=min, return=GIPS/W
func (c *Chip) TPRUp(core int, minute float64) float64 {
	dT, dP, ok := c.DeltaUp(core, minute)
	if !ok || dP <= 0 {
		return 0
	}
	return dT / dP
}

// TPRDown returns the throughput-power ratio ΔT/ΔP of lowering a core one
// level — the performance cost per watt reclaimed. Returns +Inf-free 0 when
// the core is gated already.
//
// unit: minute=min, return=GIPS/W
func (c *Chip) TPRDown(core int, minute float64) float64 {
	dT, dP, ok := c.DeltaDown(core, minute)
	if !ok || dP <= 0 {
		return 0
	}
	return dT / dP
}

// Transitions returns the cumulative count of per-core operating-point
// changes — each one costs a VRM voltage ramp and a PLL relock, so power
// managers that thrash levels pay for it (see sim.Config.DVFSTransitionUs).
// DeltaUp/DeltaDown probes do not count; they restore the level.
func (c *Chip) Transitions() uint64 { return c.transitions }

// Levels returns a copy of the per-core operating point indices.
func (c *Chip) Levels() []int {
	out := make([]int, len(c.levels))
	copy(out, c.levels)
	return out
}

// RestoreLevels sets all per-core levels from a snapshot produced by Levels.
func (c *Chip) RestoreLevels(levels []int) error {
	if len(levels) != c.cfg.Cores {
		return fmt.Errorf("mcore: snapshot has %d cores, chip has %d", len(levels), c.cfg.Cores)
	}
	for i, l := range levels {
		if err := c.SetLevel(i, l); err != nil {
			return err
		}
	}
	return nil
}
