package telemetry

import (
	"fmt"
	"time"

	"jqos/internal/core"
)

// SLOState is a tracker's current compliance classification.
type SLOState uint8

const (
	// SLOMet: both burn-rate windows are under their thresholds.
	SLOMet SLOState = iota
	// SLOAtRisk: the fast window's burn rate crossed AtRiskBurn — the
	// objective is being spent too fast, though the slow window may
	// still absorb it.
	SLOAtRisk
	// SLOViolated: BOTH windows crossed ViolatedBurn — sustained
	// overspend, the page-worthy state.
	SLOViolated
)

// String implements fmt.Stringer.
func (s SLOState) String() string {
	switch s {
	case SLOMet:
		return "met"
	case SLOAtRisk:
		return "at-risk"
	case SLOViolated:
		return "violated"
	default:
		return fmt.Sprintf("slostate(%d)", uint8(s))
	}
}

// sloSubject renders the tracker identity an SLO trace event is about.
func sloSubject(e Event) string {
	switch {
	case e.Flow != 0:
		return fmt.Sprintf("flow %d", e.Flow)
	case e.Tenant != 0:
		return fmt.Sprintf("tenant %d", e.Tenant)
	default:
		return fmt.Sprintf("class %v", e.Class)
	}
}

// SLOConfig tunes the continuous SLO engine (multi-window burn-rate
// alerting over per-delivery on-time observations). The zero value
// disables the engine; any positive Objective enables it with defaults
// for the rest.
type SLOConfig struct {
	// Objective is the target on-time fraction (e.g. 0.99 = 99% of
	// deliveries within budget). 0 disables the engine.
	Objective float64
	// FastWindow / SlowWindow are the two burn-rate windows: the fast
	// one trips quickly on sharp degradation, the slow one confirms it
	// is sustained. Defaults 1s / 5s of simulated time.
	FastWindow time.Duration
	SlowWindow time.Duration
	// AtRiskBurn / ViolatedBurn are burn-rate thresholds (burn =
	// miss-fraction / (1 − Objective); burn 1.0 spends the error budget
	// exactly). Fast ≥ AtRiskBurn → AtRisk; fast AND slow ≥
	// ViolatedBurn → Violated. Defaults 2 / 4.
	AtRiskBurn   float64
	ViolatedBurn float64
	// MinSamples is the minimum observations a window needs before its
	// burn rate counts (prevents one early miss from paging). Default 20.
	MinSamples int
	// ClearHold is how long the computed state must stay improved before
	// the tracker steps back up (hysteresis). Default = FastWindow.
	ClearHold time.Duration
}

// Enabled reports whether the config turns the engine on.
func (c SLOConfig) Enabled() bool { return c.Objective > 0 }

// WithDefaults returns the config with zero fields defaulted (Objective
// is left alone — it is the enable switch).
func (c SLOConfig) WithDefaults() SLOConfig {
	if c.FastWindow <= 0 {
		c.FastWindow = time.Second
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 5 * time.Second
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	if c.AtRiskBurn <= 0 {
		c.AtRiskBurn = 2
	}
	if c.ViolatedBurn <= 0 {
		c.ViolatedBurn = 4
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.ClearHold <= 0 {
		c.ClearHold = c.FastWindow
	}
	return c
}

// sloBuckets is the sliding-window resolution: each window is split
// into this many rotating buckets, so observations age out in
// window/sloBuckets quanta without per-observation timestamps.
const sloBuckets = 8

// sloWindow is a bucketed sliding count of ok/miss observations over a
// fixed span of simulated time. Observe and totals are allocation-free.
type sloWindow struct {
	width time.Duration // bucket width = window / sloBuckets
	ok    [sloBuckets]uint32
	miss  [sloBuckets]uint32
	last  int64 // absolute bucket index of the most recent advance
}

func newSLOWindow(span time.Duration) sloWindow {
	w := span / sloBuckets
	if w <= 0 {
		w = time.Millisecond
	}
	return sloWindow{width: w}
}

// advance rotates out buckets older than the window, given the current
// simulated time.
func (w *sloWindow) advance(at time.Duration) {
	cur := int64(at / w.width)
	if cur <= w.last {
		return
	}
	steps := cur - w.last
	if steps > sloBuckets {
		steps = sloBuckets
	}
	for i := int64(0); i < steps; i++ {
		slot := int((w.last + 1 + i) % sloBuckets)
		w.ok[slot], w.miss[slot] = 0, 0
	}
	w.last = cur
}

// observe counts n ok or miss observations at time at.
func (w *sloWindow) observe(at time.Duration, okObs bool, n uint32) {
	w.advance(at)
	slot := int(w.last % sloBuckets)
	if okObs {
		w.ok[slot] += n
	} else {
		w.miss[slot] += n
	}
}

// totals returns the windowed ok/miss counts as of time at.
func (w *sloWindow) totals(at time.Duration) (okN, missN uint64) {
	w.advance(at)
	for i := 0; i < sloBuckets; i++ {
		okN += uint64(w.ok[i])
		missN += uint64(w.miss[i])
	}
	return okN, missN
}

// SLOTransition is one state change an Eval produced.
type SLOTransition struct {
	From, To SLOState
	// BurnFast / BurnSlow are the burn rates at the transition.
	BurnFast, BurnSlow float64
}

// SLOTracker is one subject's (flow, class, or tenant) continuous SLO
// state: two burn-rate windows, the hysteresis clock, and the current
// classification. All methods run on the simulator goroutine and
// allocate nothing.
type SLOTracker struct {
	cfg   SLOConfig
	fast  sloWindow
	slow  sloWindow
	state SLOState

	// Step-up hysteresis: the improved state Eval keeps computing, and
	// since when. A degrade resets it.
	upTo    SLOState
	upSince time.Duration
	upValid bool
}

// NewSLOTracker creates a tracker; cfg must already carry defaults
// (SLOConfig.WithDefaults).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	return &SLOTracker{
		cfg:  cfg,
		fast: newSLOWindow(cfg.FastWindow),
		slow: newSLOWindow(cfg.SlowWindow),
	}
}

// State returns the current classification.
func (t *SLOTracker) State() SLOState { return t.state }

// Observe feeds one delivery's on-time verdict at simulated time at.
func (t *SLOTracker) Observe(at time.Duration, onTime bool) {
	t.fast.observe(at, onTime, 1)
	t.slow.observe(at, onTime, 1)
}

// ObserveMisses feeds n synthetic misses (packets sent into a blackhole
// that will never deliver — without these, a fully-blackholed subject
// would read as compliant because on-time fractions only count
// deliveries).
func (t *SLOTracker) ObserveMisses(at time.Duration, n int) {
	if n <= 0 {
		return
	}
	t.fast.observe(at, false, uint32(n))
	t.slow.observe(at, false, uint32(n))
}

// burn converts windowed counts into a burn rate; windows below
// MinSamples read as 0 (insufficient signal never trips an alert).
func (t *SLOTracker) burn(okN, missN uint64) float64 {
	total := okN + missN
	if total < uint64(t.cfg.MinSamples) {
		return 0
	}
	missFrac := float64(missN) / float64(total)
	return missFrac / (1 - t.cfg.Objective)
}

// Burns returns the current fast and slow burn rates as of time at.
func (t *SLOTracker) Burns(at time.Duration) (fast, slow float64) {
	fo, fm := t.fast.totals(at)
	so, sm := t.slow.totals(at)
	return t.burn(fo, fm), t.burn(so, sm)
}

// Windows returns the raw windowed counts as of time at.
func (t *SLOTracker) Windows(at time.Duration) (fastOK, fastMiss, slowOK, slowMiss uint64) {
	fo, fm := t.fast.totals(at)
	so, sm := t.slow.totals(at)
	return fo, fm, so, sm
}

// Eval advances the state machine to simulated time at. Degrades apply
// immediately; recoveries only after the improved state held for
// ClearHold. The returned transition (when ok) is what happened.
func (t *SLOTracker) Eval(at time.Duration) (SLOTransition, bool) {
	burnFast, burnSlow := t.Burns(at)
	target := SLOMet
	switch {
	case burnFast >= t.cfg.ViolatedBurn && burnSlow >= t.cfg.ViolatedBurn:
		target = SLOViolated
	case burnFast >= t.cfg.AtRiskBurn:
		target = SLOAtRisk
	}
	switch {
	case target > t.state:
		tr := SLOTransition{From: t.state, To: target, BurnFast: burnFast, BurnSlow: burnSlow}
		t.state = target
		t.upValid = false
		return tr, true
	case target < t.state:
		if !t.upValid || target != t.upTo {
			// Start (or restart, when the candidate changed) the hold
			// clock for the improved state.
			t.upTo, t.upSince, t.upValid = target, at, true
			return SLOTransition{}, false
		}
		if at-t.upSince >= t.cfg.ClearHold {
			tr := SLOTransition{From: t.state, To: t.upTo, BurnFast: burnFast, BurnSlow: burnSlow}
			t.state = t.upTo
			t.upValid = false
			return tr, true
		}
		return SLOTransition{}, false
	default:
		t.upValid = false
		return SLOTransition{}, false
	}
}

// SLOEntry is one tracker's state in a snapshot. Exactly one of Flow /
// Tenant / the class identity is meaningful, by which slice it is in.
type SLOEntry struct {
	Flow   core.FlowID   `json:"flow,omitempty"`
	Tenant core.TenantID `json:"tenant,omitempty"`
	Class  core.Service  `json:"class"`

	State     SLOState `json:"state"`
	StateName string   `json:"state_name"`
	BurnFast  float64  `json:"burn_fast"`
	BurnSlow  float64  `json:"burn_slow"`
	// Windowed counts backing the burn rates.
	FastOK   uint64 `json:"fast_ok"`
	FastMiss uint64 `json:"fast_miss"`
	SlowOK   uint64 `json:"slow_ok"`
	SlowMiss uint64 `json:"slow_miss"`
}

// SLOSnapshot is the continuous SLO engine's surface in one Snapshot.
type SLOSnapshot struct {
	Enabled   bool          `json:"enabled"`
	Objective float64       `json:"objective,omitempty"`
	FastWin   time.Duration `json:"fast_window,omitempty"`
	SlowWin   time.Duration `json:"slow_window,omitempty"`
	// Degrades / Recovers are lifetime transition counts — they match
	// the trace ring's KindSLODegrade / KindSLORecover counts exactly
	// (the chaos accounting invariant).
	Degrades uint64 `json:"degrades"`
	Recovers uint64 `json:"recovers"`
	// Flows / Classes / Tenants list the live trackers in ascending key
	// order.
	Flows   []SLOEntry `json:"flows,omitempty"`
	Classes []SLOEntry `json:"classes,omitempty"`
	Tenants []SLOEntry `json:"tenants,omitempty"`
}

// Flow returns the entry for one flow's tracker; ok false when the flow
// has no budget or the engine is off.
func (s *SLOSnapshot) Flow(id core.FlowID) (SLOEntry, bool) {
	for i := range s.Flows {
		if s.Flows[i].Flow == id {
			return s.Flows[i], true
		}
	}
	return SLOEntry{}, false
}
