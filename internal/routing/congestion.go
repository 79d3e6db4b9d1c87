package routing

import "jqos/internal/core"

// How reported link utilization inflates path weights — the control
// plane's load-aware costs. The inflation is M/M/1-shaped: negligible
// below the knee, growing like 1/(1-u) above it (8× at saturation), so a
// link approaching saturation prices itself out of new paths long before
// it actually saturates.
const (
	// congestKnee is the utilization above which weights start inflating.
	congestKnee = 0.6
	// congestMaxUtil caps utilization in the penalty denominator so a
	// fully saturated link gets a large finite weight instead of an
	// infinite one (it can still carry traffic when it is the only path).
	congestMaxUtil = 0.95
	// congestHysteresis is the minimum relative change of the inflation
	// multiplier that triggers a reweight-and-recompute. Smaller changes
	// are recorded (Link.Util) but do not move routes — utilization
	// breathes constantly, and without damping routes would flap between
	// equal-cost paths on every report.
	congestHysteresis = 0.25
)

// congestMultiplier converts a utilization reading into the link-weight
// inflation factor (≥ 1): 1 at or below the knee, then
// 1 + (u−knee)/(1−u) with u capped at congestMaxUtil.
func congestMultiplier(util float64) float64 {
	if util <= congestKnee {
		return 1
	}
	u := util
	if u > congestMaxUtil {
		u = congestMaxUtil
	}
	return 1 + (u-congestKnee)/(1-u)
}

// applyLinkUtilization records one utilization report (0..1, clamped)
// for the link a↔b and reports whether the link's effective weight
// multiplier moved. The raw reading is always recorded on the link for
// inspection; the multiplier only moves when it differs from the
// current one by more than the configured hysteresis — routes spread
// away from hot links without flapping on every report. Exception: a
// return to baseline (multiplier 1) always applies, otherwise a small
// inflation whose removal sits inside the hysteresis band would
// penalize an idle link forever.
func (c *Controller) applyLinkUtilization(a, b core.NodeID, util float64) bool {
	l := c.g.Link(a, b)
	if l == nil {
		return false
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	l.Util = util
	mult := congestMultiplier(util)
	cur := l.Congest
	if cur < 1 {
		cur = 1
	}
	dev := (mult - cur) / cur
	if dev < 0 {
		dev = -dev
	}
	if dev <= congestHysteresis && !(mult == 1 && cur > 1) {
		return false
	}
	l.Congest = mult
	return true
}

// congestionRecompute recomputes after accepted utilization changes and
// counts a congestion reroute when routes actually moved.
func (c *Controller) congestionRecompute() {
	pre := c.stats.Reroutes
	c.Recompute()
	if c.stats.Reroutes > pre {
		c.stats.CongestionReroutes++
	}
}

// SetLinkUtilization applies one utilization report; an accepted change
// (past the hysteresis) triggers a recompute + re-push.
func (c *Controller) SetLinkUtilization(a, b core.NodeID, util float64) {
	if !c.applyLinkUtilization(a, b, util) {
		return
	}
	c.stats.UtilizationUpdates++
	c.congestionRecompute()
}

// UtilizationReport is one link's utilization reading in a batch.
type UtilizationReport struct {
	A, B core.NodeID
	Util float64
}

// SetLinkUtilizations applies a whole reporting round at once: all
// accepted multiplier changes are installed first, then tables recompute
// a single time. A multi-hop bulk flow moves utilization on every link
// of its path in the same round — recomputing per link would run N full
// SPF + push cycles (and count phantom intermediate reroutes) where one
// suffices.
func (c *Controller) SetLinkUtilizations(reports []UtilizationReport) {
	changed := false
	for _, r := range reports {
		if c.applyLinkUtilization(r.A, r.B, r.Util) {
			c.stats.UtilizationUpdates++
			changed = true
		}
	}
	if changed {
		c.congestionRecompute()
	}
}
