package overlay

import (
	"fmt"
	"time"

	"jqos/internal/core"
)

// ServiceChangeReason says why a flow's service moved.
type ServiceChangeReason uint8

const (
	// ReasonBudgetViolation: the recent delivery window fell below the
	// on-time target; the flow stepped up a tier.
	ReasonBudgetViolation ServiceChangeReason = iota + 1
	// ReasonOverDelivery: the flow sustained over-delivery for the
	// hysteresis streak and stepped down to a cheaper service.
	ReasonOverDelivery
	// ReasonCongestion: a Hot backpressure signal on the flow's (link,
	// class) triggered a preemptive move off the building queue, before
	// any delivery window could miss.
	ReasonCongestion
	// ReasonCostViolation: the flow's tenant spent past its contract's
	// cost ceiling, and the tenant cost loop forced this member, its most
	// expensive adaptive flow, one tier down.
	ReasonCostViolation
)

// String implements fmt.Stringer.
func (r ServiceChangeReason) String() string {
	switch r {
	case ReasonBudgetViolation:
		return "budget-violation"
	case ReasonOverDelivery:
		return "over-delivery"
	case ReasonCongestion:
		return "congestion"
	case ReasonCostViolation:
		return "cost-violation"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Adaptation thresholds (§3.5's stats-driven loop), judged once per
// window.
const (
	// upgradeOnTime is the fraction of a window's deliveries that must
	// meet the budget; below it the flow upgrades to the next service.
	upgradeOnTime = 0.95
	// downgradeOnTime is the on-time fraction a window must reach to
	// count toward the downgrade streak.
	downgradeOnTime = 0.99
	// downgradeAfter is how many consecutive over-delivering windows a
	// flow must sustain before stepping down to a cheaper service. The
	// requirement doubles (up to 8×) for a flow whose downgrade had to be
	// reversed, so flapping backs off.
	downgradeAfter = 3
	// windowMin is the fewest deliveries a window is judged on; a shorter
	// one carries into the next tick, so a low-rate flow still adapts.
	windowMin = 20
	// congestionCooldown bounds congestion-driven moves: after one the
	// flow ignores further Hot signals for this long, so one oscillating
	// queue cannot flap its service.
	congestionCooldown = 2 * time.Second
)

// AdaptInput is what one adaptation decision reads.
type AdaptInput struct {
	// Delivered and OnTime are the flow's cumulative delivery counts
	// (read by Tick only).
	Delivered, OnTime uint64
	Service           core.Service
	Fixed             bool
	Budget            core.Time
	// Internet reports that plain Internet is both allowed and viable.
	Internet bool
	Now      time.Duration
	// Predict is the flow's delay prediction for a tier, called only for
	// the tiers a downward walk reaches.
	Predict func(core.Service) (core.Time, bool)
}

// Decision is the adapter's answer: Next is the input Service and Reason
// zero when nothing moves. Missed reports a window under the on-time
// target, for fixed flows too; OnTimeFrac and Delivered describe it.
type Decision struct {
	Next       core.Service
	Reason     ServiceChangeReason
	Missed     bool
	OnTimeFrac float64
	Delivered  uint64
}

// Adapter is one flow's judicious choice (§3.5): the cheapest tier that
// meets the budget, revisited as delivery statistics arrive. It does no
// I/O; the caller gathers an AdaptInput per trigger and applies the
// Decision. dgStreak counts consecutive over-delivering windows, dgNeed
// how many a downgrade needs (doubled when a downgrade is reversed
// inside the flap window, halved back once one sticks); lastDown/downAt
// tie a reversal to the downgrade it reverses.
type Adapter struct {
	interval                time.Duration
	winDelivered, winOnTime uint64
	dgStreak, dgNeed        int
	lastDown                bool
	downAt, lastCongMove    time.Duration
}

// NewAdapter returns the policy for a flow judged every interval (zero:
// no adaptation loop, so congestion moves are off too).
func NewAdapter(interval time.Duration) Adapter {
	return Adapter{interval: interval, dgNeed: downgradeAfter}
}

// Tick judges the window since the last judged one: under the on-time
// target the flow steps up a tier, and over-delivery sustained for
// dgNeed windows steps it down to the nearest cheaper tier predicted
// within budget.
func (a *Adapter) Tick(in AdaptInput) Decision {
	stay := Decision{Next: in.Service}
	if a.lastDown && in.Now-a.downAt > 2*downgradeAfter*a.interval {
		// The downgrade stuck: a later upgrade is new trouble, not a
		// reversal, and the backed-off requirement decays.
		a.lastDown = false
		a.dgNeed = max(a.dgNeed/2, downgradeAfter)
	}
	delivered := in.Delivered - a.winDelivered
	if delivered < windowMin {
		return stay
	}
	frac := float64(in.OnTime-a.winOnTime) / float64(delivered)
	a.winDelivered, a.winOnTime = in.Delivered, in.OnTime
	if frac < upgradeOnTime {
		a.dgStreak = 0
		miss := Decision{Next: in.Service, Missed: true, OnTimeFrac: frac, Delivered: delivered}
		if in.Fixed || in.Service == core.ServiceForwarding {
			return miss
		}
		miss.Next, miss.Reason = in.Service+1, ReasonBudgetViolation
		if a.lastDown {
			// The downgrade this reverses was premature.
			a.dgNeed = min(2*a.dgNeed, 8*downgradeAfter)
			a.lastDown = false
		}
		return miss
	}
	if in.Fixed {
		return stay
	}
	if frac >= downgradeOnTime {
		a.dgStreak++
	} else {
		a.dgStreak = 0
	}
	if a.dgStreak >= a.dgNeed {
		if d := a.down(in, ReasonOverDelivery); d.Reason != 0 {
			a.dgStreak = 0
			return d
		}
	}
	return stay
}

// Congested answers a Hot signal on the flow's own queue: step down if a
// cheaper tier is predicted within budget, else one tier up, at most
// once per congestionCooldown.
func (a *Adapter) Congested(in AdaptInput) Decision {
	if in.Fixed || a.interval <= 0 || a.lastCongMove != 0 && in.Now-a.lastCongMove < congestionCooldown {
		return Decision{Next: in.Service}
	}
	d := a.down(in, ReasonCongestion)
	if d.Reason == 0 && in.Service < core.ServiceForwarding {
		d = Decision{Next: in.Service + 1, Reason: ReasonCongestion}
	}
	if d.Reason != 0 {
		a.lastCongMove = in.Now
	}
	return d
}

// Cheaper is the tenant cost loop's forced move: one tier down, whatever
// the budget, onto Internet only when Internet is allowed and viable.
func (a *Adapter) Cheaper(in AdaptInput) Decision {
	next := in.Service - 1
	if in.Fixed || in.Service == core.ServiceInternet || next == core.ServiceInternet && !in.Internet {
		return Decision{Next: in.Service}
	}
	return Decision{Next: next, Reason: ReasonCostViolation}
}

// down walks to the nearest cheaper tier predicted within budget: doing
// well on the current tier says nothing about a cheaper one. Latency is
// not monotonic in tier order (coding can predict slower than plain
// Internet), so a tier predicted over budget is skipped, not stopped at.
func (a *Adapter) down(in AdaptInput, reason ServiceChangeReason) Decision {
	for next := in.Service; next > core.ServiceInternet; {
		next--
		if next == core.ServiceInternet && !in.Internet {
			break
		}
		if d, ok := in.Predict(next); !ok || d > in.Budget {
			continue
		}
		a.lastDown, a.downAt = true, in.Now
		return Decision{Next: next, Reason: reason}
	}
	return Decision{Next: in.Service}
}
