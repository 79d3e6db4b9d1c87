package netem

import (
	"math"
	"math/rand"

	"jqos/internal/core"
)

// DelayModel produces the one-way propagation delay for each packet.
type DelayModel interface {
	Delay(now core.Time, r *rand.Rand) core.Time
}

// FixedDelay is a constant one-way latency.
type FixedDelay core.Time

// Delay implements DelayModel.
func (d FixedDelay) Delay(core.Time, *rand.Rand) core.Time { return core.Time(d) }

// UniformJitter adds uniform jitter in [0, Jitter) to a base delay.
type UniformJitter struct {
	Base   core.Time
	Jitter core.Time
}

// Delay implements DelayModel.
func (u UniformJitter) Delay(_ core.Time, r *rand.Rand) core.Time {
	if u.Jitter <= 0 {
		return u.Base
	}
	return u.Base + core.Time(r.Int63n(int64(u.Jitter)))
}

// NormalJitter draws delay from a truncated normal: Base + N(0, Sigma),
// clamped to at least Floor. Internet paths show roughly lognormal delay;
// a clamped normal is close enough for the figures and cheaper to reason
// about.
type NormalJitter struct {
	Base  core.Time
	Sigma core.Time
	Floor core.Time
}

// Delay implements DelayModel.
func (n NormalJitter) Delay(_ core.Time, r *rand.Rand) core.Time {
	d := core.Time(float64(n.Base) + r.NormFloat64()*float64(n.Sigma))
	if d < n.Floor {
		d = n.Floor
	}
	return d
}

// HeavyTailJitter models the long tail of Internet delivery (Figure 7a's
// Internet curve): base delay plus, with probability PTail, an extra
// Pareto-distributed spike.
type HeavyTailJitter struct {
	Base   core.Time
	Sigma  core.Time // body jitter (normal)
	PTail  float64   // probability of a tail event
	TailLo core.Time // minimum tail inflation
	Alpha  float64   // Pareto shape; smaller = heavier (e.g. 1.5)
}

// Delay implements DelayModel.
func (h HeavyTailJitter) Delay(_ core.Time, r *rand.Rand) core.Time {
	d := float64(h.Base) + r.NormFloat64()*float64(h.Sigma)
	if r.Float64() < h.PTail {
		u := r.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		alpha := h.Alpha
		if alpha <= 0 {
			alpha = 1.5
		}
		d += float64(h.TailLo) * math.Pow(u, -1/alpha)
	}
	if d < float64(h.Base)/2 {
		d = float64(h.Base) / 2
	}
	return core.Time(d)
}
