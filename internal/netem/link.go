package netem

import (
	"math/rand"

	"jqos/internal/core"
)

// Link is a unidirectional emulated path: FIFO serialization at Rate
// bytes/sec (0 = infinite), a bounded queue, a propagation DelayModel, and
// a LossModel. Loss is evaluated at enqueue time (ingress drop), which is
// how both tail loss and path outages manifest to endpoints.
type Link struct {
	sim   *Simulator
	rng   *rand.Rand
	delay DelayModel
	loss  LossModel

	// Rate is the serialization rate in bytes/second. Zero disables
	// bandwidth emulation.
	Rate int64
	// MaxQueue bounds queueing delay; packets that would wait longer are
	// tail-dropped. Zero means an unbounded queue.
	MaxQueue core.Time

	busyUntil core.Time
}

// NewLink builds a link on sim with the given models. A nil delay means
// zero propagation; a nil loss means lossless.
func NewLink(sim *Simulator, delay DelayModel, loss LossModel) *Link {
	if delay == nil {
		delay = FixedDelay(0)
	}
	if loss == nil {
		loss = NoLoss{}
	}
	return &Link{sim: sim, rng: sim.Fork(), delay: delay, loss: loss}
}

// SetLoss swaps the loss process (used by tests and scenario scripts to
// inject outages mid-run).
func (l *Link) SetLoss(m LossModel) {
	if m == nil {
		m = NoLoss{}
	}
	l.loss = m
}

// SetDelay swaps the propagation delay process (used by scenario scripts
// to degrade or repair a path mid-run). In-flight packets keep the arrival
// times they were assigned at send.
func (l *Link) SetDelay(m DelayModel) {
	if m == nil {
		m = FixedDelay(0)
	}
	l.delay = m
}

// Send offers a packet of size bytes to the link. If the packet survives
// loss and queueing, deliver runs at its arrival time. Send reports whether
// the packet was accepted (false = dropped); the result is for accounting
// only — callers must not branch protocol behaviour on it, since a real
// sender cannot observe drops.
func (l *Link) Send(size int, deliver func(arrived core.Time)) bool {
	arrive, ok := l.admit(size)
	if ok {
		l.sim.schedule(event{at: arrive, arrive: deliver})
	}
	return ok
}

// admit runs a packet of size bytes through the loss process, the queue and
// the delay model: when it arrives, or ok false for a drop.
func (l *Link) admit(size int) (arrive core.Time, ok bool) {
	now := l.sim.Now()
	if l.loss.Lose(now, l.rng) {
		return 0, false
	}
	depart := now
	if l.Rate > 0 {
		if l.busyUntil > depart {
			depart = l.busyUntil
		}
		if l.MaxQueue > 0 && depart-now > l.MaxQueue {
			return 0, false
		}
		tx := core.Time(float64(size) / float64(l.Rate) * 1e9)
		depart += tx
		l.busyUntil = depart
	}
	arrive = depart + l.delay.Delay(now, l.rng)
	return arrive, true
}
