package jqos

import (
	"fmt"
	"time"

	"jqos/internal/core"
	"jqos/internal/netem"
	"jqos/internal/routing"
)

// LinkHandle names one inter-DC link of a deployment and carries the
// fault-injection and inspection operations on both its directions.
// Handles are plain values: cheap to construct, safe to copy,
// and valid for the life of the deployment (including before the pair is
// connected — mutating an unconnected pair is a no-op, restoring one
// panics).
//
//	link := dep.Link(dc1, dc2)
//	link.Disconnect()                   // blackhole both directions
//	link.Set(60*time.Millisecond, 0.05) // reshape: latency + loss
//	link.Reconnect()                    // restore the connected shape
//
// All mutations act on the emulated links only; the control plane is
// never told directly. The link-health monitor observes the change
// through its probes (at the fast cadence once the link turns
// suspicious) and adjusts routing. A one-way fault (one direction
// degraded or cut) is the chaos engine's StepDegradeAsym,
// StepPartitionAsym and StepHealAsym; its Engine.Apply nudges the
// monitor the same way. The link's load is Snapshot().Link(a, b).
type LinkHandle struct {
	d    *Deployment
	a, b core.NodeID
}

// Link returns the handle for the inter-DC link a↔b.
func (d *Deployment) Link(a, b core.NodeID) LinkHandle {
	return LinkHandle{d: d, a: a, b: b}
}

// Set reshapes both directions of the link to the given one-way latency
// and random loss rate. The monitor observes the change through its
// probes and adjusts routing (degrade, recover, or cost refresh).
func (l LinkHandle) Set(x time.Duration, loss float64) {
	var lm netem.LossModel
	if loss > 0 {
		lm = netem.Bernoulli{P: loss}
	}
	for _, pair := range [][2]core.NodeID{{l.a, l.b}, {l.b, l.a}} {
		if link := l.d.net.LinkBetween(pair[0], pair[1]); link != nil {
			link.SetDelay(netem.UniformJitter{Base: x, Jitter: x / 50})
			link.SetLoss(lm)
		}
	}
	l.d.boostProbers()
}

// Disconnect blackholes the link in both directions — a mid-path failure
// as the data plane experiences it. The control plane is NOT told
// directly: the link-health monitor detects the probe losses, marks the
// link down, and reroutes affected flows onto alternate paths. Restore
// the link with Reconnect (or reshape it with Set).
func (l LinkHandle) Disconnect() {
	for _, pair := range [][2]core.NodeID{{l.a, l.b}, {l.b, l.a}} {
		if link := l.d.net.LinkBetween(pair[0], pair[1]); link != nil {
			link.SetLoss(netem.Bernoulli{P: 1})
		}
	}
	l.d.boostProbers()
}

// Reconnect restores a disconnected (or reshaped) link to the shape
// ConnectDCs originally gave it — the routing graph's configured latency,
// lossless. Panics when the pair was never connected (a deployment
// wiring bug, like DC on a host ID).
func (l LinkHandle) Reconnect() {
	x, ok := l.Shape()
	if !ok {
		panic(fmt.Sprintf("jqos: Link(%v, %v).Reconnect: DCs were never connected", l.a, l.b))
	}
	l.Set(x, 0)
}

// Shape returns the one-way latency ConnectDCs gave the pair — the
// routing graph's configured Base, the shape Reconnect restores. ok is
// false for pairs never connected.
func (l LinkHandle) Shape() (time.Duration, bool) {
	if link := l.d.ctrl.Graph().Link(l.a, l.b); link != nil {
		return link.Base, true
	}
	return 0, false
}

// Health returns the monitor's view of the link.
func (l LinkHandle) Health() (routing.Health, bool) {
	return l.d.mon.Health(l.a, l.b)
}

// SetCapacity re-bases the link's accounting capacity (bytes/second;
// 0 makes it uncapacitated — it never reads as congested). Capacity is a
// traffic-engineering input, not an emulated bottleneck: utilization is
// measured demand over this figure, and the emulated links keep their own
// serialization model (netem.Link.Rate). Panics when the pair was never
// connected (a deployment wiring bug).
func (l LinkHandle) SetCapacity(bytesPerSec int64) {
	d := l.d
	if !d.loadReg.SetCapacity(l.a, l.b, bytesPerSec) {
		panic(fmt.Sprintf("jqos: Link(%v, %v).SetCapacity: DCs were never connected", l.a, l.b))
	}
	// The first capacitated link makes utilization meaningful: start (or
	// wake) the reporter that feeds it into routing.
	d.startLoadReporter()
	d.wakeLoadReporter()
}
