package jqos

import (
	"jqos/internal/core"
	"jqos/internal/dataplane"
	"jqos/internal/netem"
	"jqos/internal/recovery"
	"jqos/internal/wire"
)

// Host is one emulated endpoint. It plays both roles: flows registered
// from it send packets, and a dataplane.HostCore — the receiving side the
// socket transport.HostEnd also runs — handles everything that arrives.
// Host is that core's environment: the deployment's flow table, the
// emulated network, and a simulator timer on the core's deadlines.
type Host struct {
	d  *Deployment
	id core.NodeID

	core      *dataplane.HostCore
	onDeliver func(core.Delivery)
	drop      uint64

	// timer fires at the earliest receiver deadline; every handled
	// message re-arms it (armTimer).
	timer *netem.Timer
}

func newHost(d *Deployment, id, dc core.NodeID) *Host {
	h := &Host{d: d, id: id}
	h.core = dataplane.NewHost(id, dc, (*hostEnv)(h), &d.pool)
	h.timer = d.sim.NewTimer(h.onTimer)
	return h
}

// ID returns the host's node identity.
func (h *Host) ID() core.NodeID { return h.id }

// DC returns the host's home data center.
func (h *Host) DC() core.NodeID { return h.core.Home() }

// SetDeliveryHandler installs a callback invoked for every packet the host
// surfaces to the application (direct or recovered).
func (h *Host) SetDeliveryHandler(fn func(core.Delivery)) { h.onDeliver = fn }

// Receiver returns the recovery engine for a flow (nil if none yet). It is
// valid only while the flow is live: once the flow closes, the host may hand
// the same engine to another flow, so look it up again rather than keep it.
func (h *Host) Receiver(flow core.FlowID) *recovery.Receiver { return h.core.Receiver(flow) }

// ReceiverCount returns how many per-flow recovery engines the host
// currently holds (diagnostics; bounded-state tests read it).
func (h *Host) ReceiverCount() int { return h.core.Receivers() }

// UnsolicitedReceivers returns how many of those belong to flow IDs the
// deployment never allocated — capped at dataplane.MaxUnsolicited.
func (h *Host) UnsolicitedReceivers() int { return h.core.Unsolicited() }

// Dropped counts datagrams the host could not parse or place.
func (h *Host) Dropped() uint64 { return h.drop + h.core.Dropped() }

// hostEnv is Host as its receiving core's environment.
type hostEnv Host

// Flow: live while the deployment's open list holds the flow, closed
// once an allocated ID (below nextFlow) has left it, unknown otherwise.
// A live flow's receiver is seeded with twice the direct-path latency
// from its source, when one is installed.
func (e *hostEnv) Flow(id core.FlowID) (dataplane.FlowState, core.Time) {
	switch f := e.d.flow(id); {
	case f != nil:
		return dataplane.FlowLive, 2 * e.d.topo.Direct(f.src, e.id)
	case id < e.d.nextFlow:
		return dataplane.FlowClosed, 0
	}
	return dataplane.FlowUnknown, 0
}

// Holding records the host on the open flow's recvHosts, so Flow.Close
// frees exactly the hosts that ever built a receiver for it. The core
// calls it only for live flows; closed and never-allocated IDs have no
// Close to free an entry, so they get none.
func (e *hostEnv) Holding(id core.FlowID) {
	if f := e.d.flow(id); f != nil {
		f.recvHosts = append(f.recvHosts, e.id)
	}
}

// Send relays through the host's DC when it has no direct link to the
// target (helpers answering a remote DC2, for example).
func (e *hostEnv) Send(to core.NodeID, msg []byte) {
	switch {
	case e.d.net.HasRoute(e.id, to):
		e.d.net.Send(e.id, to, msg)
	case e.d.net.HasRoute(e.id, e.core.Home()):
		e.d.net.Send(e.id, e.core.Home(), msg)
	default:
		e.drop++
	}
}

func (e *hostEnv) Deliver(del core.Delivery) {
	if f := e.d.flow(del.Packet.ID.Flow); f != nil {
		f.recordDelivery(del)
	}
	if e.onDeliver != nil {
		e.onDeliver(del)
	}
}

// handle is the host's network receive entry point.
func (h *Host) handle(from, to core.NodeID, data []byte) {
	var hdr wire.Header
	body, err := wire.SplitMessage(&hdr, data)
	if err != nil {
		h.drop++
		return
	}
	if h.core.Handle(h.d.sim.Now(), &hdr, body) {
		h.armTimer()
	}
}

// PullFlow asks the host's DC cache for every packet of flow after seq —
// the mobility rendezvous drain (Figure 3e). Responses arrive as ordinary
// recovered deliveries.
func (h *Host) PullFlow(flow core.FlowID, after core.Seq) {
	h.d.noteActivity()
	if h.core.Pull(h.d.sim.Now(), flow, after) {
		h.armTimer()
	}
}

// armTimer (re)schedules the host's timer at the earliest receiver
// deadline; with none pending, an already armed firing stands.
func (h *Host) armTimer() {
	if next, ok := h.core.NextDeadline(); ok {
		h.timer.Reset(next)
	}
}

func (h *Host) onTimer() {
	h.core.OnTimer(h.d.sim.Now())
	h.armTimer()
}
