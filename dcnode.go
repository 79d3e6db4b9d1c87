package jqos

import (
	"jqos/internal/cache"
	"jqos/internal/coding"
	"jqos/internal/core"
	"jqos/internal/dataplane"
	"jqos/internal/forward"
	"jqos/internal/netem"
	"jqos/internal/wire"
)

// DCNode is one emulated data center. The data plane — forwarding, caching
// and both CR-WAN roles — is the sans-IO dataplane.Core the UDP relay also
// runs; what lives here is what only the emulator has: the probe and
// congestion control channel, the trace-span hooks, and an egress that
// passes through the per-link scheduler, feeds the load registry and bills
// cloud egress.
type DCNode struct {
	d    *Deployment
	id   core.NodeID
	dp   *dataplane.Core
	drop uint64 // undecodable datagrams and undeliverable control messages

	// billed is the DC's cloud egress (§6.6): the bytes of every datagram
	// its data plane put on a link that the link accepted. Control traffic
	// (sendControl) never passes here, so it is never billed.
	billed uint64

	// timer fires at the core's earliest deadline; every handled message
	// re-arms it (armTimer).
	timer *netem.Timer

	// egress holds the per-next-hop DRR schedulers when Config.Scheduler
	// enables weighted fair queueing (lazily built; nil entries and a nil
	// map mean nothing was ever scheduled toward that hop).
	egress map[core.NodeID]*egressQueue
}

func newDCNode(d *Deployment, id core.NodeID) *DCNode {
	n := &DCNode{d: d, id: id}
	dp, err := dataplane.New(id, (*dcEnv)(n), d.cfg.Encoder, d.cfg.CacheTTL, &d.pool)
	if err != nil {
		panic("jqos: " + err.Error())
	}
	n.dp = dp
	n.timer = d.sim.NewTimer(n.onTimer)
	return n
}

// ID returns the DC's node identity.
func (n *DCNode) ID() core.NodeID { return n.id }

// Forwarder exposes the forwarding service (route/group installation).
func (n *DCNode) Forwarder() *forward.Forwarder { return n.dp.Forwarder }

// Cache exposes the caching service store.
func (n *DCNode) Cache() *cache.Store { return n.dp.Cache }

// Encoder exposes the CR-WAN DC1 engine.
func (n *DCNode) Encoder() *coding.Encoder { return n.dp.Encoder }

// Recoverer exposes the CR-WAN DC2 engine.
func (n *DCNode) Recoverer() *coding.Recoverer { return n.dp.Recoverer }

// Dropped counts what the DC gave up on: datagrams and message bodies it
// could not parse, unknown or undeliverable control messages, and sends
// no route could be found for.
func (n *DCNode) Dropped() uint64 { return n.drop + n.dp.Dropped() }

// dcEnv is DCNode as the data-plane core's environment, kept off the
// exported method set.
type dcEnv DCNode

func (e *dcEnv) Linked(hop core.NodeID) bool { return e.d.net.HasRoute(e.id, hop) }

func (e *dcEnv) Home(host core.NodeID) (core.NodeID, bool) { return e.d.ctrl.Home(host) }

// PathPolicy folds a flow's declared PathPolicy into the opaque
// discriminator the encoder batches by: 0 for the default fastest-path
// (and for unknown flows — a DC1 may see data before registration state,
// and default-policy batching is always safe), else kind and alternate
// packed so distinct policies never share a cross-stream batch.
func (e *dcEnv) PathPolicy(flow core.FlowID) uint32 {
	f := e.d.flow(flow)
	if f == nil || f.spec.Path.Kind == PathFastest {
		return 0
	}
	return uint32(f.spec.Path.Kind)<<16 | uint32(uint16(f.spec.Path.Alternate))
}

// Send moves one data-plane message toward hop. Inter-DC hops pass
// through the per-link egress scheduler when Config.Scheduler enables it
// — data, coded parity, and cloud copies alike — so service classes
// share the link by weight instead of arrival order. DC→host egress
// ships unscheduled; unclassifiable (non-J-QoS) bytes ship unscheduled and
// outside the load telemetry, but billed, so nothing silently vanishes.
// Control probes bypass this path entirely (sendControl), so the scheduler
// and the telemetry behind it see data-plane bytes only.
func (e *dcEnv) Send(hop core.NodeID, msg []byte) {
	n := (*DCNode)(e)
	cls, ok := wire.PeekService(msg)
	if !ok {
		n.send(hop, msg)
		return
	}
	if n.d.cfg.Scheduler.Enabled() {
		if _, isDC := n.d.dcs[hop]; isDC {
			n.scheduledSend(hop, cls, msg)
			return
		}
	}
	n.putOnWire(hop, cls, msg)
}

// putOnWire puts one message of class cls on the wire toward hop and feeds
// the per-link rate meters utilization-aware routing consumes (inter-DC
// hops only; the registry ignores DC→host egress). The meters take the
// offered bytes, accepted or lost. Scheduled sends reach here on dequeue,
// not enqueue, so Snapshot().Link(a, b) reflects what actually left the DC
// rather than what piled up behind the scheduler.
func (n *DCNode) putOnWire(hop core.NodeID, cls core.Service, msg []byte) {
	now := n.d.sim.Now()
	// Wire departure for a traced packet: opens the propagation leg the
	// next DC's arrival (or the delivery itself, for the final hop)
	// closes.
	n.d.tel.spanTx(msg, now)
	n.send(hop, msg)
	n.d.loadReg.Record(now, n.id, hop, cls, len(msg))
}

// send is the data plane's one exit onto the wire, and where cloud egress
// is billed: the bytes count once the link accepts them. A message the
// link refuses goes back to the pool.
func (n *DCNode) send(hop core.NodeID, msg []byte) {
	if n.d.net.Send(n.id, hop, msg) {
		n.billed += uint64(len(msg))
	} else {
		n.d.pool.Put(msg)
	}
}

// handle is the DC's network receive entry point: control messages are
// the emulator's own, everything else is the data-plane core's. What the
// DC consumes here (an undecodable datagram, a probe, an ack, a congestion
// message at its destination) goes back to the pool; a relayed congestion
// message is the next hop's.
func (n *DCNode) handle(from, to core.NodeID, data []byte) {
	now := n.d.sim.Now()
	var hdr wire.Header
	body, err := wire.SplitMessage(&hdr, data)
	if err != nil {
		n.drop++
		n.d.pool.Put(data)
		return
	}
	switch hdr.Type {
	case wire.TypeProbe:
		n.onProbe(&hdr)
		n.d.pool.Put(data)
	case wire.TypeProbeAck:
		n.onProbeAck(now, &hdr)
		n.d.pool.Put(data)
	case wire.TypeCongestion:
		// Backpressure signals ride the control channel end to end: a
		// transit DC relays them hop-by-hop via sendControl (never
		// through the data plane, whose sends would queue behind the very
		// backlog being reported); the ingress DC dispatches to its
		// subscribed flows.
		if hdr.Dst != n.id {
			n.relayControl(&hdr, data)
			break
		}
		if n.d.fb == nil || !n.d.fb.onCongestionMsg(n.id, data) {
			n.drop++
		}
		n.d.pool.Put(data)
	default:
		// DC arrival closes a traced packet's open propagation leg; time
		// spent inside the DC until the next departure lands in SpanRelay.
		n.d.tel.spanRx(data, now)
		n.dp.Handle(now, &hdr, body, data)
	}
	n.armTimer()
}

// relayControl forwards a control-plane message one hop toward its
// destination DC over the control channel: scheduler-bypassing and
// non-billable, like the probe traffic it shares the channel with.
func (n *DCNode) relayControl(hdr *wire.Header, raw []byte) {
	via, ok := n.controlHop(hdr.Dst)
	if !ok {
		n.drop++
		return
	}
	n.d.sendControl(n.id, via, raw)
}

// controlHop is the control channel's hop toward DC dst: the forwarder's
// current next hop, when it is another DC this one has a link to.
func (n *DCNode) controlHop(dst core.NodeID) (core.NodeID, bool) {
	via, ok := n.dp.Forwarder.Route(dst)
	return via, ok && via != n.id && n.d.net.HasRoute(n.id, via)
}

// armTimer (re)schedules the DC's engine timer at the earliest deadline
// the core holds; with none pending, an already armed firing stands.
func (n *DCNode) armTimer() {
	if next, ok := n.dp.NextDeadline(); ok {
		n.timer.Reset(next)
	}
}

func (n *DCNode) onTimer() {
	n.dp.OnTimer(n.d.sim.Now())
	n.armTimer()
}
