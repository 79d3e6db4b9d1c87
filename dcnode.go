package jqos

import (
	"jqos/internal/cache"
	"jqos/internal/coding"
	"jqos/internal/core"
	"jqos/internal/forward"
	"jqos/internal/netem"
	"jqos/internal/wire"
)

// DCNode is one emulated data center running all three J-QoS services:
// a forwarder, a packet cache, a CR-WAN encoder (DC1 role) and a CR-WAN
// recoverer (DC2 role). A single DC plays both roles — which one applies
// depends on whether it is nearest the sender or the receiver of a flow.
type DCNode struct {
	d    *Deployment
	id   core.NodeID
	fwd  *forward.Forwarder
	cch  *cache.Store
	enc  *coding.Encoder
	rec  *coding.Recoverer
	drop uint64 // undecodable datagrams

	// timer fires at the earliest encoder/recoverer deadline; every
	// handled message re-arms it (armTimer).
	timer *netem.Timer

	// egress holds the per-next-hop DRR schedulers when Config.Scheduler
	// enables weighted fair queueing (lazily built; nil entries and a nil
	// map mean nothing was ever scheduled toward that hop).
	egress map[core.NodeID]*egressQueue
}

func newDCNode(d *Deployment, id core.NodeID) *DCNode {
	enc, err := coding.NewEncoder(id, d.cfg.Encoder)
	if err != nil {
		panic("jqos: " + err.Error())
	}
	n := &DCNode{
		d:   d,
		id:  id,
		fwd: forward.New(id),
		cch: cache.NewStore(d.cfg.CacheTTL, d.cfg.CacheBytes),
		enc: enc,
		rec: coding.NewRecoverer(id, d.cfg.Recoverer),
	}
	n.timer = d.sim.NewTimer(n.onTimer)
	return n
}

// ID returns the DC's node identity.
func (n *DCNode) ID() core.NodeID { return n.id }

// Forwarder exposes the forwarding service (route/group installation).
func (n *DCNode) Forwarder() *forward.Forwarder { return n.fwd }

// Cache exposes the caching service store.
func (n *DCNode) Cache() *cache.Store { return n.cch }

// Encoder exposes the CR-WAN DC1 engine.
func (n *DCNode) Encoder() *coding.Encoder { return n.enc }

// Recoverer exposes the CR-WAN DC2 engine.
func (n *DCNode) Recoverer() *coding.Recoverer { return n.rec }

// Dropped counts datagrams the DC could not parse.
func (n *DCNode) Dropped() uint64 { return n.drop }

// transmit sends engine emits into the network. The pushed next-hop table
// outranks a direct link: on a healthy mesh both agree (the next hop to an
// adjacent DC IS that DC), but after a failure the controller has moved
// the route off the dead link while the link object still exists — so the
// table, not link presence, decides.
func (n *DCNode) transmit(emits []core.Emit) {
	for _, em := range emits {
		if via, ok := n.fwd.Route(em.To); ok && via != n.id && n.d.net.HasRoute(n.id, via) {
			n.send(via, em.Msg)
			continue
		}
		if n.d.net.HasRoute(n.id, em.To) {
			n.send(em.To, em.Msg)
			continue
		}
		// Last resort: relay via the recipient's nearest DC.
		if via, ok := n.d.topo.NearestDC(em.To); ok && via != n.id && n.d.net.HasRoute(n.id, via) {
			n.send(via, em.Msg)
			continue
		}
		n.drop++
	}
}

// transmitTagged is transmit with the hop re-resolution done against the
// table version named by the packet's epoch tag. The forwarder already
// picked each emit's hop under that version; re-resolving the hop through
// the CURRENT table here would defeat the make-before-break drain — after
// a reroute that flips this DC's route to the old hop backward, the
// lookup would bounce in-flight old-epoch traffic into a loop between
// the DCs on either side of the change until the epoch retires.
func (n *DCNode) transmitTagged(tag uint8, emits []core.Emit) {
	for _, em := range emits {
		if via, ok := n.fwd.RouteTagged(tag, em.To); ok && via != n.id && n.d.net.HasRoute(n.id, via) {
			n.send(via, em.Msg)
			continue
		}
		if n.d.net.HasRoute(n.id, em.To) {
			n.send(em.To, em.Msg)
			continue
		}
		// Last resort: relay via the recipient's nearest DC.
		if via, ok := n.d.topo.NearestDC(em.To); ok && via != n.id && n.d.net.HasRoute(n.id, via) {
			n.send(via, em.Msg)
			continue
		}
		n.drop++
	}
}

// send moves one data-plane message toward hop. Inter-DC hops pass
// through the per-link egress scheduler when Config.Scheduler enables it
// — data, coded parity, and cloud copies alike — so service classes
// share the link by weight instead of arrival order. DC→host egress and
// unclassifiable bytes ship unscheduled, and control probes bypass this
// path entirely (sendControl), so the scheduler and the telemetry behind
// it see data-plane bytes only. With scheduling disabled this is the
// legacy direct send, byte-for-byte.
func (n *DCNode) send(hop core.NodeID, msg []byte) {
	if n.d.cfg.Scheduler.Enabled() {
		if _, isDC := n.d.dcs[hop]; isDC && n.scheduledSend(hop, msg) {
			return
		}
	}
	n.putOnWire(hop, msg)
}

// putOnWire puts one message on the wire toward hop and feeds the egress
// telemetry: the forwarder's per-class counters and the per-link rate
// meters utilization-aware routing consumes (inter-DC hops only; the
// registry ignores DC→host egress). Unclassifiable bytes ship
// unaccounted, as before.
func (n *DCNode) putOnWire(hop core.NodeID, msg []byte) {
	if cls, ok := wire.PeekService(msg); ok {
		n.putOnWireClass(hop, cls, msg)
		return
	}
	n.d.net.Send(n.id, hop, msg)
}

// putOnWireClass is putOnWire for callers that already know the class —
// the scheduler pump dequeues (class, msg) pairs, so re-peeking the
// header per departure would be pure waste. Scheduled sends reach here
// on dequeue, not enqueue, so Link(a, b).Load reflects what actually left the
// DC rather than what piled up behind the scheduler.
func (n *DCNode) putOnWireClass(hop core.NodeID, cls core.Service, msg []byte) {
	now := n.d.sim.Now()
	// Wire departure for a traced packet: opens the propagation leg the
	// next DC's arrival (or the delivery itself, for the final hop)
	// closes.
	n.d.tel.spanTx(msg, now)
	n.d.net.Send(n.id, hop, msg)
	n.fwd.NoteEgress(cls, len(msg))
	n.d.loadReg.Record(now, n.id, hop, cls, len(msg))
}

// handle is the DC's network receive entry point.
func (n *DCNode) handle(from, to core.NodeID, data []byte) {
	now := n.d.sim.Now()
	var hdr wire.Header
	body, err := wire.SplitMessage(&hdr, data)
	if err != nil {
		n.drop++
		return
	}
	// Point-to-point service messages addressed elsewhere are relayed
	// (e.g. a helper's CoopResp transiting its own DC toward DC2).
	relay := hdr.Dst != n.id
	switch hdr.Type {
	case wire.TypeProbe:
		n.onProbe(&hdr)
	case wire.TypeProbeAck:
		n.onProbeAck(now, &hdr)
	case wire.TypeData:
		if hdr.Flags&wire.FlagTraced != 0 {
			// DC arrival closes the open propagation leg; time spent
			// inside the DC until the next departure lands in SpanRelay.
			n.d.tel.spanRx(hdr.ID(), now)
		}
		n.onData(now, &hdr, body, data)
	case wire.TypeCoded:
		n.onCoded(now, &hdr, body, data)
	case wire.TypeNACK:
		if relay {
			n.transmit(n.fwd.Forward(hdr.Dst, data))
		} else {
			n.onNACK(now, &hdr)
		}
	case wire.TypePull:
		if relay {
			n.transmit(n.fwd.Forward(hdr.Dst, data))
		} else {
			n.onPull(now, &hdr)
		}
	case wire.TypeCoopResp:
		if relay {
			n.transmit(n.fwd.Forward(hdr.Dst, data))
		} else {
			n.onCoopResp(now, &hdr, body)
		}
	case wire.TypeVerifyResp:
		if relay {
			n.transmit(n.fwd.Forward(hdr.Dst, data))
		} else {
			n.transmit(n.rec.OnVerifyResp(now, &hdr))
		}
	case wire.TypeCongestion:
		// Backpressure signals ride the control channel end to end: a
		// transit DC relays them hop-by-hop via sendControl (never
		// through transmit, whose sends would queue behind the very
		// backlog being reported); the ingress DC dispatches to its
		// subscribed flows.
		if relay {
			n.relayControl(&hdr, data)
		} else if n.d.fb == nil || !n.d.fb.onCongestionMsg(n.id, data) {
			n.drop++
		}
	default:
		if relay {
			n.transmit(n.fwd.Forward(hdr.Dst, data))
		} else {
			n.drop++
		}
	}
	n.armTimer()
}

// relayControl forwards a control-plane message one hop toward its
// destination DC over the control channel: scheduler-bypassing and
// non-billable, like the probe traffic it shares the channel with.
func (n *DCNode) relayControl(hdr *wire.Header, raw []byte) {
	via, ok := n.fwd.Route(hdr.Dst)
	if !ok || via == n.id || !n.d.net.HasRoute(n.id, via) {
		n.drop++
		return
	}
	n.d.sendControl(n.id, via, raw)
}

// onData handles an application data copy.
//
//   - forwarding: relay toward the (possibly multicast) destination.
//   - caching: relay until this DC is the destination's nearest DC (or the
//     destination is a group homed here), then cache.
//   - coding: this DC is DC1 for the flow — feed the encoder; parity flows
//     to the receiver's DC2.
func (n *DCNode) onData(now core.Time, hdr *wire.Header, payload []byte, raw []byte) {
	switch hdr.Service {
	case core.ServiceForwarding:
		n.forwardData(hdr, raw)
	case core.ServiceCaching:
		if n.servesDst(hdr.Dst) {
			n.cch.Put(now, hdr.ID(), payload)
			return
		}
		n.forwardData(hdr, raw)
	case core.ServiceCoding:
		dc2, ok := n.d.topo.NearestDC(hdr.Dst)
		if !ok {
			n.drop++
			return
		}
		pol := n.d.flowPathPolicy(hdr.Flow)
		if dc2 == n.id {
			// Partial overlay: DC1 and DC2 are the same DC. The
			// encoder still runs; parity "transits" locally.
			emits := n.enc.OnDataPolicy(now, dc2, hdr.Dst, hdr.Flow, hdr.Seq, pol, payload)
			n.loopback(now, emits)
			return
		}
		// Cross-stream batches are policy-homogeneous (the encoder keys
		// them by the flow's path policy), so the parity each batch emits
		// follows the spec'd policy of EVERY flow in it — pinning by the
		// batch's first source flow, the same key transit DCs use, routes
		// the batch on that shared policy end to end.
		n.transmitCoded(n.enc.OnDataPolicy(now, dc2, hdr.Dst, hdr.Flow, hdr.Seq, pol, payload))
	default:
		// Internet-service data should never reach a DC; forward it on
		// so nothing silently vanishes.
		n.forwardData(hdr, raw)
	}
}

// forwardData relays a data message toward its destination, honoring the
// flow's pinned path if the controller installed one here. Multicast
// groups fan out with per-member destination rewriting, so downstream DCs
// route each copy as plain unicast (cloud multicast, Figure 3c).
func (n *DCNode) forwardData(hdr *wire.Header, raw []byte) {
	if n.fwd.IsGroup(hdr.Dst) {
		for _, m := range n.fwd.Group(hdr.Dst) {
			if m == n.id {
				continue
			}
			msg := append([]byte(nil), raw...)
			if err := wire.RewriteDst(msg, m); err != nil {
				n.drop++
				continue
			}
			n.transmit([]core.Emit{{To: m, Msg: msg}})
		}
		return
	}
	n.forwardVia(hdr.Flow, hdr.Dst, hdr.Flags, raw)
}

// pinnedSend sends msg over flow's pinned next hop toward to, if one is
// installed here and the link exists. The hop goes on the wire directly —
// transmit's table lookup must not re-resolve it, or the shared route to
// that DC would defeat the pin. Returns whether the copy left.
func (n *DCNode) pinnedSend(flow core.FlowID, to core.NodeID, msg []byte) bool {
	via, ok := n.fwd.FlowRoute(flow, to)
	if !ok || via == n.id || !n.d.net.HasRoute(n.id, via) {
		return false
	}
	n.send(via, msg)
	return true
}

// forwardVia relays raw toward dst, honoring the flow's pinned next hop
// before the shared tables. Packets carrying an epoch tag (stamped at
// ingress) resolve against the table version they entered the overlay
// under while the controller's make-before-break drain holds it live.
func (n *DCNode) forwardVia(flow core.FlowID, dst core.NodeID, flags uint16, raw []byte) {
	if n.pinnedSend(flow, dst, raw) {
		n.fwd.NotePinnedForward()
		return
	}
	if tag, ok := wire.EpochTag(flags); ok {
		n.transmitTagged(tag, n.fwd.ForwardTagged(tag, dst, raw))
		return
	}
	n.transmit(n.fwd.Forward(dst, raw))
}

// servesDst reports whether this DC is the egress DC for dst (its nearest
// DC, or a multicast group installed here).
func (n *DCNode) servesDst(dst core.NodeID) bool {
	if n.fwd.IsGroup(dst) {
		return true
	}
	near, ok := n.d.topo.NearestDC(dst)
	return ok && near == n.id
}

// loopback delivers emits addressed to this very node back into the
// engines without touching the network (partial-overlay coding, where
// DC1 and DC2 are the same DC); everything else leaves pin-aware.
func (n *DCNode) loopback(now core.Time, emits []core.Emit) {
	for _, em := range emits {
		if em.To == n.id {
			var hdr wire.Header
			body, err := wire.SplitMessage(&hdr, em.Msg)
			if err != nil {
				n.drop++
				continue
			}
			n.onCoded(now, &hdr, body, em.Msg)
		} else {
			n.transmitCoded([]core.Emit{em})
		}
	}
}

// transmitCoded sends encoder emits, pinning each coded packet by its
// batch's first source flow — keyed identically at ingress and transit,
// so a batch follows one flow's path policy end to end (cross-stream
// batches mix flows; the first source stands in for the whole batch).
func (n *DCNode) transmitCoded(emits []core.Emit) {
	if n.fwd.FlowRouteCount() == 0 {
		n.transmit(emits) // no pins here: skip the per-packet peek
		return
	}
	for _, em := range emits {
		var hdr wire.Header
		if body, err := wire.SplitMessage(&hdr, em.Msg); err == nil && hdr.Type == wire.TypeCoded {
			if flow, ok := wire.PeekCodedFlow(body); ok && n.pinnedSend(flow, em.To, em.Msg) {
				n.fwd.NotePinnedCopy()
				continue
			}
		}
		n.transmit([]core.Emit{em})
	}
}

// onCoded handles a parity packet: if addressed here, store it in the
// recoverer (DC2 role); otherwise forward it along — on the source flow's
// pinned path when one is installed (cross-stream batches mix flows; the
// batch's first source decides).
func (n *DCNode) onCoded(now core.Time, hdr *wire.Header, body []byte, raw []byte) {
	if hdr.Dst != n.id {
		if flow, ok := wire.PeekCodedFlow(body); ok {
			n.forwardVia(flow, hdr.Dst, hdr.Flags, raw)
			return
		}
		n.transmit(n.fwd.Forward(hdr.Dst, raw))
		return
	}
	var meta wire.Coded
	shard, err := meta.Unmarshal(body)
	if err != nil {
		n.drop++
		return
	}
	n.transmit(n.rec.OnCoded(now, hdr, &meta, shard))
}

// onNACK dispatches a loss report by requested service: the cache answers
// directly; coding goes through the recoverer.
func (n *DCNode) onNACK(now core.Time, hdr *wire.Header) {
	switch hdr.Service {
	case core.ServiceCaching:
		if payload, ok := n.cch.Get(now, hdr.ID()); ok {
			resp := wire.Header{
				Type:    wire.TypePullResp,
				Service: core.ServiceCaching,
				Flow:    hdr.Flow,
				Seq:     hdr.Seq,
				TS:      now,
				Src:     n.id,
				Dst:     hdr.Src,
			}
			n.transmit([]core.Emit{{To: hdr.Src, Msg: wire.AppendMessage(nil, &resp, payload)}})
		}
		// Cache miss: fail silently; the receiver's retry or give-up
		// horizon handles it.
	default:
		n.transmit(n.rec.OnNACK(now, hdr.Src, hdr.ID(), hdr.Flags))
	}
}

// onPull serves explicit cache pulls, including FlagDrain for the mobility
// rendezvous case: return every cached packet of the flow after Seq.
func (n *DCNode) onPull(now core.Time, hdr *wire.Header) {
	ids := []core.PacketID{hdr.ID()}
	if hdr.Flags&wire.FlagDrain != 0 {
		ids = n.cch.DrainFlow(now, hdr.Flow, hdr.Seq)
	}
	var emits []core.Emit
	for _, id := range ids {
		payload, ok := n.cch.Get(now, id)
		if !ok {
			continue
		}
		resp := wire.Header{
			Type:    wire.TypePullResp,
			Service: core.ServiceCaching,
			Flow:    id.Flow,
			Seq:     id.Seq,
			TS:      now,
			Src:     n.id,
			Dst:     hdr.Src,
		}
		emits = append(emits, core.Emit{To: hdr.Src, Msg: wire.AppendMessage(nil, &resp, payload)})
	}
	n.transmit(emits)
}

func (n *DCNode) onCoopResp(now core.Time, hdr *wire.Header, body []byte) {
	var ref wire.CoopRef
	payload, err := ref.Unmarshal(body)
	if err != nil {
		n.drop++
		return
	}
	n.transmit(n.rec.OnCoopResp(now, hdr, &ref, payload))
}

// armTimer (re)schedules the DC's engine timer at the earliest deadline
// either engine holds; with none pending, an already armed firing stands.
func (n *DCNode) armTimer() {
	if next, ok := coding.EarliestDeadline(n.enc, n.rec); ok {
		n.timer.Reset(next)
	}
}

func (n *DCNode) onTimer() {
	t := n.d.sim.Now()
	// Timer-flushed batches carry parity too: route them like the
	// batch-full flushes — through loopback, so a partial overlay's
	// self-addressed parity reaches the local recoverer instead of
	// being dropped, and pinned flows' parity stays on its path.
	n.loopback(t, n.enc.OnTimer(t))
	n.transmit(n.rec.OnTimer(t))
	n.armTimer()
}
