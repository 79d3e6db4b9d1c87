package jqos

import (
	"jqos/internal/core"
	"jqos/internal/netem"
	"jqos/internal/sched"
	"jqos/internal/telemetry"
	"jqos/internal/wire"
)

// SchedulerConfig configures per-class weighted fair queueing at DC
// egress: a deficit-round-robin scheduler with one queue per service
// class, instantiated per inter-DC link direction (re-exported from
// internal/sched; see Config.Scheduler).
type SchedulerConfig = sched.Config

// egressQueue is one directed inter-DC link's egress scheduler plus its
// pump: the DRR holds the backlog, and the pump drains it into the
// network at the link's accounting capacity (load.Registry.Capacity), so
// the queueing — and therefore the class preference — happens HERE, under
// the scheduler's control, not in the emulated link's single FIFO. An
// uncapacitated link drains inline: every enqueue dequeues immediately
// and the scheduler degenerates to a counted pass-through.
type egressQueue struct {
	n   *DCNode
	to  core.NodeID
	drr *sched.DRR
	// wire is armed while a released packet occupies the link; it runs
	// pump when the serialization time is up.
	wire *netem.Timer
}

func newEgressQueue(n *DCNode, to core.NodeID) *egressQueue {
	q := &egressQueue{n: n, to: to, drr: sched.New(n.d.cfg.Scheduler)}
	q.wire = n.d.sim.NewTimer(q.pump)
	// Watermark transitions feed the congestion-feedback plane (when one
	// runs) and the telemetry queue-depth histogram — the transition edge
	// is exactly when depth is worth sampling. The closure is bound once
	// per (DC, next hop), so the signal hot path allocates nothing per
	// flip.
	fb, tel := n.d.fb, n.d.tel
	q.drr.OnStateChange = func(class core.Service, st sched.QueueState, depth int64) {
		tel.noteQueueDepth(depth)
		if fb != nil {
			fb.note(n.id, q.to, class, st, depth)
		}
	}
	// Victim evictions (a full class queue making room by shedding the
	// longest sibling sub-queue's tail) are egress drops like any other —
	// charged to the flow that LOST bytes, not the one that arrived.
	q.drr.OnVictimDrop = func(class core.Service, flow core.FlowID, size int64) {
		n.d.noteEgressDrop(flow, class, int(size))
	}
	return q
}

// eachEgress calls fn for every DC egress scheduler, ascending (from,
// to). Node IDs are dense small integers, so a range scan with map
// membership checks iterates deterministically without sorting.
func (d *Deployment) eachEgress(fn func(from, to core.NodeID, q *egressQueue)) {
	for from := core.NodeID(1); from < d.nextNode; from++ {
		dc, ok := d.dcs[from]
		if !ok || dc.egress == nil {
			continue
		}
		for to := core.NodeID(1); to < d.nextNode; to++ {
			if q, ok := dc.egress[to]; ok {
				fn(from, to, q)
			}
		}
	}
}

// scheduledSend routes one data-plane message of class cls into the
// egress scheduler toward hop. On a byte-cap rejection the message is
// dropped from the tail, accounted per class, and surfaced to the owning
// flow (FlowMetrics.EgressDropped, an egress-drop event).
func (n *DCNode) scheduledSend(hop core.NodeID, cls core.Service, msg []byte) {
	q := n.egress[hop]
	if q == nil {
		if n.egress == nil {
			n.egress = make(map[core.NodeID]*egressQueue)
		}
		q = newEgressQueue(n, hop)
		n.egress[hop] = q
	}
	flow := peekFlow(msg)
	// Stamp the enqueue time so the pump can attribute the queue wait
	// (dequeue − enqueue) to this (link, class) for traced packets.
	if !q.drr.EnqueueStamped(cls, flow, msg, n.d.sim.Now()) {
		n.d.tel.spanDropMsg(msg)
		n.d.noteEgressDrop(flow, cls, len(msg))
		n.d.pool.Put(msg)
		return
	}
	if !q.wire.Armed() {
		q.pump()
	}
}

// peekFlow attributes a marshaled message to the flow that pays for it:
// the header's flow for data and service messages, the batch's first
// source flow for coded parity (the same key path pinning uses — one
// flow stands in for a cross-stream batch). Zero when unattributable.
// Fixed-offset peeks only — no header decode on the egress hot path.
func peekFlow(msg []byte) core.FlowID {
	flow, typ, ok := wire.PeekFlow(msg)
	if !ok {
		return 0
	}
	if typ == wire.TypeCoded {
		if flow, ok := wire.PeekCodedFlow(msg[wire.HeaderLen:]); ok {
			return flow
		}
		return 0
	}
	return flow
}

// pump releases scheduler backlog onto the wire. Each released packet
// holds the link for size/capacity seconds before the next dequeue — the
// serialization clock that makes per-class queues build (and DRR order
// matter) when offered load exceeds the link rate. Capacity can change
// mid-backlog (Link(a, b).SetCapacity); the pump reads it per packet.
// With no capacity configured the whole backlog drains inline.
func (q *egressQueue) pump() {
	d := q.n.d
	for {
		it, ok := q.drr.Dequeue()
		if !ok {
			return
		}
		d.tel.spanQueue(it.Msg, q.n.id, q.to, it.Class, d.sim.Now()-it.Stamp)
		q.n.putOnWire(q.to, it.Class, it.Msg)
		rate := d.loadReg.Capacity(q.n.id, q.to)
		if rate <= 0 {
			continue
		}
		tx := core.Time(float64(len(it.Msg)) / float64(rate) * 1e9)
		if tx <= 0 {
			continue
		}
		q.wire.Arm(tx)
		return
	}
}

// noteEgressDrop surfaces one scheduler tail-drop to the owning flow.
// Unattributable packets (forged or flowless) have nobody to tell; the
// per-link scheduler counters still count them.
func (d *Deployment) noteEgressDrop(flow core.FlowID, cls core.Service, size int) {
	f := d.flow(flow)
	if f == nil {
		return
	}
	f.metrics.EgressDropped++
	f.emit(telemetry.Event{Kind: telemetry.KindEgressDrop, Class: cls, V1: int64(size)})
}
