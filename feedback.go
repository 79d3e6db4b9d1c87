package jqos

import (
	"sort"
	"time"

	"jqos/internal/core"
	"jqos/internal/feedback"
	"jqos/internal/netem"
	"jqos/internal/sched"
	"jqos/internal/telemetry"
	"jqos/internal/tenant"
	"jqos/internal/wire"
)

// CongestionState classifies a link-class egress queue against the
// scheduler's watermarks (re-exported from internal/feedback):
// CongestionClear, CongestionWarm, CongestionHot.
type CongestionState = feedback.State

// Congestion states, re-exported.
const (
	CongestionClear = feedback.Clear
	CongestionWarm  = feedback.Warm
	CongestionHot   = feedback.Hot
)

// FeedbackConfig turns the congestion-feedback plane on (see the package
// docs' Congestion feedback section): egress watermark transitions travel
// back to the ingress DCs, where Rate-contracted flows pace with AIMD and
// the rest move service preemptively. Requires Config.Scheduler: queue
// depth is the signal source.
type FeedbackConfig struct {
	// Enabled turns the feedback plane on. Off (the default), the
	// schedulers still track watermark states (visible in Snapshot().Queue)
	// but nothing is signaled and nobody paces.
	Enabled bool
}

// Feedback-plane tuning; the pacers' AIMD parameters (floor 1/8 of the
// contract, halve per Hot signal, +1/10 per tick) are internal/feedback's.
const (
	// signalInterval batches watermark transitions before fan-out, so a
	// queue flapping across one threshold costs one control message per
	// interval, not per flip.
	signalInterval = 10 * time.Millisecond
	// pacerRecoverInterval is the additive-recovery tick of throttled
	// pacers (one AIMD increase per tick while the queue stays cool) and
	// the cadence a standing Hot queue is re-announced at.
	pacerRecoverInterval = 250 * time.Millisecond
)

// CongestionSignal is one ECN-style backpressure notification delivered
// to a flow: the directed inter-DC link whose Class egress queue
// transitioned to State with QueuedBytes of backlog.
type CongestionSignal struct {
	// LinkA → LinkB is the congested egress direction.
	LinkA, LinkB NodeID
	// Class is the service class whose queue flipped.
	Class Service
	// State is the new classification (Clear/Warm/Hot).
	State CongestionState
	// QueuedBytes is the class queue's depth at the transition.
	QueuedBytes int64
}

// feedbackPlane is the deployment's congestion-feedback glue: it owns
// the transition broadcaster and the subscription registry, arms the
// batch-flush timer, and moves TypeCongestion control messages from
// detecting DCs to ingress DCs (hop-by-hop over the control channel,
// bypassing the very schedulers it reports on).
type feedbackPlane struct {
	d   *Deployment
	bc  *feedback.Broadcaster
	reg *feedback.Registry

	// flushTimer batches noted transitions for one signalInterval.
	flushTimer *netem.Timer
	batchFn    func([]feedback.Transition)

	// hot tracks the (link, class) queues currently past the high
	// watermark, for the level-triggered refresh loop (see armRefresh).
	hot          map[feedback.LinkClass]struct{}
	refreshTimer *netem.Timer

	// Scratch buffers reused across flushes. Signal MESSAGES are not
	// reusable: the emulator defers delivery, so each TypeCongestion
	// buffer is owned by its in-flight event — one allocation per
	// remote signal (flush or refresh), never per packet.
	ingScratch    []core.NodeID
	flowScratch   []core.FlowID
	tenantScratch []*tenant.Tenant

	// stats holds the plane's own counters; the snapshot builder fills
	// in Enabled and the counts the broadcaster and registry keep.
	stats telemetry.FeedbackSnapshot
}

func newFeedbackPlane(d *Deployment) *feedbackPlane {
	p := &feedbackPlane{
		d:   d,
		bc:  feedback.NewBroadcaster(),
		reg: feedback.NewRegistry(),
		hot: make(map[feedback.LinkClass]struct{}),
	}
	p.flushTimer = d.sim.NewTimer(p.flush)
	p.batchFn = p.fanOut
	p.refreshTimer = d.sim.NewTimer(p.refresh)
	return p
}

// note records one watermark transition from a DC egress scheduler and
// arms the batch flush. Called from the scheduler hot path via the
// DRR's OnStateChange hook — allocation-free but for the (per-batch,
// not per-packet) flush-timer event.
func (p *feedbackPlane) note(from, to core.NodeID, class core.Service, st sched.QueueState, depth int64) {
	p.bc.Note(from, to, class, st, depth)
	k := feedback.LinkClass{From: from, To: to, Class: class}
	if st == sched.QueueHot {
		p.hot[k] = struct{}{}
		p.armRefresh()
	} else {
		delete(p.hot, k)
	}
	p.flushTimer.Arm(signalInterval)
}

func (p *feedbackPlane) flush() { p.bc.Flush(p.batchFn) }

// armRefresh keeps the level-triggered re-signal loop alive while any
// queue sits Hot. Watermark transitions are EDGES: a queue that stays
// pinned past the low watermark after one cut would never signal
// again, and the pacers would freeze at a rate that still
// oversubscribes the class (three 600 kB/s contracts halved once still
// exceed an 800 kB/s share — the queue tail-drops forever with no
// further feedback). The refresh re-announces Hot for every still-hot
// (link, class) each pacerRecoverInterval — the cadence the pacers recover
// at, so a standing backlog keeps cutting toward the floor strictly
// faster than anything climbs.
func (p *feedbackPlane) armRefresh() {
	if len(p.hot) != 0 {
		p.refreshTimer.Arm(pacerRecoverInterval)
	}
}

func (p *feedbackPlane) refresh() {
	if len(p.hot) == 0 {
		return
	}
	keys := make([]feedback.LinkClass, 0, len(p.hot))
	for k := range p.hot {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Class < b.Class
	})
	for _, k := range keys {
		depth, stillHot := p.liveDepth(k)
		if !stillHot {
			delete(p.hot, k) // cooled; its transition keeps the map honest
			continue
		}
		p.stats.HotRefreshes++
		t := feedback.Transition{From: k.From, To: k.To, Class: k.Class, State: feedback.Hot, Depth: depth}
		p.fanOutOne(&t)
	}
	p.armRefresh()
}

// liveDepth reads a hot-set entry's current queue state straight from
// the scheduler, reporting whether it is still Hot.
func (p *feedbackPlane) liveDepth(k feedback.LinkClass) (int64, bool) {
	dc, ok := p.d.dcs[k.From]
	if !ok {
		return 0, false
	}
	q := dc.egress[k.To]
	if q == nil || q.drr.State(k.Class) != sched.QueueHot {
		return 0, false
	}
	return q.drr.Stats().PerClass[k.Class].QueuedBytes, true
}

// fanOut delivers one flushed batch of transitions.
func (p *feedbackPlane) fanOut(batch []feedback.Transition) {
	for i := range batch {
		p.fanOutOne(&batch[i])
	}
}

// fanOutOne delivers one transition to each distinct ingress DC
// subscribed to its (link, class) — locally when the detecting DC is
// itself the ingress, as a TypeCongestion control message otherwise.
func (p *feedbackPlane) fanOutOne(t *feedback.Transition) {
	p.ingScratch = p.reg.Ingresses(p.ingScratch[:0], t.From, t.To, t.Class)
	for _, ingress := range p.ingScratch {
		if ingress == t.From {
			p.stats.SignalsLocal++
			p.deliver(ingress, CongestionSignal{
				LinkA: t.From, LinkB: t.To,
				Class: t.Class, State: t.State, QueuedBytes: t.Depth,
			})
			continue
		}
		p.sendSignal(ingress, t)
	}
}

// sendSignal ships one transition to a remote ingress DC over the
// control channel: one hop toward the forwarder's next hop for that DC,
// relayed hop-by-hop (relayCongestion) until it arrives.
func (p *feedbackPlane) sendSignal(ingress core.NodeID, t *feedback.Transition) {
	dc, ok := p.d.dcs[t.From]
	if !ok {
		p.stats.SignalsDropped++
		return
	}
	via, ok := dc.controlHop(ingress)
	if !ok {
		p.stats.SignalsDropped++
		return
	}
	depth := t.Depth
	if depth > int64(^uint32(0)) {
		depth = int64(^uint32(0))
	}
	body := wire.Congestion{
		LinkA: t.From, LinkB: t.To,
		Class: t.Class, State: uint8(t.State), Depth: uint32(depth),
	}
	var buf [wire.CongestionLen]byte
	body.Marshal(buf[:])
	hdr := wire.Header{
		Type: wire.TypeCongestion,
		TS:   p.d.sim.Now(),
		Src:  t.From,
		Dst:  ingress,
	}
	p.stats.SignalsSent++
	p.d.sendControl(t.From, via, wire.AppendMessage(nil, &hdr, buf[:]))
}

// onCongestionMsg dispatches an arrived TypeCongestion message at its
// ingress DC.
func (p *feedbackPlane) onCongestionMsg(ingress core.NodeID, msg []byte) bool {
	c, ok := wire.PeekCongestion(msg)
	if !ok {
		return false
	}
	p.deliver(ingress, CongestionSignal{
		LinkA: c.LinkA, LinkB: c.LinkB,
		Class: c.Class, State: CongestionState(c.State), QueuedBytes: int64(c.Depth),
	})
	return true
}

// deliver fans one signal out to the flows subscribed at this ingress,
// then ONCE to each distinct tenant among them: sibling flows sharing a
// hot bottleneck back off as one sender, not N independent ones.
func (p *feedbackPlane) deliver(ingress core.NodeID, sig CongestionSignal) {
	p.flowScratch = p.reg.FlowsAt(p.flowScratch[:0], ingress, sig.LinkA, sig.LinkB, core.Service(sig.Class))
	p.tenantScratch = p.tenantScratch[:0]
	for _, id := range p.flowScratch {
		f := p.d.flow(id)
		if f == nil {
			continue
		}
		p.stats.FlowSignals++
		f.onCongestionSignal(sig)
		if f.tenant != nil && f.tenant.Pacer() != nil {
			dup := false
			for _, t := range p.tenantScratch {
				if t == f.tenant {
					dup = true
					break
				}
			}
			if !dup {
				p.tenantScratch = append(p.tenantScratch, f.tenant)
			}
		}
	}
	now := p.d.sim.Now()
	key := feedback.LinkClass{From: sig.LinkA, To: sig.LinkB, Class: core.Service(sig.Class)}
	for _, t := range p.tenantScratch {
		pc := t.Pacer()
		if pc.OnSignal(now, key, sig.State) {
			p.stats.TenantCuts++
			p.d.trace(telemetry.Event{
				Kind: telemetry.KindTenantPacerCut, Tenant: t.ID(),
				LinkA: sig.LinkA, LinkB: sig.LinkB, Class: sig.Class,
				V1: pc.Rate(), V2: pc.Contract(),
			})
			p.d.tel.notePacer(pc.Rate(), pc.Contract())
		}
		if pc.Throttled() {
			p.d.armTenantPacerTick()
		}
	}
}

// updateFeedbackSub (re)subscribes the flow's (path, class) in the
// feedback registry. Called at registration, on every path change, and
// on every service change; a flow with no inter-DC path holds no
// subscription. A changed subscription also unfreezes the pacer: the
// frozen Hot state described a queue whose cooling transition this
// flow will no longer hear, and additive recovery must not stay wedged
// on a signal that can never be contradicted.
func (f *Flow) updateFeedbackSub() {
	fb := f.d.fb
	if fb == nil {
		return
	}
	var changed bool
	if f.closed || len(f.activePath) < 2 {
		changed = fb.reg.Remove(f.id)
	} else {
		changed = fb.reg.Update(f.id, f.activePath[0], f.service, f.activePath)
	}
	// Only a REAL change unfreezes: a re-resolution that picked the same
	// path (routing churn, repin retries) must not undo an active Hot
	// cut — a saturated queue emits no further transitions, so a
	// spuriously unfrozen pacer would climb straight back into it.
	if changed && f.pacer != nil {
		f.pacer.Unfreeze()
	}
	// Same reasoning at tenant scope: the member that re-routed may have
	// been the aggregate pacer's only ear on that bottleneck.
	if changed && f.tenant != nil {
		if pc := f.tenant.Pacer(); pc != nil {
			pc.Unfreeze()
			f.d.armTenantPacerTick()
		}
	}
}

// onCongestionSignal is a flow's reaction to backpressure: contracted
// flows cut/freeze their pacer (AIMD), unpaced adaptive flows consider
// a preemptive service move — after the signal itself is emitted, so a
// subscriber sees cause, then effect.
func (f *Flow) onCongestionSignal(sig CongestionSignal) {
	if f.closed {
		return
	}
	f.emit(telemetry.Event{
		Kind:  telemetry.KindCongestionSignal,
		LinkA: sig.LinkA, LinkB: sig.LinkB,
		Class: sig.Class, Reason: uint8(sig.State), V1: sig.QueuedBytes,
	})
	if f.pacer != nil {
		// The zero key on every signal: one AIMD state for the whole path.
		if f.pacer.OnSignal(f.d.sim.Now(), feedback.LinkClass{}, sig.State) {
			f.d.fb.stats.RateCuts++
			f.emit(telemetry.Event{
				Kind: telemetry.KindPacerCut,
				V1:   f.pacer.Rate(), V2: f.pacer.Contract(),
			})
			f.d.tel.notePacer(f.pacer.Rate(), f.pacer.Contract())
		}
		if f.pacer.Throttled() {
			f.armPacerTick()
		}
		return
	}
	if sig.State == CongestionHot {
		f.congestionAdapt()
	}
}

// armPacerTick schedules the next additive-recovery step of a throttled
// pacer (idempotent; stops by itself once the contract rate is back).
func (f *Flow) armPacerTick() {
	if !f.closed {
		f.pacerTimer.Arm(pacerRecoverInterval)
	}
}

func (f *Flow) pacerTickRun() {
	if f.closed || f.pacer == nil {
		return
	}
	if f.pacer.Tick(f.d.sim.Now()) {
		f.d.fb.stats.RateRecoveries++
		f.emit(telemetry.Event{
			Kind: telemetry.KindPacerRecover,
			V1:   f.pacer.Rate(), V2: f.pacer.Contract(),
		})
		f.d.tel.notePacer(f.pacer.Rate(), f.pacer.Contract())
	}
	if f.pacer.Throttled() {
		f.armPacerTick()
	}
}

// congestionAdapt is the unpaced flow's preemptive reaction to a Hot
// signal on its own (link, class): move OFF the hot queue before the
// budget-violation window would force it. The judicious direction is
// DOWN — a cheaper tier that still predicts within budget rides an
// emptier queue and spends less — and only when no such tier exists
// does the flow step UP past the backlog (overlay.Adapter.Congested,
// cooldown-bounded so an oscillating queue cannot flap the service).
func (f *Flow) congestionAdapt() {
	dec := f.adapter.Congested(f.adaptInput())
	if dec.Next != f.service {
		f.setService(dec.Next, dec.Reason)
		f.d.fb.stats.PreemptiveMoves++
	}
}
