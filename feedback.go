package jqos

import (
	"slices"
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
// the transition broadcaster, arms the batch-flush and Hot-refresh
// timers, and moves TypeCongestion control messages from detecting DCs
// to ingress DCs (hop-by-hop over the control channel, bypassing the
// very schedulers it reports on). It keeps no index of its own: who
// hears a signal is read off the open-flow list (each Flow's announced
// path and class), and which queues sit Hot off the egress schedulers.
type feedbackPlane struct {
	d  *Deployment
	bc *feedback.Broadcaster

	// flushTimer batches noted transitions for one signalInterval;
	// refreshTimer re-announces the queues still Hot (see refresh).
	flushTimer   *netem.Timer
	batchFn      func([]feedback.Transition)
	refreshTimer *netem.Timer

	// Scratch buffers reused across signals. Signal MESSAGES are not
	// reusable: the emulator defers delivery, so each TypeCongestion
	// buffer is owned by its in-flight event — one allocation per
	// remote signal (flush or refresh), never per packet.
	ingScratch    []core.NodeID
	flowScratch   []*Flow
	tenantScratch []*tenant.Tenant

	// stats holds the plane's own counters; the snapshot builder fills
	// in Enabled, the broadcaster's counts and SubscribedFlows.
	stats telemetry.FeedbackSnapshot
}

func newFeedbackPlane(d *Deployment) *feedbackPlane {
	p := &feedbackPlane{d: d, bc: feedback.NewBroadcaster()}
	p.flushTimer = d.sim.NewTimer(p.flush)
	p.batchFn = p.fanOut
	p.refreshTimer = d.sim.NewTimer(p.refresh)
	return p
}

// note records one watermark transition from a DC egress scheduler and
// arms the batch flush, and on Hot the refresh. Called from the
// scheduler hot path via the DRR's OnStateChange hook — allocation-free
// but for the (per-batch, not per-packet) timer events.
func (p *feedbackPlane) note(from, to core.NodeID, class core.Service, st sched.QueueState, depth int64) {
	p.bc.Note(from, to, class, st, depth)
	if st == sched.QueueHot {
		p.refreshTimer.Arm(pacerRecoverInterval)
	}
	p.flushTimer.Arm(signalInterval)
}

func (p *feedbackPlane) flush() { p.bc.Flush(p.batchFn) }

// refresh is the level-triggered re-signal loop. Watermark transitions
// are EDGES: a queue that stays pinned past the low watermark after one
// cut would never signal again, and the pacers would freeze at a rate
// that still oversubscribes the class (three 600 kB/s contracts halved
// once still exceed an 800 kB/s share — the queue tail-drops forever
// with no further feedback). So every pacerRecoverInterval — the cadence
// the pacers recover at, so a standing backlog keeps cutting toward the
// floor strictly faster than anything climbs — it re-announces Hot for
// every class queue still Hot, ascending (from, to, class), and re-arms
// while any is. The schedulers are the one record of which queues are
// Hot: sched.DRR changes a state only where it calls OnStateChange, and
// note arms the loop on every Hot one.
func (p *feedbackPlane) refresh() {
	hot := false
	p.d.eachEgress(func(from, to core.NodeID, q *egressQueue) {
		for c := core.Service(0); int(c) < sched.NumClasses; c++ {
			if q.drr.State(c) != sched.QueueHot {
				continue
			}
			hot = true
			p.stats.HotRefreshes++
			t := feedback.Transition{From: from, To: to, Class: c, State: feedback.Hot,
				Depth: q.drr.Stats().PerClass[c].QueuedBytes}
			p.fanOutOne(&t)
		}
	})
	if hot {
		p.refreshTimer.Arm(pacerRecoverInterval)
	}
}

// fanOut delivers one flushed batch of transitions.
func (p *feedbackPlane) fanOut(batch []feedback.Transition) {
	for i := range batch {
		p.fanOutOne(&batch[i])
	}
}

// fanOutOne delivers one transition to each distinct ingress DC of the
// flows that hear its (link, class) — locally when the detecting DC is
// itself the ingress, as a TypeCongestion control message otherwise.
func (p *feedbackPlane) fanOutOne(t *feedback.Transition) {
	for _, ingress := range p.ingresses(t.From, t.To, t.Class) {
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

// ingresses collects, into the plane's scratch, the distinct ingress
// DCs of the open flows that hear from→to in class, ascending
// (deterministic fan-out).
func (p *feedbackPlane) ingresses(from, to core.NodeID, class core.Service) []core.NodeID {
	ings := p.ingScratch[:0]
	for _, f := range p.d.open {
		if f.hears(from, to, class) && !slices.Contains(ings, f.fbPath[0]) {
			ings = append(ings, f.fbPath[0])
		}
	}
	slices.Sort(ings)
	p.ingScratch = ings
	return ings
}

// listeners collects, into the plane's scratch, the open flows entering
// at ingress that hear from→to in class, ascending ID (deterministic
// delivery) — all of them before any reacts, so a reaction that closes
// or registers flows cannot change who hears the signal.
func (p *feedbackPlane) listeners(ingress, from, to core.NodeID, class core.Service) []*Flow {
	fs := p.flowScratch[:0]
	for _, f := range p.d.open {
		if f.hears(from, to, class) && f.fbPath[0] == ingress {
			fs = append(fs, f)
		}
	}
	p.flowScratch = fs
	return fs
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
	p.d.sendControl(t.From, via, wire.AppendMessage(p.d.pool.Get(wire.HeaderLen+wire.CongestionLen), &hdr, buf[:]))
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

// deliver fans one signal out to the flows that hear it at this
// ingress, then ONCE to each distinct tenant among them: sibling flows
// sharing a hot bottleneck back off as one sender, not N independent
// ones.
func (p *feedbackPlane) deliver(ingress core.NodeID, sig CongestionSignal) {
	flows := p.listeners(ingress, sig.LinkA, sig.LinkB, core.Service(sig.Class))
	p.tenantScratch = p.tenantScratch[:0]
	for _, f := range flows {
		if f.closed { // a reaction earlier in this loop closed it
			continue
		}
		p.stats.FlowSignals++
		f.onCongestionSignal(sig)
		if f.tenant != nil && f.tenant.Pacer() != nil && !slices.Contains(p.tenantScratch, f.tenant) {
			p.tenantScratch = append(p.tenantScratch, f.tenant)
		}
	}
	clear(flows) // the scratch must not keep closed flows reachable
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

// hears reports whether the flow's announced path carries the directed
// link from→to in class: the key a congestion signal names.
func (f *Flow) hears(from, to core.NodeID, class core.Service) bool {
	if f.fbClass != class {
		return false
	}
	for i := 0; i+1 < len(f.fbPath); i++ {
		if f.fbPath[i] == from && f.fbPath[i+1] == to {
			return true
		}
	}
	return false
}

// updateFeedbackSub announces the flow's (path, class) to the feedback
// plane. Called at registration, on every path change, and on every
// service change; a flow with no inter-DC path announces none. A changed
// announcement also unfreezes the pacer: the frozen Hot state described
// a queue whose cooling transition this flow will no longer hear, and
// additive recovery must not stay wedged on a signal that can never be
// contradicted.
func (f *Flow) updateFeedbackSub() {
	if f.d.fb == nil {
		return
	}
	path := f.activePath
	if f.closed || len(path) < 2 {
		path = nil
	}
	// Only a REAL change unfreezes: a re-resolution that picked the same
	// path (routing churn, repin retries) must not undo an active Hot
	// cut — a saturated queue emits no further transitions, so a
	// spuriously unfrozen pacer would climb straight back into it.
	changed := (path != nil || f.fbPath != nil) && (f.fbClass != f.service || !slices.Equal(f.fbPath, path))
	f.fbPath, f.fbClass = path, f.service
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
