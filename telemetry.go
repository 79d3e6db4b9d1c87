package jqos

import (
	"sync/atomic"
	"time"

	"jqos/internal/core"
	"jqos/internal/load"
	"jqos/internal/netem"
	"jqos/internal/telemetry"
	"jqos/internal/tenant"
	"jqos/internal/wire"
)

// SLOConfig configures the continuous SLO engine (re-exported from
// internal/telemetry; see TelemetryConfig.SLO): the on-time objective,
// the fast/slow burn-rate windows, the AtRisk/Violated burn thresholds,
// and the recovery hysteresis hold.
type SLOConfig = telemetry.SLOConfig

// traceCapacity bounds the control-loop event ring (overwrite-oldest).
const traceCapacity = 4096

// TelemetryConfig configures the deployment's observability plane (see
// the package docs' Observability section).
type TelemetryConfig struct {
	// PublishInterval, when positive, builds and publishes a fresh
	// snapshot every interval of SIMULATED time while the deployment is
	// active (the publisher parks when traffic stops, like the probers,
	// so an idle event heap still drains). Zero disables periodic
	// publishing — Snapshot() still builds and publishes on demand,
	// which is what tests and experiments use; a live telemetry.Serve
	// endpoint wants the periodic feed.
	PublishInterval time.Duration
	// SLO configures the continuous SLO engine: rolling multi-window
	// on-time-fraction tracking per budgeted flow, per service class,
	// and per tenant, with Met/AtRisk/Violated states, hysteresis, and
	// trace events on every transition. Zero Objective disables it; the
	// evaluation ticker parks with traffic like the publisher.
	SLO telemetry.SLOConfig
}

// Delivery-latency histogram bounds (ms), latency/budget ratio bounds,
// pacer rate fraction bounds, and egress queue depth bounds (bytes).
// Fixed buckets keep Observe allocation-free on the hot paths.
var (
	latencyBoundsMs   = []float64{5, 10, 20, 40, 60, 80, 100, 150, 200, 300, 500, 1000}
	budgetRatioBounds = []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 4, 8}
	pacerFracBounds   = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}
	queueDepthBounds  = []float64{1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
)

// telemetryPlane is the deployment's observability glue: the metric
// registry (with the runtime's four standing histograms), the
// control-loop trace ring, the last published snapshot, and the parking
// periodic publisher. Snapshot BUILDING walks simulator-owned state and
// runs on the simulator goroutine only; the published *telemetry.Snapshot
// is immutable and read from anywhere (telemetry.Serve), and the ring
// carries its own lock.
type telemetryPlane struct {
	d    *Deployment
	reg  *telemetry.Registry
	ring *telemetry.Ring

	latest atomic.Pointer[telemetry.Snapshot]

	latencyMs   *telemetry.Histogram
	budgetRatio *telemetry.Histogram
	pacerFrac   *telemetry.Histogram
	queueDepth  *telemetry.Histogram
	snapshots   *telemetry.Counter

	// publisher builds a snapshot every Telemetry.PublishInterval while
	// traffic flows (nil when periodic publishing is off).
	publisher *netem.Ticker

	// Hop-level latency attribution (spans.go in internal/telemetry).
	// The collector is sim-goroutine-only; tracedFlows counts open flows
	// with TraceSampling set so snapshots can report Enabled.
	spans       *telemetry.SpanCollector
	tracedFlows int

	// Continuous SLO engine. slo carries defaults when Enabled; trackers
	// are created lazily on the first delivery (flow/class/tenant) and
	// evaluated by the sloSweeper ticker plus every snapshot build. The
	// degrade/recover counters increment exactly when the matching trace
	// event is recorded, so chaos accounting can reconcile them against
	// the ring's per-kind counts.
	slo         telemetry.SLOConfig
	sloFlows    map[core.FlowID]*sloFlowWatch
	sloClasses  [telemetry.NumClasses]*telemetry.SLOTracker
	sloTenants  map[core.TenantID]*telemetry.SLOTracker
	sloDegrades uint64
	sloRecovers uint64

	// sloSweeper evaluates the trackers every FastWindow/4 — so a burn
	// crossing is seen well inside one fast window — and holds itself
	// awake while any tracker is elevated (nil when the engine is off).
	sloSweeper *netem.Ticker
}

// sloFlowWatch pairs a flow's SLO tracker with the blackhole-detection
// cursor: when Sent advances but Delivered does not for longer than
// max(2×budget, FastWindow), the stalled packets count as synthetic
// misses — a partitioned flow must burn, not freeze at its last state.
type sloFlowWatch struct {
	tr             *telemetry.SLOTracker
	lastSent       uint64
	lastDelivered  uint64
	lastDeliveryAt time.Duration
}

func newTelemetryPlane(d *Deployment, cfg TelemetryConfig) *telemetryPlane {
	p := &telemetryPlane{
		d:    d,
		reg:  telemetry.NewRegistry(),
		ring: telemetry.NewRing(traceCapacity),
	}
	p.latencyMs = p.reg.Histogram("jqos_delivery_latency_ms", "ms", latencyBoundsMs...)
	p.budgetRatio = p.reg.Histogram("jqos_delivery_budget_ratio", "ratio", budgetRatioBounds...)
	p.pacerFrac = p.reg.Histogram("jqos_pacer_rate_fraction", "ratio", pacerFracBounds...)
	p.queueDepth = p.reg.Histogram("jqos_egress_queue_depth_bytes", "bytes", queueDepthBounds...)
	p.snapshots = p.reg.Counter("jqos_snapshots_built_total")
	if cfg.PublishInterval > 0 {
		p.publisher = d.sim.NewTicker(cfg.PublishInterval, &d.activity, func() bool {
			p.build()
			return false
		})
	}
	p.spans = telemetry.NewSpanCollector()
	if cfg.SLO.Enabled() {
		p.slo = cfg.SLO.WithDefaults()
		p.sloFlows = make(map[core.FlowID]*sloFlowWatch)
		p.sloTenants = make(map[core.TenantID]*telemetry.SLOTracker)
		interval := p.slo.FastWindow / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		// The sweep still runs on idle rounds: state can change (clear
		// holds expiring, blackhole synthesis) with no new deliveries.
		p.sloSweeper = d.sim.NewTicker(interval, &d.activity, func() bool {
			p.sloSweep(time.Duration(d.sim.Now()))
			return p.sloElevated()
		})
	}
	return p
}

// trace records one control-loop event, stamped with SIMULATED time (the
// determinism contract: same seed, byte-identical trace), and returns it
// as recorded. Allocation-free (Event is a value; the ring preallocates).
// Events about one flow go through Flow.emit instead.
func (d *Deployment) trace(e telemetry.Event) telemetry.Event {
	e.At = d.sim.Now()
	e.Seq = d.tel.ring.Record(e)
	return e
}

// emit is the one place a flow-scoped event happens: it is stamped with
// the flow, recorded in the trace ring, and handed — as recorded, Seq and
// At filled — to the flow's FlowSpec.OnEvent subscriber.
func (f *Flow) emit(e telemetry.Event) {
	e.Flow = f.id
	e = f.d.trace(e)
	if f.spec.OnEvent != nil {
		f.spec.OnEvent(f, e)
	}
}

// noteDelivery feeds the delivery histograms (latency, latency/budget).
func (p *telemetryPlane) noteDelivery(lat core.Time, budget time.Duration) {
	p.latencyMs.Observe(float64(lat) / float64(time.Millisecond))
	if budget > 0 {
		p.budgetRatio.Observe(float64(lat) / float64(budget))
	}
}

// notePacer feeds the pacer-rate histogram with rate/contract.
func (p *telemetryPlane) notePacer(rate, contract int64) {
	if contract > 0 {
		p.pacerFrac.Observe(float64(rate) / float64(contract))
	}
}

// noteQueueDepth samples an egress class queue's depth at a watermark
// transition (the edge is exactly when depth is interesting).
func (p *telemetryPlane) noteQueueDepth(depth int64) {
	p.queueDepth.Observe(float64(depth))
}

// wake keeps the SLO sweeper and the periodic publisher running; called
// per application send via noteActivity, so both run exactly while
// traffic flows.
func (p *telemetryPlane) wake() {
	p.sloSweeper.Wake()
	p.publisher.Wake()
}

// sloElevated reports whether any tracker still sits above Met. The
// ticker must keep sweeping through idle stretches while one does:
// recovery takes two evaluations (one to start the clear hold, one to
// step down after it expires), and parking in between would latch a
// degraded state until the next explicit snapshot. Bounded: with no new
// observations the windows drain, every tracker steps down, and the
// ticker parks.
func (p *telemetryPlane) sloElevated() bool {
	for _, w := range p.sloFlows {
		if w.tr.State() != telemetry.SLOMet {
			return true
		}
	}
	for _, tr := range p.sloClasses {
		if tr != nil && tr.State() != telemetry.SLOMet {
			return true
		}
	}
	for _, tr := range p.sloTenants {
		if tr.State() != telemetry.SLOMet {
			return true
		}
	}
	return false
}

// observeDelivery closes the packet's hop trace (when its cloud copy was
// sampled), feeds the always-on late-delivery reservoir on a budget
// violation, and records the on-time observation into the flow's,
// class's, and tenant's SLO trackers. Called from recordDelivery — the
// first surfaced copy of each packet. Allocation-free when the flow is
// unsampled (integer Pending guard; the reservoir stores by value) and
// after the SLO trackers exist.
func (p *telemetryPlane) observeDelivery(f *Flow, del core.Delivery, lat core.Time) {
	at := time.Duration(del.At)
	budget := f.spec.Budget
	var rec telemetry.HopRecord
	sampled := false
	if p.spans.Pending() > 0 {
		rec, sampled = p.spans.Finish(del.Packet.ID, at,
			time.Duration(del.RecoveryDelay), budget, del.Via)
	}
	if budget > 0 && time.Duration(lat) > budget {
		if !sampled {
			// Unsampled late delivery: a skeleton record (no component
			// breakdown) still lands in the reservoir, so every budget
			// violation is inspectable even at low sampling rates.
			rec = telemetry.HopRecord{
				Flow: f.id, Seq: del.Packet.ID.Seq,
				SentAt: time.Duration(del.Packet.Sent), DeliveredAt: at,
				Total: time.Duration(lat), Budget: budget, Via: del.Via,
			}
		}
		p.spans.NoteLate(rec)
	}
	if !p.slo.Enabled() || budget <= 0 {
		return
	}
	onTime := time.Duration(lat) <= budget
	w := p.sloWatch(f)
	w.tr.Observe(at, onTime)
	w.lastSent = f.metrics.Sent
	w.lastDelivered = f.metrics.Delivered
	w.lastDeliveryAt = at
	p.sloClassTracker(f.service).Observe(at, onTime)
	if f.tenant != nil {
		p.sloTenantTracker(f.tenant.ID()).Observe(at, onTime)
	}
}

// sloWatch returns (creating on first use) the flow's SLO watch.
func (p *telemetryPlane) sloWatch(f *Flow) *sloFlowWatch {
	w := p.sloFlows[f.id]
	if w == nil {
		w = &sloFlowWatch{
			tr:             telemetry.NewSLOTracker(p.slo),
			lastSent:       f.metrics.Sent,
			lastDelivered:  f.metrics.Delivered,
			lastDeliveryAt: time.Duration(p.d.sim.Now()),
		}
		p.sloFlows[f.id] = w
	}
	return w
}

// sloClassTracker returns (creating on first use) the per-service-class
// tracker; classes aggregate every budgeted flow currently on them.
func (p *telemetryPlane) sloClassTracker(svc core.Service) *telemetry.SLOTracker {
	if p.sloClasses[svc] == nil {
		p.sloClasses[svc] = telemetry.NewSLOTracker(p.slo)
	}
	return p.sloClasses[svc]
}

// sloTenantTracker returns (creating on first use) a tenant's tracker.
func (p *telemetryPlane) sloTenantTracker(id core.TenantID) *telemetry.SLOTracker {
	tr := p.sloTenants[id]
	if tr == nil {
		tr = telemetry.NewSLOTracker(p.slo)
		p.sloTenants[id] = tr
	}
	return tr
}

// sloSweep synthesizes blackhole misses and evaluates every tracker,
// recording a trace event per state transition. Iteration order is
// deterministic (ascending flow ID, class index, registration-ordered
// tenants) — tracker maps are never ranged — so same-seed runs emit
// byte-identical traces. Simulator goroutine only.
func (p *telemetryPlane) sloSweep(now time.Duration) {
	if !p.slo.Enabled() {
		return
	}
	d := p.d
	for id := core.FlowID(1); id < d.nextFlow; id++ {
		f, ok := d.flows[id]
		if !ok || f.spec.Budget <= 0 {
			continue
		}
		w := p.sloWatch(f)
		m := f.metrics
		if m.Delivered != w.lastDelivered {
			// Deliveries advanced since the cursor (observeDelivery keeps
			// it current; this re-syncs after tracker re-creation).
			w.lastSent = m.Sent
			w.lastDelivered = m.Delivered
			w.lastDeliveryAt = now
		} else if m.Sent > w.lastSent {
			// Sends advance, deliveries don't: a blackholed flow never
			// reports misses through recordDelivery, so after a grace of
			// max(2×budget, FastWindow) the stalled packets count as
			// synthetic misses and the burn rate rises as it should.
			grace := 2 * f.spec.Budget
			if p.slo.FastWindow > grace {
				grace = p.slo.FastWindow
			}
			if now-w.lastDeliveryAt > grace {
				w.tr.ObserveMisses(now, int(m.Sent-w.lastSent))
				w.lastSent = m.Sent
			}
		}
		p.sloEval(w.tr, now, telemetry.Event{Flow: id})
	}
	for c := 0; c < telemetry.NumClasses; c++ {
		if tr := p.sloClasses[c]; tr != nil {
			p.sloEval(tr, now, telemetry.Event{Class: core.Service(c)})
		}
	}
	if len(p.sloTenants) > 0 {
		d.tenants.Each(func(t *tenant.Tenant) {
			if tr := p.sloTenants[t.ID()]; tr != nil {
				p.sloEval(tr, now, telemetry.Event{Tenant: t.ID()})
			}
		})
	}
}

// sloEval evaluates one tracker and records the transition, if any. The
// degrade/recover counters move in lockstep with the recorded events —
// the invariant chaos accounting checks.
func (p *telemetryPlane) sloEval(tr *telemetry.SLOTracker, now time.Duration, subj telemetry.Event) {
	trn, ok := tr.Eval(now)
	if !ok {
		return
	}
	subj.Reason = uint8(trn.To)
	subj.V1 = int64(trn.BurnFast * 1e6)
	subj.V2 = int64(trn.BurnSlow * 1e6)
	if trn.To > trn.From {
		subj.Kind = telemetry.KindSLODegrade
		p.sloDegrades++
	} else {
		subj.Kind = telemetry.KindSLORecover
		p.sloRecovers++
	}
	p.d.trace(subj)
}

// spanBegin opens a hop trace for a sampled cloud copy.
func (p *telemetryPlane) spanBegin(id core.PacketID, at core.Time) {
	p.spans.Begin(id, time.Duration(at))
}

// spanDrop abandons a pending trace whose packet died before the wire.
func (p *telemetryPlane) spanDrop(id core.PacketID) { p.spans.Drop(id) }

// spanTxID marks a wire departure for a known-traced packet (ingress
// host, where the sender knows it just sampled).
func (p *telemetryPlane) spanTxID(id core.PacketID, at core.Time) {
	p.spans.NoteTx(id, time.Duration(at))
}

// spanTx marks a wire departure, identifying the packet from its encoded
// header; the integer Pending guard keeps the untraced fast path to one
// comparison before the header peek.
func (p *telemetryPlane) spanTx(msg []byte, at core.Time) {
	if p.spans.Pending() == 0 {
		return
	}
	if id, ok := wire.PeekTrace(msg); ok {
		p.spans.NoteTx(id, time.Duration(at))
	}
}

// spanRx marks a DC arrival, identifying a traced packet from its encoded
// header like spanTx.
func (p *telemetryPlane) spanRx(msg []byte, at core.Time) {
	if p.spans.Pending() == 0 {
		return
	}
	if id, ok := wire.PeekTrace(msg); ok {
		p.spans.NoteRx(id, time.Duration(at))
	}
}

// spanQueue charges one DRR queue wait at (from, to, class).
func (p *telemetryPlane) spanQueue(msg []byte, from, to core.NodeID, class core.Service, wait core.Time) {
	if p.spans.Pending() == 0 {
		return
	}
	if id, ok := wire.PeekTrace(msg); ok {
		p.spans.NoteQueue(id, from, to, class, time.Duration(wait))
	}
}

// spanDropMsg abandons a pending trace identified from its encoded
// message (egress tail drop).
func (p *telemetryPlane) spanDropMsg(msg []byte) {
	if p.spans.Pending() == 0 {
		return
	}
	if id, ok := wire.PeekTrace(msg); ok {
		p.spans.Drop(id)
	}
}

// forgetFlow releases a closing flow's observability state: its spend
// profile (the (link, class) queue aggregates outlive flows) and its
// SLO watch. Class and tenant trackers persist — they aggregate across
// flow churn by design.
func (p *telemetryPlane) forgetFlow(f *Flow) {
	if f.traceEvery > 0 {
		p.tracedFlows--
	}
	p.spans.ForgetFlow(f.id)
	if p.sloFlows != nil {
		delete(p.sloFlows, f.id)
	}
}

// sloSnapshot assembles the SLO section of a snapshot, deterministically
// ordered like the sweep.
func (p *telemetryPlane) sloSnapshot(now time.Duration) telemetry.SLOSnapshot {
	s := telemetry.SLOSnapshot{
		Enabled:  p.slo.Enabled(),
		Degrades: p.sloDegrades,
		Recovers: p.sloRecovers,
	}
	if !s.Enabled {
		return s
	}
	s.Objective = p.slo.Objective
	s.FastWin = p.slo.FastWindow
	s.SlowWin = p.slo.SlowWindow
	d := p.d
	for id := core.FlowID(1); id < d.nextFlow; id++ {
		w, ok := p.sloFlows[id]
		if !ok {
			continue
		}
		e := sloEntry(w.tr, now)
		e.Flow = id
		s.Flows = append(s.Flows, e)
	}
	for c := 0; c < telemetry.NumClasses; c++ {
		tr := p.sloClasses[c]
		if tr == nil {
			continue
		}
		e := sloEntry(tr, now)
		e.Class = core.Service(c)
		s.Classes = append(s.Classes, e)
	}
	if len(p.sloTenants) > 0 {
		d.tenants.Each(func(t *tenant.Tenant) {
			tr := p.sloTenants[t.ID()]
			if tr == nil {
				return
			}
			e := sloEntry(tr, now)
			e.Tenant = t.ID()
			s.Tenants = append(s.Tenants, e)
		})
	}
	return s
}

func sloEntry(tr *telemetry.SLOTracker, now time.Duration) telemetry.SLOEntry {
	e := telemetry.SLOEntry{State: tr.State(), StateName: tr.State().String()}
	e.BurnFast, e.BurnSlow = tr.Burns(now)
	e.FastOK, e.FastMiss, e.SlowOK, e.SlowMiss = tr.Windows(now)
	return e
}

// Snapshot builds, publishes, and returns one coherent view of the whole
// deployment: per-link load (with per-class rollups), per-queue scheduler
// state, per-flow delivery metrics, routing and feedback counters,
// aggregate totals, the metric registry, and trace occupancy — one call
// instead of one poll per subsystem. The timestamp is SIMULATED time.
//
// Snapshot must run on the simulator goroutine (it walks live engine
// state); concurrent readers use LatestSnapshot, which returns the
// immutable published result.
func (d *Deployment) Snapshot() *telemetry.Snapshot {
	return d.tel.build()
}

// LatestSnapshot returns the most recently published snapshot (explicit
// Snapshot call or periodic publisher), nil when none exists yet. Safe
// from any goroutine — this is telemetry.Serve's read path.
func (d *Deployment) LatestSnapshot() *telemetry.Snapshot {
	return d.tel.latest.Load()
}

// TraceEvents returns a copy of the buffered control-loop event trace,
// oldest first. Safe from any goroutine (the ring carries its own lock).
func (d *Deployment) TraceEvents() []telemetry.Event {
	return d.tel.ring.Events(nil)
}

// TraceSince returns up to max buffered trace events with Seq > seq
// (max ≤ 0 means all) — the tailing read telemetry.Serve's /trace uses.
func (d *Deployment) TraceSince(seq uint64, max int) []telemetry.Event {
	return d.tel.ring.Since(nil, seq, max)
}

// build assembles and publishes a snapshot. Simulator goroutine only.
func (p *telemetryPlane) build() *telemetry.Snapshot {
	d := p.d
	now := d.sim.Now()
	s := &telemetry.Snapshot{At: time.Duration(now)}

	// Links, in the registry's sorted pair order.
	for _, pr := range d.loadReg.Pairs() {
		ll, ok := d.loadReg.Load(now, pr[0], pr[1])
		if !ok {
			continue
		}
		ls := telemetry.LinkSnapshot{
			A: ll.A, B: ll.B,
			Capacity:    ll.Capacity,
			Utilization: ll.Utilization,
			AB:          dirSnap(ll.AB),
			BA:          dirSnap(ll.BA),
		}
		s.Links = append(s.Links, ls)
		s.Totals.LinkBytes += ll.AB.Bytes + ll.BA.Bytes
		for c := 0; c < telemetry.NumClasses; c++ {
			s.Totals.ClassBytes[c] += ll.AB.ClassBytes[c] + ll.BA.ClassBytes[c]
		}
	}

	// Egress schedulers, ascending (from, to). Node IDs are dense small
	// integers, so a range scan with map membership checks iterates
	// deterministically without sorting.
	for from := core.NodeID(1); from < d.nextNode; from++ {
		dc, ok := d.dcs[from]
		if !ok || dc.egress == nil {
			continue
		}
		for to := core.NodeID(1); to < d.nextNode; to++ {
			q, ok := dc.egress[to]
			if !ok {
				continue
			}
			st := q.drr.Stats()
			qs := telemetry.QueueSnapshot{
				From: from, To: to,
				Rounds:        st.Rounds,
				QueuedBytes:   st.QueuedBytes,
				QueuedPackets: st.QueuedPackets,
			}
			for c := range st.PerClass {
				cs := st.PerClass[c]
				qs.PerClass[c] = telemetry.ClassQueueSnapshot{
					EnqueuedBytes:   cs.EnqueuedBytes,
					EnqueuedPackets: cs.EnqueuedPackets,
					DequeuedBytes:   cs.DequeuedBytes,
					DequeuedPackets: cs.DequeuedPackets,
					DroppedBytes:    cs.DroppedBytes,
					DroppedPackets:  cs.DroppedPackets,
					QueuedBytes:     cs.QueuedBytes,
					QueuedPackets:   cs.QueuedPackets,
					State:           uint8(cs.State),
					StateChanges:    cs.StateChanges,
					FlowQueues:      cs.FlowQueues,
					VictimDrops:     cs.VictimDrops,
				}
			}
			s.Queues = append(s.Queues, qs)
		}
	}

	// Flows, ascending ID.
	for id := core.FlowID(1); id < d.nextFlow; id++ {
		f, ok := d.flows[id]
		if !ok {
			continue
		}
		fs := flowSnap(f)
		s.Flows = append(s.Flows, fs)
		t := &s.Totals
		t.Flows++
		t.Sent += fs.Sent
		t.SentBytes += fs.SentBytes
		t.Delivered += fs.Delivered
		t.Recovered += fs.Recovered
		t.OnTime += fs.OnTime
		t.AdmissionDropped += fs.AdmissionDropped
		t.EgressDropped += fs.EgressDropped
		t.PacedBytes += fs.PacedBytes
	}

	rt := d.ctrl.Stats()
	s.Routing = telemetry.RoutingSnapshot{
		Recomputes:         rt.Recomputes,
		Pushes:             rt.Pushes,
		RouteChanges:       rt.RouteChanges,
		Reroutes:           rt.Reroutes,
		LinkFailures:       rt.LinkFailures,
		LinkRecoveries:     rt.LinkRecoveries,
		LinkDegrades:       rt.LinkDegrades,
		UtilizationUpdates: rt.UtilizationUpdates,
		CongestionReroutes: rt.CongestionReroutes,
		Unreachable:        rt.Unreachable,
		EpochAdvances:      rt.EpochAdvances,
		EpochRetires:       rt.EpochRetires,
	}

	fb := d.feedbackStats()
	s.Feedback = telemetry.FeedbackSnapshot{
		Enabled:          d.fb != nil,
		Transitions:      fb.Transitions,
		Batches:          fb.Batches,
		SignalsSent:      fb.SignalsSent,
		SignalsLocal:     fb.SignalsLocal,
		SignalsDropped:   fb.SignalsDropped,
		FlowSignals:      fb.FlowSignals,
		HotRefreshes:     fb.HotRefreshes,
		RateCuts:         fb.RateCuts,
		RateRecoveries:   fb.RateRecoveries,
		TenantCuts:       fb.TenantCuts,
		TenantRecoveries: fb.TenantRecoveries,
		PreemptiveMoves:  fb.PreemptiveMoves,
		SubscribedFlows:  fb.SubscribedFlows,
	}

	// Per-tenant slice: each rollup recomputed from the SAME member rows
	// this snapshot carries (s.Flows is ascending), so an auditor holding
	// only the snapshot reproduces every sum bit-exactly.
	if d.tenants.Len() > 0 {
		d.tenants.Each(func(t *tenant.Tenant) {
			s.Tenants = append(s.Tenants, tenantSnap(t, s.Flows))
		})
	}

	s.Totals.EgressBytes = d.TotalEgressBytes()
	s.Totals.CloudCostUSD = d.CloudCost()

	// SLO and attribution assemble BEFORE the trace stats: the sweep may
	// record transition events, and chaos accounting reconciles the
	// Degrades/Recovers counters against the ring's per-kind counts
	// within this one snapshot.
	p.sloSweep(time.Duration(now))
	s.SLO = p.sloSnapshot(time.Duration(now))
	s.Attribution = p.spans.Snapshot()
	s.Attribution.Enabled = p.tracedFlows > 0

	p.snapshots.Inc()
	s.Counters, s.Gauges, s.Histograms = p.reg.Collect()
	s.Trace = p.ring.Stats()

	p.latest.Store(s)
	return s
}

func dirSnap(dl load.DirLoad) telemetry.DirSnapshot {
	out := telemetry.DirSnapshot{
		Rate:     dl.Rate,
		Smoothed: dl.Smoothed,
		Peak:     dl.Peak,
		Bytes:    dl.Bytes,
		Packets:  dl.Packets,
	}
	for c := 0; c < telemetry.NumClasses; c++ {
		out.ClassRate[c] = dl.ByClass[c]
		out.ClassBytes[c] = dl.ClassBytes[c]
		out.ClassPackets[c] = dl.ClassPackets[c]
	}
	return out
}

func flowSnap(f *Flow) telemetry.FlowSnapshot {
	m := f.metrics
	fs := telemetry.FlowSnapshot{
		ID:               f.id,
		Src:              f.src,
		Dsts:             append([]core.NodeID(nil), f.dsts...),
		Service:          f.service,
		ServiceName:      f.service.String(),
		Budget:           f.spec.Budget,
		Path:             append([]core.NodeID(nil), f.activePath...),
		Sent:             m.Sent,
		SentBytes:        m.SentBytes,
		Delivered:        m.Delivered,
		Recovered:        m.Recovered,
		OnTime:           m.OnTime,
		AdmissionDropped: m.AdmissionDropped,
		EgressDropped:    m.EgressDropped,
		PacedBytes:       m.PacedBytes,
		AdmissionRate:    f.AdmissionRate(),
		Throttled:        f.pacer != nil && f.pacer.Throttled(),
		ServiceChanges:   len(f.changes),
		Tenant:           f.spec.Tenant,
	}
	fs.CostPerGB = f.costPerGB(f.service)
	fs.EstCostUSD = float64(m.SentBytes) / 1e9 * fs.CostPerGB
	for svc, n := range m.ByService {
		if int(svc) < telemetry.NumClasses {
			fs.ByService[svc] = n
		}
	}
	if m.Latency.Len() > 0 {
		fs.LatencyMsMean = m.Latency.Mean()
		fs.LatencyMsP50 = m.Latency.Quantile(0.5)
		fs.LatencyMsP95 = m.Latency.Quantile(0.95)
	}
	return fs
}
