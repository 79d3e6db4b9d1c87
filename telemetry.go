package jqos

import (
	"fmt"
	"math"
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
// the package docs' Observability section). Snapshots are built and
// published by Deployment.Snapshot, on demand.
type TelemetryConfig struct {
	// SLO configures the continuous SLO engine: rolling multi-window
	// on-time-fraction tracking per budgeted flow, per service class,
	// and per tenant, with Met/AtRisk/Violated states, hysteresis, and
	// trace events on every transition. Zero Objective disables it; the
	// evaluation ticker parks when traffic stops, like the probers. An
	// Objective of 1 or more leaves no error budget to burn and panics
	// in NewDeploymentWithConfig.
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

// telemetryPlane is the deployment's observability glue: the runtime's
// four standing histograms and its snapshot counter, the control-loop
// trace ring, and the last published snapshot. Snapshot BUILDING walks
// simulator-owned state and runs on the simulator goroutine only; the
// published *telemetry.Snapshot is immutable and read from anywhere
// (telemetry.Serve), and the ring carries its own lock.
type telemetryPlane struct {
	d    *Deployment
	ring *telemetry.Ring

	latest atomic.Pointer[telemetry.Snapshot]

	latencyMs   *telemetry.Histogram
	budgetRatio *telemetry.Histogram
	pacerFrac   *telemetry.Histogram
	queueDepth  *telemetry.Histogram
	snapshots   telemetry.Counter

	// Hop-level latency attribution (spans.go in internal/telemetry).
	// The collector is sim-goroutine-only.
	spans *telemetry.SpanCollector

	// Continuous SLO engine. slo carries defaults when Enabled; trackers
	// are created lazily on the first delivery (flow/class/tenant) and
	// evaluated by the sloSweeper ticker plus every snapshot build. The
	// degrade/recover counters increment exactly when the matching trace
	// event is recorded, so chaos accounting can reconcile them against
	// the ring's per-kind counts.
	slo         telemetry.SLOConfig
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
		d:           d,
		ring:        telemetry.NewRing(traceCapacity),
		latencyMs:   telemetry.NewHistogram("jqos_delivery_latency_ms", "ms", latencyBoundsMs...),
		budgetRatio: telemetry.NewHistogram("jqos_delivery_budget_ratio", "ratio", budgetRatioBounds...),
		pacerFrac:   telemetry.NewHistogram("jqos_pacer_rate_fraction", "ratio", pacerFracBounds...),
		queueDepth:  telemetry.NewHistogram("jqos_egress_queue_depth_bytes", "bytes", queueDepthBounds...),
		spans:       telemetry.NewSpanCollector(),
	}
	// Burn rates divide by the error budget, 1 − Objective: none left
	// makes every burn NaN or +Inf, and the snapshot unencodable.
	if o := cfg.SLO.Objective; o >= 1 || math.IsNaN(o) {
		panic(fmt.Sprintf("jqos: Telemetry.SLO.Objective %v leaves no error budget (want 0 for off, or below 1)", o))
	}
	if cfg.SLO.Enabled() {
		p.slo = cfg.SLO.WithDefaults()
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

// sloElevated reports whether any tracker still sits above Met. The
// ticker must keep sweeping through idle stretches while one does:
// recovery takes two evaluations (one to start the clear hold, one to
// step down after it expires), and parking in between would latch a
// degraded state until the next explicit snapshot. Bounded: with no new
// observations the windows drain, every tracker steps down, and the
// ticker parks.
func (p *telemetryPlane) sloElevated() bool {
	for _, f := range p.d.open {
		if f.slo != nil && f.slo.tr.State() != telemetry.SLOMet {
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

// sloWatch returns the open flow's SLO watch, f.slo, creating it on
// first use; Flow.Close releases it.
func (p *telemetryPlane) sloWatch(f *Flow) *sloFlowWatch {
	if f.slo == nil {
		f.slo = &sloFlowWatch{
			tr:             telemetry.NewSLOTracker(p.slo),
			lastSent:       f.metrics.Sent,
			lastDelivered:  f.metrics.Delivered,
			lastDeliveryAt: time.Duration(p.d.sim.Now()),
		}
	}
	return f.slo
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
	for _, f := range d.open {
		if f.spec.Budget <= 0 {
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
		p.sloEval(w.tr, now, telemetry.Event{Flow: f.id})
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

// tracedID identifies a message's packet when its hop trace is pending.
// The integer Pending guard keeps the untraced fast path to one
// comparison before the header peek.
func (p *telemetryPlane) tracedID(msg []byte) (core.PacketID, bool) {
	if p.spans.Pending() == 0 {
		return core.PacketID{}, false
	}
	return wire.PeekTrace(msg)
}

// spanTx marks a wire departure, identifying the packet from its encoded
// header.
func (p *telemetryPlane) spanTx(msg []byte, at core.Time) {
	if id, ok := p.tracedID(msg); ok {
		p.spans.NoteTx(id, time.Duration(at))
	}
}

// spanRx marks a DC arrival, identifying a traced packet from its encoded
// header like spanTx.
func (p *telemetryPlane) spanRx(msg []byte, at core.Time) {
	if id, ok := p.tracedID(msg); ok {
		p.spans.NoteRx(id, time.Duration(at))
	}
}

// spanQueue charges one DRR queue wait at (from, to, class).
func (p *telemetryPlane) spanQueue(msg []byte, from, to core.NodeID, class core.Service, wait core.Time) {
	if id, ok := p.tracedID(msg); ok {
		p.spans.NoteQueue(id, from, to, class, time.Duration(wait))
	}
}

// spanDropMsg abandons a pending trace identified from its encoded
// message (egress tail drop).
func (p *telemetryPlane) spanDropMsg(msg []byte) {
	if id, ok := p.tracedID(msg); ok {
		p.spans.Drop(id)
	}
}

// forgetFlow releases a closing flow's spend profile (the (link, class)
// queue aggregates outlive flows). Its SLO watch lives on the Flow and
// goes with Close; class and tenant trackers persist — they aggregate
// across flow churn by design.
func (p *telemetryPlane) forgetFlow(f *Flow) { p.spans.ForgetFlow(f.id) }

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
	for _, f := range d.open {
		if f.slo == nil {
			continue
		}
		e := sloEntry(f.slo.tr, now)
		e.Flow = f.id
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
// aggregate totals, the standing metrics, and trace occupancy — one call
// instead of one poll per subsystem. The timestamp is SIMULATED time.
//
// Snapshot must run on the simulator goroutine (it walks live engine
// state); concurrent readers use LatestSnapshot, which returns the
// immutable published result.
func (d *Deployment) Snapshot() *telemetry.Snapshot {
	return d.tel.build()
}

// LatestSnapshot returns the snapshot the last Snapshot call published,
// nil when none exists yet. Safe from any goroutine — this is
// telemetry.Serve's read path.
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

	// Egress schedulers, ascending (from, to).
	d.eachEgress(func(from, to core.NodeID, q *egressQueue) {
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
	})

	// Flows, ascending ID. Attribution is enabled while an open flow
	// samples hop traces.
	n := 0
	for _, f := range d.open {
		n += f.snapNodes()
	}
	nodes := make([]core.NodeID, n)
	traced := false
	for _, f := range d.open {
		traced = traced || f.traceEvery > 0
		fs := flowSnap(f, &nodes)
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

	if fb := d.fb; fb != nil {
		s.Feedback = fb.stats
		s.Feedback.Enabled = true
		s.Feedback.Transitions = fb.bc.Noted()
		s.Feedback.Batches = fb.bc.Flushes()
		for _, f := range d.open {
			if f.fbPath != nil {
				s.Feedback.SubscribedFlows++
			}
		}
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
	s.Attribution.Enabled = traced

	// The standing metrics, each family in ascending name order.
	p.snapshots.Inc()
	s.Counters = []telemetry.CounterSnapshot{{Name: "jqos_snapshots_built_total", Value: p.snapshots.Load()}}
	s.Histograms = []telemetry.HistogramSnapshot{
		p.budgetRatio.Snapshot(),
		p.latencyMs.Snapshot(),
		p.queueDepth.Snapshot(),
		p.pacerFrac.Snapshot(),
	}
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

// flowSnap builds one flow's snapshot row. Its Dsts and Path are cut
// from the front of *nodes, which the caller sizes to the snapNodes of
// every flow it snapshots: one allocation per snapshot, not two per flow.
func flowSnap(f *Flow, nodes *[]core.NodeID) telemetry.FlowSnapshot {
	m := f.metrics
	fs := telemetry.FlowSnapshot{
		ID:               f.id,
		Src:              f.src,
		Dsts:             cutNodes(nodes, f.dsts),
		Service:          f.service,
		ServiceName:      f.service.String(),
		Budget:           f.spec.Budget,
		Path:             cutNodes(nodes, f.activePath),
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
		ServiceChanges:   f.serviceChanges,
		Tenant:           f.spec.Tenant,
		ByService:        m.ByService,
	}
	fs.CostPerGB = f.costPerGB(f.service)
	fs.EstCostUSD = float64(m.SentBytes) / 1e9 * fs.CostPerGB
	if m.Latency.Len() > 0 {
		fs.LatencyMsMean = m.Latency.Mean()
		fs.LatencyMsP50 = m.Latency.Quantile(0.5)
		fs.LatencyMsP95 = m.Latency.Quantile(0.95)
	}
	return fs
}

// snapNodes is how many node IDs flowSnap cuts for f.
func (f *Flow) snapNodes() int { return len(f.dsts) + len(f.activePath) }

// cutNodes copies src to the front of *buf and advances *buf past the
// copy. The copy's capacity ends at its length, so appending to one
// row's list never writes into the next. An empty src stays nil, which
// the JSON encodes as null.
func cutNodes(buf *[]core.NodeID, src []core.NodeID) []core.NodeID {
	if len(src) == 0 {
		return nil
	}
	n := copy(*buf, src)
	out := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return out
}
