package jqos

import (
	"slices"
	"time"

	"jqos/internal/core"
	"jqos/internal/feedback"
	"jqos/internal/load"
	"jqos/internal/netem"
	"jqos/internal/overlay"
	"jqos/internal/stats"
	"jqos/internal/telemetry"
	"jqos/internal/tenant"
	"jqos/internal/wire"
)

// FlowMetrics aggregates per-flow delivery accounting, maintained by the
// receiving endpoint and read by experiments and the adaptation loop.
type FlowMetrics struct {
	Sent      uint64
	SentBytes uint64
	Delivered uint64
	Recovered uint64
	OnTime    uint64
	// AdmissionDropped counts cloud copies the flow's token-bucket
	// contract refused. Zero for flows without a Rate contract.
	AdmissionDropped uint64
	// EgressDropped counts copies a DC egress scheduler's class-queue
	// byte cap dropped from the tail (Config.Scheduler) — contention
	// losses inside the overlay, as opposed to AdmissionDropped's
	// contract enforcement at the ingress. Zero with scheduling off.
	EgressDropped uint64
	// PacedBytes counts cloud-copy bytes that crossed the ingress while
	// congestion feedback held the flow's admission rate below its
	// contract (Config.Feedback) — the volume that moved under an
	// active backpressure cut. Zero without a Rate contract or with
	// feedback off.
	PacedBytes uint64
	// ByService counts deliveries by the service that produced them.
	ByService [core.NumServices]uint64
	// Latency is the end-to-end delivery latency in milliseconds, in a
	// bounded histogram: its quantiles are within a relative 2⁻¹² of the
	// exact order statistics; Len, Min, Max and Mean are exact.
	Latency *stats.Histogram
	// DirectLatency is the same for unrecovered (direct-path) deliveries
	// only.
	DirectLatency *stats.Histogram
}

func newFlowMetrics() *FlowMetrics {
	return &FlowMetrics{
		Latency:       &stats.Histogram{},
		DirectLatency: &stats.Histogram{},
	}
}

// LossRate returns 1 − delivered/sent (counts packets never surfaced).
func (m *FlowMetrics) LossRate() float64 {
	if m.Sent == 0 {
		return 0
	}
	return 1 - float64(m.Delivered)/float64(m.Sent)
}

// Flow is one registered application stream.
type Flow struct {
	id      core.FlowID
	d       *Deployment
	src     core.NodeID
	dsts    []core.NodeID // one element for unicast; members for multicast
	cloud   core.NodeID   // cloud-copy destination (receiver or group ID)
	service core.Service
	dc1     *DCNode // the source's home, where cloud copies enter; a host attaches once

	// Declarative intent (normalized at registration) — the single
	// source of truth for budget, fixedness, path policy and the event
	// subscriber. No mirrored copies: accessors and
	// the adaptation loop read through it.
	spec FlowSpec

	// activePath is the resolved overlay DC path (endpoints included):
	// the pinned path for PathCheapest/PathPinned flows, the current
	// primary for PathFastest. Nil when the flow's DCs coincide or no
	// path exists.
	activePath []core.NodeID

	// follow is the DC pair whose primary path the flow follows
	// (PathFastest, or a pinned policy parked with no path; zero when
	// pinned), and primary the last primary seen between them — the
	// post-recompute pass (onRecompute) moves the flow when it changes.
	follow  [2]core.NodeID
	primary []core.NodeID

	// bucket polices the spec's admission contract (nil without one);
	// pacer throttles its refill rate under congestion feedback (nil
	// without a contract or with Config.Feedback off). pacerTimer runs
	// its additive-recovery ticks while it is throttled.
	bucket     *load.Bucket
	pacer      *feedback.Pacer
	pacerTimer *netem.Timer

	// tenant is the flow's customer contract (nil when untenanted): the
	// aggregate quota its cloud copies draw from before the per-flow
	// bucket, the cost budget its spend counts against, and the
	// aggregate pacer congestion signals cut once per tenant.
	tenant *tenant.Tenant

	// preferredPath remembers the path a RepinOnHeal policy chose at
	// registration, so a failed-over flow can return once it heals.
	preferredPath []core.NodeID

	// Settled loss estimate for cost pricing, updated once per
	// adaptation tick from that window's delta counters: the fraction of
	// packets whose copy never ARRIVED over the direct path (receiver
	// DirectArrivals, which counts direct copies even when an
	// overlay-duplicated copy won the delivery race and the direct one
	// deduplicated away). Unlike raw LossRate (cumulative
	// Delivered/Sent), the windowed ratio neither counts in-flight
	// packets as lost nor lets recovery or forwarding mask wire loss.
	lossSentMark uint64
	lossDirMark  uint64
	lossEst      float64

	// closed marks a torn-down flow: Send is a no-op, the adaptation
	// ticker stops, and the deployment no longer tracks it.
	closed bool

	// recvHosts lists the hosts that built receiver state for the flow
	// (destinations, mid-join multicast members, mobility hand-off
	// targets), so Close frees exactly its footprint instead of sweeping
	// every host. slo is its SLO watch (nil until the first budgeted
	// delivery or sweep). Close releases both.
	recvHosts []core.NodeID
	slo       *sloFlowWatch

	// traceEvery selects every Nth cloud copy for hop-level latency
	// attribution (0 = no sampling), derived from FlowSpec.TraceSampling
	// at registration. Deterministic — same seed, same sampled packets.
	traceEvery uint64

	seq     core.Seq
	metrics *FlowMetrics
	changes []ServiceChange

	// adapter decides every service move; Flow feeds it and applies
	// its decisions.
	adapter overlay.Adapter

	// adapt re-evaluates the service against the budget every
	// Config.UpgradeInterval while the flow sends (nil when adaptation
	// is off); Send wakes it.
	adapt *netem.Ticker
}

// ID returns the flow identity.
func (f *Flow) ID() core.FlowID { return f.id }

// Closed reports whether the flow was torn down.
func (f *Flow) Closed() bool { return f.closed }

// Close tears the flow down: the routing controller unpins it (per-flow
// forwarder entries are removed), every receiving endpoint
// returns its recovery state to the host for reuse, the adaptation ticker
// stops, and further Sends are no-ops. Metrics and Changes stay readable,
// but the flow leaves the deployment's open list (Flows, Snapshot,
// TenantStats and every control loop stop visiting it) and late in-flight
// packets are no longer tracked (receivers recreate transient state for
// them and no event is emitted). Nothing per-flow outlives Close in the
// deployment. Close is idempotent — the prerequisite for workloads of
// millions of short-lived flows.
func (f *Flow) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.adapt.Stop()
	d := f.d
	d.ctrl.UnpinFlow(f.id)
	for _, id := range f.recvHosts {
		if h, ok := d.hosts[id]; ok {
			h.core.Drop(f.id)
		}
	}
	f.recvHosts = nil
	// DC1-side encoder state (in-stream queue, cross-queue cursor) must
	// go too, or flow churn grows every encoder map without bound. Any
	// DC may have played DC1 for this flow over its lifetime, and DCs
	// are few — sweep them all. Map order cannot matter: ForgetFlow
	// emits nothing.
	for _, dc := range d.dcs {
		dc.dp.Encoder.ForgetFlow(f.id)
	}
	if d.fb != nil {
		d.fb.reg.Remove(f.id)
	}
	if f.tenant != nil {
		f.tenant.RemoveFlow()
		// A closing member may have been the only subscriber on the
		// bottleneck whose cooling signal would have let the aggregate
		// pacer recover — unfreeze and let the recovery loop decide.
		if pc := f.tenant.Pacer(); pc != nil {
			pc.Unfreeze()
			d.armTenantPacerTick()
		}
	}
	d.open = slices.DeleteFunc(d.open, func(o *Flow) bool { return o == f })
	d.tel.forgetFlow(f)
	f.activePath, f.primary, f.slo = nil, nil, nil
}

// Service returns the currently selected service.
func (f *Flow) Service() core.Service { return f.service }

// Spec returns the normalized registration intent (defensively copied —
// mutating the result does not affect the flow).
func (f *Flow) Spec() FlowSpec {
	sp := f.spec
	sp.Members = append([]NodeID(nil), sp.Members...)
	return sp
}

// Path returns the flow's resolved overlay DC path (endpoints included):
// the pinned path for PathCheapest/PathPinned flows, the primary at the
// last (re)resolution for PathFastest. Nil when the flow's DCs coincide
// or no path exists.
func (f *Flow) Path() []NodeID { return append([]NodeID(nil), f.activePath...) }

// Metrics returns the live metrics (owned by the deployment; read-only
// for callers).
func (f *Flow) Metrics() *FlowMetrics { return f.metrics }

// ObservedLoss returns the flow's settled direct-path loss estimate:
// the windowed fraction of packets the direct path failed to deliver,
// whether a recovery service repaired them or an overlay-forwarded copy
// delivered them anyway. This — not the residual LossRate, which
// working recovery drives to zero — is what the tenant cost loop prices
// caching's pull-response egress with.
func (f *Flow) ObservedLoss() float64 { return f.lossEst }

// Upgrades lists services this flow was upgraded to, in order (derived
// from Changes, which records every transition).
func (f *Flow) Upgrades() []core.Service {
	var ups []core.Service
	for _, ch := range f.changes {
		if ch.To > ch.From {
			ups = append(ups, ch.To)
		}
	}
	return ups
}

// Changes lists every adaptation transition (upgrades and downgrades)
// with virtual timestamps and reasons.
func (f *Flow) Changes() []ServiceChange { return append([]ServiceChange(nil), f.changes...) }

// Send transmits one application packet: a copy on the direct Internet
// path to each destination, plus (by service and duplication policy) a
// copy toward the cloud. Returns the packet's sequence number.
func (f *Flow) Send(payload []byte) core.Seq {
	return f.SendFlagged(payload, 0)
}

// SendFlagged is Send with explicit header flags (the wire.Flag* bits).
// The message is encoded once; per-destination copies only rewrite the
// destination (and, for the cloud copy, the flags). Every copy is a region
// of one allocation, each region its recipient's alone. Sending on a
// closed flow is a no-op returning 0.
func (f *Flow) SendFlagged(payload []byte, flags uint16) core.Seq {
	if f.closed {
		return 0
	}
	f.seq++
	f.d.noteActivity()
	f.adapt.Wake()
	if f.tenant != nil {
		f.d.tenantCost.Wake()
	}
	now := f.d.sim.Now()
	hdr := wire.Header{
		Type:    wire.TypeData,
		Flags:   flags,
		Service: f.service,
		Flow:    f.id,
		Seq:     f.seq,
		TS:      now,
		Src:     f.src,
	}
	f.metrics.Sent++
	f.metrics.SentBytes += uint64(len(payload)) + wire.HeaderLen

	// One backing array holds every copy: a region per direct destination,
	// plus the cloud copy's unless the service is Internet. A region is
	// capacity-limited to one message, so no append reaches a sibling, and
	// one left unused (no route) costs bytes, not an allocation.
	direct := !(f.service == core.ServiceForwarding && f.spec.PathSwitch)
	copies := 0
	if direct {
		copies = len(f.dsts)
	}
	if f.service != core.ServiceInternet {
		copies++
	}
	n := wire.HeaderLen + len(payload)
	var buf []byte
	region := func() []byte {
		if buf == nil {
			buf = make([]byte, copies*n)
		}
		r := buf[:0:n]
		buf = buf[n:]
		return r
	}

	// Direct path copies. The first destination encodes the message; later
	// recipients each get a copy of it with Dst patched. Reading `encoded`
	// after sending it is safe because delivery is deferred: no recipient,
	// the application included, holds it before this call returns.
	var encoded []byte
	if direct {
		for _, dst := range f.dsts {
			if !f.d.net.HasRoute(f.src, dst) {
				continue
			}
			if encoded == nil {
				hdr.Dst = dst
				encoded = wire.AppendMessage(region(), &hdr, payload)
				f.d.net.Send(f.src, dst, encoded)
				continue
			}
			msg := append(region(), encoded...)
			wire.RewriteDst(msg, dst)
			f.d.net.Send(f.src, dst, msg)
		}
	}

	// Cloud copy toward DC1, policed by the admission contract and
	// stamped with DC1's current table epoch: transit DCs resolve it
	// against that table version while it stays live, so a reroute never
	// re-resolves (and reorders) traffic already in the overlay.
	if f.service != core.ServiceInternet {
		cflags := flags | wire.FlagDup | wire.EpochFlags(f.dc1.dp.Forwarder.Epoch())
		// Deterministic trace sampling: every Nth cloud copy is stamped
		// FlagTraced so the choke points downstream record spans for it.
		// The trace opens here, before the ingress contracts, so a copy
		// they drop is counted.
		traced := f.traceEvery > 0 && uint64(f.seq)%f.traceEvery == 0
		if traced {
			cflags |= wire.FlagTraced
		}
		var msg []byte
		if encoded != nil {
			msg = append(region(), encoded...)
			wire.RewriteDst(msg, f.cloud)
			wire.RewriteFlags(msg, cflags)
		} else {
			hdr.Dst = f.cloud
			hdr.Flags = cflags
			msg = wire.AppendMessage(region(), &hdr, payload)
		}
		if traced {
			f.d.tel.spans.Begin(core.PacketID{Flow: f.id, Seq: f.seq}, time.Duration(now))
		}
		f.sendCloud(now, msg, traced)
	}
	return f.seq
}

// sendCloud puts one packet's cloud copy on the uplink, subject first
// to the tenant's aggregate quota and then to the flow's own admission
// contract: no contract sends immediately, a contract polices — the
// excess is dropped. A multicast flow is charged at wire size × member
// count against both contracts: one uplink copy fans out to every
// member, and a contract that priced it as one copy would let a
// thousand-member group consume a thousand times its quota.
func (f *Flow) sendCloud(now core.Time, msg []byte, traced bool) {
	n := len(msg)
	if m := len(f.spec.Members); m > 0 {
		n *= m
	}
	// pid identifies this copy's pending hop trace: abandoned when an
	// ingress contract kills the copy, stamped with the uplink departure
	// when it passes.
	var pid core.PacketID
	if traced {
		pid = core.PacketID{Flow: f.id, Seq: f.seq}
	}
	if f.tenant != nil && !f.tenant.Admit(now, n) {
		if traced {
			f.d.tel.spans.Drop(pid)
		}
		f.noteTenantQuotaDrop(n)
		return
	}
	if f.bucket != nil {
		if !f.bucket.Admit(now, n) {
			if traced {
				f.d.tel.spans.Drop(pid)
			}
			f.noteAdmissionDrop(n)
			return
		}
		// Admitted while congestion feedback holds the flow below its
		// contract rate.
		if f.pacer != nil && f.pacer.Throttled() {
			f.metrics.PacedBytes += uint64(n)
		}
	}
	if traced {
		f.d.tel.spans.NoteTx(pid, time.Duration(now))
	}
	f.d.net.Send(f.src, f.dc1.id, msg)
}

// noteTenantQuotaDrop accounts one cloud copy refused by the tenant's
// aggregate quota — before the flow's own contract saw it, so the
// flow's AdmissionDropped does NOT move; the tenant counts the drop
// itself inside Admit and the trace carries the flow for attribution.
func (f *Flow) noteTenantQuotaDrop(n int) {
	f.emit(telemetry.Event{
		Kind: telemetry.KindTenantQuotaDrop, Tenant: f.tenant.ID(),
		Class: f.service, V1: int64(n),
	})
}

// noteAdmissionDrop accounts one contract-refused cloud copy.
func (f *Flow) noteAdmissionDrop(n int) {
	f.metrics.AdmissionDropped++
	f.emit(telemetry.Event{Kind: telemetry.KindAdmissionDrop, Class: f.service, V1: int64(n)})
}

// recordDelivery updates metrics from the receiving endpoint.
func (f *Flow) recordDelivery(del core.Delivery) {
	m := f.metrics
	m.Delivered++
	if del.Recovered {
		m.Recovered++
	}
	if int(del.Via) < len(m.ByService) { // a forged header may name no service
		m.ByService[del.Via]++
	}
	lat := del.At - del.Packet.Sent
	if lat < 0 {
		lat = 0
	}
	f.d.tel.noteDelivery(lat, f.spec.Budget)
	f.d.tel.observeDelivery(f, del, lat)
	m.Latency.Add(float64(lat) / float64(time.Millisecond))
	if !del.Recovered {
		m.DirectLatency.Add(float64(lat) / float64(time.Millisecond))
	}
	if time.Duration(lat) <= f.spec.Budget {
		m.OnTime++
	}
}

// setService moves the flow to svc, retunes the receivers, and emits the
// change once the flow is consistent again.
func (f *Flow) setService(next core.Service, reason ServiceChangeReason) {
	old := f.service
	if next == old {
		return
	}
	f.service = next
	ch := ServiceChange{At: f.d.sim.Now(), From: old, To: next, Reason: reason}
	f.changes = append(f.changes, ch)
	// Reset the loss-estimate window: epochs under different services
	// have different direct-copy behavior (path-switched forwarding
	// sends none at all), and a window straddling the change would read
	// the mix as phantom loss.
	f.lossSentMark, f.lossDirMark = f.metrics.Sent, f.directArrivals()
	for _, dst := range f.dsts {
		if h, ok := f.d.hosts[dst]; ok {
			if r := h.Receiver(f.id); r != nil {
				r.SetService(next)
			}
		}
	}
	// The service class keys the feedback subscription: a moved flow
	// must hear about its NEW class queue, not the one it left. It also
	// re-sizes the admission contract — the new class's guaranteed
	// share may be far smaller than the one the contract was validated
	// against.
	f.updateFeedbackSub()
	f.resizeContract()
	f.emit(telemetry.Event{
		Kind:  telemetry.KindServiceChange,
		Class: next, Reason: uint8(reason), V1: int64(old),
	})
}

// resizeContract re-validates the admission contract against the
// CURRENT (class, path): registration sized Rate against the class
// share of the path's bottleneck, but the adaptation loop can move the
// flow to a class with a far smaller share, and a reroute can change
// the bottleneck. The effective refill rate becomes min(contracted
// Rate, current class share) — clamped silently (a mid-flight move
// cannot be rejected; policing at the ingress beats guaranteed egress
// tail-drops), restored when the flow returns to a wider class. Spec()
// keeps the registration-time intent; AdmissionRate reports the live
// figure.
func (f *Flow) resizeContract() {
	if f.bucket == nil || !f.d.cfg.Scheduler.Enabled() || f.service == core.ServiceInternet {
		return
	}
	target := f.spec.Rate
	if len(f.activePath) >= 2 {
		if share, ok := f.d.classShareOnNodes(f.service, f.activePath); ok && share < target {
			target = share
		}
	}
	now := f.d.sim.Now()
	if f.pacer != nil {
		f.pacer.SetContract(now, target)
		if f.pacer.Throttled() {
			// A widened contract leaves the current rate below the new
			// ceiling: make sure the recovery ticks are running.
			f.armPacerTick()
		}
	} else if target != f.bucket.Rate() {
		f.bucket.SetRate(now, target)
	}
}

// AdmissionRate returns the admission bucket's current refill rate in
// bytes/second: the contracted Rate, lowered by scheduler-aware
// re-sizing after a service change and by congestion-feedback pacing
// cuts. Zero without a Rate contract.
func (f *Flow) AdmissionRate() int64 {
	if f.bucket == nil {
		return 0
	}
	return f.bucket.Rate()
}

// costPerGB prices a service's egress for this flow using its observed
// loss rate: lost packets become billable pull responses under caching,
// so a lossy flow's caching price rises above the zero-loss estimate
// registration used (no observations existed then). The settled estimate
// (see lossMark/lossEst) is used rather than raw LossRate, which counts
// in-flight packets as lost and would inflate the price with phantom
// loss right after a burst.
func (f *Flow) costPerGB(svc core.Service) float64 {
	return overlay.DefaultCostModel.EgressPerAppGB(svc, f.d.cfg.Encoder.Alpha(), f.lossEst)
}

// predictDelay prices a service on the path the flow actually rides:
// the pinned path's current cost for Cheapest/Pinned policies, the
// oracle's primary otherwise.
func (f *Flow) predictDelay(svc core.Service) (core.Time, bool) {
	if f.spec.Path.Kind != PathFastest && len(f.activePath) >= 2 {
		if x, ok := f.d.ctrl.PathCost(f.activePath); ok {
			return f.d.topo.PredictDelayOnPath(svc, f.src, f.dsts[0], x)
		}
	}
	return f.d.topo.PredictDelay(svc, f.src, f.dsts[0])
}

// directArrivals totals the receivers' direct-path arrival counters
// across the flow's destinations (the loss estimator's raw signal).
func (f *Flow) directArrivals() uint64 {
	var n uint64
	for _, dst := range f.dsts {
		if h, ok := f.d.hosts[dst]; ok {
			if r := h.Receiver(f.id); r != nil {
				n += r.Stats().DirectArrivals
			}
		}
	}
	return n
}

// adaptTick is one adaptation window (§3.5's stats-driven loop): it
// settles the loss estimate, refreshes the topology's direct-latency
// estimate from observations, and applies the adapter's verdict on the
// window.
func (f *Flow) adaptTick() {
	m := f.metrics
	// Settle the loss estimate from direct-path ARRIVALS at the
	// receivers — counted even for copies that deduplicated away after
	// an overlay copy won the race, so neither recovery nor forwarding
	// distorts the wire-loss reading in either direction; arrivals are
	// normalized per destination so multicast fan-out does not mask
	// loss. The marks only advance when a window settles (≥20 packets),
	// so low-rate flows accumulate signal across ticks instead of
	// discarding sub-threshold windows — which would freeze a stale
	// estimate forever. Smoothing halves the boundary error of packets
	// sent just before a tick and arriving just after: phantom loss in
	// one window, clamped over-arrival in the next, converging on the
	// true rate.
	if !(f.service == core.ServiceForwarding && f.spec.PathSwitch) {
		if sentWin := m.Sent - f.lossSentMark; sentWin >= 20 {
			arrivals := f.directArrivals()
			directWin := arrivals - f.lossDirMark
			est := 1 - float64(directWin)/float64(len(f.dsts))/float64(sentWin)
			if est < 0 {
				est = 0
			}
			f.lossEst = (est + f.lossEst) / 2
			f.lossSentMark, f.lossDirMark = m.Sent, arrivals
		}
	} else {
		// Path-switched forwarding sends no direct copies: no signal,
		// keep the previous estimate — but advance the marks so this
		// epoch's packets never enter a later window as phantom loss.
		f.lossSentMark, f.lossDirMark = m.Sent, f.directArrivals()
	}
	if m.DirectLatency.Len() > 0 && len(f.dsts) == 1 {
		med := m.DirectLatency.Median()
		f.d.topo.SetDirect(f.src, f.dsts[0], time.Duration(med*float64(time.Millisecond)))
	}
	dec := f.adapter.Tick(f.adaptInput())
	if dec.Missed {
		// Emitted for fixed flows too — pinning a service is exactly when
		// budget-compliance monitoring matters — and before the upgrade
		// it causes.
		f.emit(telemetry.Event{
			Kind: telemetry.KindBudgetViolation,
			V1:   int64(dec.OnTimeFrac * 1e6), V2: int64(dec.Delivered),
		})
	}
	f.setService(dec.Next, dec.Reason)
}

// adaptInput gathers what the adapter reads: the delivery counts, the
// service and intent, and predictions on the path the flow rides. Plain
// Internet must reach every destination — the prediction speaks for
// dsts[0] only.
func (f *Flow) adaptInput() overlay.AdaptInput {
	return overlay.AdaptInput{
		Delivered: f.metrics.Delivered, OnTime: f.metrics.OnTime,
		Service: f.service, Fixed: f.spec.ServiceFixed, Budget: f.spec.Budget,
		Internet: f.spec.AllowInternet && f.d.internetViable(f.src, f.dsts),
		Now:      f.d.sim.Now(), Predict: f.predictDelay,
	}
}
