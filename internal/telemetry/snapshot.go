package telemetry

import (
	"fmt"
	"strings"
	"time"

	"jqos/internal/core"
)

// NumClasses is the number of service classes in per-class rollups —
// one per J-QoS service, indexed by core.Service.
const NumClasses = core.NumServices

// Snapshot is one coherent, JSON-serializable view of a whole deployment
// at a single instant of SIMULATED time: per-link load, per-queue
// scheduler state, per-flow delivery metrics, routing and feedback
// counters, aggregate totals, the registered metrics, and the trace
// ring's occupancy — one capture instead of one poll per subsystem.
//
// Snapshots are immutable once built: the builder publishes them behind
// an atomic pointer and the HTTP exposition layer only ever reads.
type Snapshot struct {
	// At is the simulated capture time.
	At time.Duration `json:"at"`
	// Links are the tracked inter-DC links in ascending (A, B) order.
	Links []LinkSnapshot `json:"links,omitempty"`
	// Queues are the instantiated egress schedulers in ascending
	// (From, To) order. Empty with scheduling disabled.
	Queues []QueueSnapshot `json:"queues,omitempty"`
	// Flows are the open flows in ascending ID order.
	Flows []FlowSnapshot `json:"flows,omitempty"`
	// Tenants are the registered tenants in ascending ID order (empty
	// when no tenant was ever registered). Per-flow rollups sum over the
	// tenant's member rows in Flows.
	Tenants []TenantSnapshot `json:"tenants,omitempty"`
	// Routing / Feedback mirror the control planes' counters.
	Routing  RoutingSnapshot  `json:"routing"`
	Feedback FeedbackSnapshot `json:"feedback"`
	// Totals are deployment-wide rollups across flows and links.
	Totals Totals `json:"totals"`
	// Counters / Histograms are the runtime's standing metrics, each
	// family sorted by name.
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	// SLO is the continuous SLO engine's view: per-flow, per-class, and
	// per-tenant burn rates and states. Enabled is false when no
	// SLOConfig was set.
	SLO SLOSnapshot `json:"slo"`
	// Attribution is the hop-level latency attribution surface: budget
	// spend profiles per flow and per (link, class) queue, plus the
	// late-delivery reservoir. Enabled is false when no open flow
	// samples traces.
	Attribution AttributionSnapshot `json:"attribution"`
	// Trace is the control-loop event ring's occupancy and per-kind
	// lifetime counts.
	Trace TraceStats `json:"trace"`
}

// Link returns the snapshot row for the inter-DC link a↔b (order
// agnostic). ok is false when the pair was not tracked at capture time.
func (s *Snapshot) Link(a, b core.NodeID) (LinkSnapshot, bool) {
	if a > b {
		a, b = b, a
	}
	for i := range s.Links {
		if s.Links[i].A == a && s.Links[i].B == b {
			return s.Links[i], true
		}
	}
	return LinkSnapshot{}, false
}

// Queue returns the snapshot row for the directed egress scheduler
// from→to. ok is false when no scheduler was instantiated for that
// direction.
func (s *Snapshot) Queue(from, to core.NodeID) (QueueSnapshot, bool) {
	for i := range s.Queues {
		if s.Queues[i].From == from && s.Queues[i].To == to {
			return s.Queues[i], true
		}
	}
	return QueueSnapshot{}, false
}

// DirSnapshot is one link direction's load rollup.
type DirSnapshot struct {
	// Rate / Smoothed / Peak are windowed bytes-per-second readings.
	Rate     float64 `json:"rate"`
	Smoothed float64 `json:"smoothed"`
	Peak     float64 `json:"peak"`
	// Bytes / Packets are lifetime totals, with per-class breakdowns.
	// The class arrays are indexed by core.Service, and their sums equal
	// the direction totals (the rollup invariant tests assert it).
	Bytes        uint64              `json:"bytes"`
	Packets      uint64              `json:"packets"`
	ClassRate    [NumClasses]float64 `json:"class_rate"`
	ClassBytes   [NumClasses]uint64  `json:"class_bytes"`
	ClassPackets [NumClasses]uint64  `json:"class_packets"`
}

// LinkSnapshot is one tracked inter-DC link (A < B as normalized by the
// load registry; AB and BA are the A→B and B→A directions).
type LinkSnapshot struct {
	A           core.NodeID `json:"a"`
	B           core.NodeID `json:"b"`
	Capacity    int64       `json:"capacity"`
	Utilization float64     `json:"utilization"`
	AB          DirSnapshot `json:"ab"`
	BA          DirSnapshot `json:"ba"`
}

// ClassQueueSnapshot is one egress class queue's counters.
type ClassQueueSnapshot struct {
	EnqueuedBytes   uint64 `json:"enqueued_bytes"`
	EnqueuedPackets uint64 `json:"enqueued_packets"`
	DequeuedBytes   uint64 `json:"dequeued_bytes"`
	DequeuedPackets uint64 `json:"dequeued_packets"`
	DroppedBytes    uint64 `json:"dropped_bytes"`
	DroppedPackets  uint64 `json:"dropped_packets"`
	QueuedBytes     int64  `json:"queued_bytes"`
	QueuedPackets   int    `json:"queued_packets"`
	// State is the queue's congestion classification (0 clear, 1 warm,
	// 2 hot); StateChanges counts watermark transitions.
	State        uint8  `json:"state"`
	StateChanges uint64 `json:"state_changes"`
	// FlowQueues is the live per-flow sub-queue count (0 unless per-flow
	// queueing is configured); VictimDrops counts longest-queue victim
	// evictions (a subset of DroppedPackets).
	FlowQueues  int    `json:"flow_queues,omitempty"`
	VictimDrops uint64 `json:"victim_drops,omitempty"`
}

// QueueSnapshot is one directed inter-DC egress scheduler.
type QueueSnapshot struct {
	From          core.NodeID                    `json:"from"`
	To            core.NodeID                    `json:"to"`
	PerClass      [NumClasses]ClassQueueSnapshot `json:"per_class"`
	Rounds        uint64                         `json:"rounds"`
	QueuedBytes   int64                          `json:"queued_bytes"`
	QueuedPackets int                            `json:"queued_packets"`
}

// FlowSnapshot is one open flow's delivery and policing rollup.
type FlowSnapshot struct {
	ID core.FlowID `json:"id"`
	// Tenant is the owning tenant's ID (0 = untenanted).
	Tenant      core.TenantID `json:"tenant,omitempty"`
	Src         core.NodeID   `json:"src"`
	Dsts        []core.NodeID `json:"dsts"`
	Service     core.Service  `json:"service"`
	ServiceName string        `json:"service_name"`
	Budget      time.Duration `json:"budget"`
	Path        []core.NodeID `json:"path,omitempty"`

	Sent             uint64 `json:"sent"`
	SentBytes        uint64 `json:"sent_bytes"`
	Delivered        uint64 `json:"delivered"`
	Recovered        uint64 `json:"recovered"`
	OnTime           uint64 `json:"on_time"`
	AdmissionDropped uint64 `json:"admission_dropped"`
	EgressDropped    uint64 `json:"egress_dropped"`
	PacedBytes       uint64 `json:"paced_bytes"`
	// ByService counts deliveries by the service that produced them.
	ByService [NumClasses]uint64 `json:"by_service"`
	// CostPerGB is the flow's live egress price under the default cost
	// model — its CURRENT service priced at its observed loss, the same
	// figure the tenant cost loop checks. EstCostUSD prices the flow's
	// lifetime application volume at it (SentBytes / 1e9 × CostPerGB) —
	// what the tenant cost budget is enforced against.
	CostPerGB  float64 `json:"cost_per_gb,omitempty"`
	EstCostUSD float64 `json:"est_cost_usd,omitempty"`

	// AdmissionRate is the live bucket refill rate (0 without a
	// contract); Throttled reports an active pacer cut.
	AdmissionRate int64 `json:"admission_rate"`
	Throttled     bool  `json:"throttled"`
	// ServiceChanges counts adaptation transitions so far.
	ServiceChanges int `json:"service_changes"`

	// Delivery-latency summary in milliseconds (zero when nothing
	// delivered yet), read off the flow's latency histogram: the mean is
	// exact, the quantiles are within a relative 2⁻¹² of the exact order
	// statistics.
	LatencyMsMean float64 `json:"latency_ms_mean"`
	LatencyMsP50  float64 `json:"latency_ms_p50"`
	LatencyMsP95  float64 `json:"latency_ms_p95"`
}

// TenantSnapshot is one tenant's contract state and the rollup of its
// member flows. The per-flow sums (Sent … PacedBytes, EstCostUSD) are
// computed by summing the tenant's member rows from
// Snapshot.Flows in ascending flow-ID order, so an auditor holding the
// same snapshot reproduces them exactly; the remaining fields mirror
// the live tenant runtime (quota bucket, aggregate pacer, violation
// counters).
type TenantSnapshot struct {
	ID   core.TenantID `json:"id"`
	Name string        `json:"name,omitempty"`
	// Flows is the tenant's open member-flow count: its member rows.
	Flows int `json:"flows"`

	// Member-flow rollups (sums over Snapshot.Flows rows with this
	// tenant ID; EstCostUSD sums the members' EstCostUSD in the same
	// ascending flow-ID order, so recomputation is bit-exact).
	Sent             uint64  `json:"sent"`
	SentBytes        uint64  `json:"sent_bytes"`
	Delivered        uint64  `json:"delivered"`
	OnTime           uint64  `json:"on_time"`
	AdmissionDropped uint64  `json:"admission_dropped"`
	EgressDropped    uint64  `json:"egress_dropped"`
	PacedBytes       uint64  `json:"paced_bytes"`
	EstCostUSD       float64 `json:"est_cost_usd"`

	// Aggregate admission quota: the contract rate (0 = unmetered) and
	// the copies it refused tenant-wide.
	QuotaRate         int64  `json:"quota_rate"`
	QuotaDropped      uint64 `json:"quota_dropped"`
	QuotaDroppedBytes uint64 `json:"quota_dropped_bytes"`

	// Aggregate pacer: the applied rate (== the contract when
	// unthrottled), whether any bottleneck is currently tracked, and the
	// lifetime cut/recovery counts — one cut per delivered signal, NOT
	// one per member flow.
	PacerRate       int64  `json:"pacer_rate,omitempty"`
	Throttled       bool   `json:"throttled"`
	HotLinks        int    `json:"hot_links,omitempty"`
	PacerCuts       uint64 `json:"pacer_cuts"`
	PacerRecoveries uint64 `json:"pacer_recoveries"`

	// Cost budget: the contract ceiling ($/GB, 0 = unbudgeted), the
	// observed volume-weighted aggregate price, and how many times the
	// budget tick forced a member downgrade.
	CostCeilingPerGB float64 `json:"cost_ceiling_per_gb,omitempty"`
	CostPerGB        float64 `json:"cost_per_gb,omitempty"`
	CostViolations   uint64  `json:"cost_violations"`
}

// RoutingSnapshot mirrors the routing controller's counters.
type RoutingSnapshot struct {
	Recomputes uint64 `json:"recomputes"`
	// IncrementalRecomputes always reads 0: every recompute runs one
	// Dijkstra per source, and no delta engine serves a part of them. The
	// field stays because the benchmark's routing.incremental_frac reads
	// it.
	IncrementalRecomputes uint64 `json:"incremental_recomputes"`
	Pushes                uint64 `json:"pushes"`
	RouteChanges          uint64 `json:"route_changes"`
	Reroutes              uint64 `json:"reroutes"`
	LinkFailures          uint64 `json:"link_failures"`
	LinkRecoveries        uint64 `json:"link_recoveries"`
	LinkDegrades          uint64 `json:"link_degrades"`
	UtilizationUpdates    uint64 `json:"utilization_updates"`
	CongestionReroutes    uint64 `json:"congestion_reroutes"`
	Unreachable           int    `json:"unreachable"`
	// EpochAdvances / EpochRetires count make-before-break table versions
	// opened and drained (an advance without a matching retire yet means
	// a drain window is in flight).
	EpochAdvances uint64 `json:"epoch_advances"`
	EpochRetires  uint64 `json:"epoch_retires"`
}

// FeedbackSnapshot is the congestion-feedback plane's activity; all zero
// when feedback is off.
type FeedbackSnapshot struct {
	Enabled bool `json:"enabled"`
	// Transitions counts watermark flips noted at the egress schedulers;
	// Batches counts the signal-plane flushes that carried them.
	Transitions uint64 `json:"transitions"`
	Batches     uint64 `json:"batches"`
	// SignalsSent counts congestion messages sent toward remote ingress
	// DCs, SignalsLocal transitions delivered at the detecting DC itself,
	// SignalsDropped signals with no route to their ingress.
	SignalsSent    uint64 `json:"signals_sent"`
	SignalsLocal   uint64 `json:"signals_local"`
	SignalsDropped uint64 `json:"signals_dropped"`
	// FlowSignals counts per-flow notifications (one signal fans out to
	// every subscribed flow at the ingress).
	FlowSignals uint64 `json:"flow_signals"`
	// HotRefreshes counts re-announcements of queues that stay Hot:
	// transitions are edges, so a standing backlog is re-signalled.
	HotRefreshes uint64 `json:"hot_refreshes"`
	// RateCuts / RateRecoveries count flow-pacer AIMD actions.
	RateCuts       uint64 `json:"rate_cuts"`
	RateRecoveries uint64 `json:"rate_recoveries"`
	// Aggregate tenant-pacer actions: one cut per delivered signal per
	// tenant, not per member flow.
	TenantCuts       uint64 `json:"tenant_cuts,omitempty"`
	TenantRecoveries uint64 `json:"tenant_recoveries,omitempty"`
	// PreemptiveMoves counts congestion-driven service changes of
	// unpaced flows.
	PreemptiveMoves uint64 `json:"preemptive_moves"`
	// SubscribedFlows counts the open flows that hear congestion
	// signals: those with an announced inter-DC path.
	SubscribedFlows int `json:"subscribed_flows"`
}

// Totals are deployment-wide rollups.
type Totals struct {
	// Flows is the open-flow count (closed flows leave the snapshot).
	Flows int `json:"flows"`
	// Per-flow metric sums across open flows.
	Sent             uint64 `json:"sent"`
	SentBytes        uint64 `json:"sent_bytes"`
	Delivered        uint64 `json:"delivered"`
	Recovered        uint64 `json:"recovered"`
	OnTime           uint64 `json:"on_time"`
	AdmissionDropped uint64 `json:"admission_dropped"`
	EgressDropped    uint64 `json:"egress_dropped"`
	PacedBytes       uint64 `json:"paced_bytes"`
	// LinkBytes sums lifetime bytes across every tracked link direction,
	// with ClassBytes the per-class breakdown (sums match: the load
	// meters account total and class together).
	LinkBytes  uint64             `json:"link_bytes"`
	ClassBytes [NumClasses]uint64 `json:"class_bytes"`
	// EgressBytes is billable cloud egress; CloudCostUSD prices it under
	// the default cost model.
	EgressBytes  uint64  `json:"egress_bytes"`
	CloudCostUSD float64 `json:"cloud_cost_usd"`
}

// humanBytes renders a byte count compactly (binary-ish, base 1000 —
// operator eyeballs, not accounting).
func humanBytes(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1f kB", b/1e3)
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

// Summary renders the snapshot as a compact operator report — the
// examples' exit report and jqos-stat's default output.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	t := s.Totals
	fmt.Fprintf(&b, "jqos @ %v: %d flows, %d sent / %d delivered (%s), cloud egress %s ($%.4f)\n",
		s.At, t.Flows, t.Sent, t.Delivered, onTimeText(t.Sent, t.Delivered, t.OnTime),
		humanBytes(float64(t.EgressBytes)), t.CloudCostUSD)
	for _, l := range s.Links {
		fmt.Fprintf(&b, "  link %v↔%v: cap %s/s, util %.0f%%, %v→%v %s%s, %v→%v %s%s\n",
			l.A, l.B, humanBytes(float64(l.Capacity)), 100*l.Utilization,
			l.A, l.B, humanBytes(float64(l.AB.Bytes)), classBreakdown(l.AB.ClassBytes),
			l.B, l.A, humanBytes(float64(l.BA.Bytes)), classBreakdown(l.BA.ClassBytes))
	}
	for _, q := range s.Queues {
		fmt.Fprintf(&b, "  queue %v→%v: depth %s, %d rounds", q.From, q.To, humanBytes(float64(q.QueuedBytes)), q.Rounds)
		for c := range q.PerClass {
			cs := q.PerClass[c]
			if cs.EnqueuedPackets == 0 && cs.DroppedPackets == 0 {
				continue
			}
			fmt.Fprintf(&b, ", %v %d out / %d dropped", core.Service(c), cs.DequeuedPackets, cs.DroppedPackets)
		}
		b.WriteByte('\n')
	}
	for _, tn := range s.Tenants {
		fmt.Fprintf(&b, "  tenant %d", tn.ID)
		if tn.Name != "" {
			fmt.Fprintf(&b, " (%s)", tn.Name)
		}
		fmt.Fprintf(&b, ": %d flows, %d sent, %s, %s sent ($%.4f est)",
			tn.Flows, tn.Sent, onTimeText(tn.Sent, tn.Delivered, tn.OnTime),
			humanBytes(float64(tn.SentBytes)), tn.EstCostUSD)
		if tn.QuotaRate > 0 {
			fmt.Fprintf(&b, ", quota %s/s", humanBytes(float64(tn.QuotaRate)))
			if tn.QuotaDropped > 0 {
				fmt.Fprintf(&b, " (%d refused)", tn.QuotaDropped)
			}
		}
		if tn.Throttled {
			fmt.Fprintf(&b, ", PACED to %s/s over %d hot", humanBytes(float64(tn.PacerRate)), tn.HotLinks)
		}
		if tn.PacerCuts > 0 {
			fmt.Fprintf(&b, ", %d cuts / %d recoveries", tn.PacerCuts, tn.PacerRecoveries)
		}
		if tn.CostCeilingPerGB > 0 {
			fmt.Fprintf(&b, ", $%.4f/GB of $%.4f/GB cap", tn.CostPerGB, tn.CostCeilingPerGB)
			if tn.CostViolations > 0 {
				fmt.Fprintf(&b, " (%d violations)", tn.CostViolations)
			}
		}
		b.WriteByte('\n')
	}
	for _, f := range s.Flows {
		fmt.Fprintf(&b, "  flow %d (%s): %d sent, %s, p95 %.1f ms", f.ID, f.ServiceName, f.Sent, onTimeText(f.Sent, f.Delivered, f.OnTime), f.LatencyMsP95)
		if f.AdmissionDropped > 0 {
			fmt.Fprintf(&b, ", adm-drop %d", f.AdmissionDropped)
		}
		if f.EgressDropped > 0 {
			fmt.Fprintf(&b, ", egress-drop %d", f.EgressDropped)
		}
		if f.PacedBytes > 0 {
			fmt.Fprintf(&b, ", paced %s", humanBytes(float64(f.PacedBytes)))
		}
		if f.ServiceChanges > 0 {
			fmt.Fprintf(&b, ", %d service changes", f.ServiceChanges)
		}
		b.WriteByte('\n')
	}
	r := s.Routing
	fmt.Fprintf(&b, "  routing: %d recomputes, %d reroutes, %d failures / %d recoveries, %d congestion reroutes\n",
		r.Recomputes, r.Reroutes, r.LinkFailures, r.LinkRecoveries, r.CongestionReroutes)
	if s.Feedback.Enabled {
		fb := s.Feedback
		fmt.Fprintf(&b, "  feedback: %d transitions → %d batches, %d flow signals, %d cuts / %d recoveries, %d preemptive moves\n",
			fb.Transitions, fb.Batches, fb.FlowSignals, fb.RateCuts, fb.RateRecoveries, fb.PreemptiveMoves)
	}
	if s.SLO.Enabled {
		fmt.Fprintf(&b, "  slo: objective %.1f%% (fast %v / slow %v), %d degrades / %d recovers\n",
			100*s.SLO.Objective, s.SLO.FastWin, s.SLO.SlowWin, s.SLO.Degrades, s.SLO.Recovers)
		for _, e := range s.SLO.Flows {
			fmt.Fprintf(&b, "    flow %d: %s, burn fast %.2f slow %.2f (%d/%d miss fast, %d/%d slow)\n",
				e.Flow, e.StateName, e.BurnFast, e.BurnSlow,
				e.FastMiss, e.FastOK+e.FastMiss, e.SlowMiss, e.SlowOK+e.SlowMiss)
		}
		for _, e := range s.SLO.Classes {
			fmt.Fprintf(&b, "    class %v: %s, burn fast %.2f slow %.2f\n", e.Class, e.StateName, e.BurnFast, e.BurnSlow)
		}
		for _, e := range s.SLO.Tenants {
			fmt.Fprintf(&b, "    tenant %d: %s, burn fast %.2f slow %.2f\n", e.Tenant, e.StateName, e.BurnFast, e.BurnSlow)
		}
	}
	if a := &s.Attribution; a.Enabled || a.LateDeliveries > 0 {
		fmt.Fprintf(&b, "  attribution: %d traced / %d finished / %d dropped / %d evicted, %d pending, %d late\n",
			a.Traced, a.Finished, a.Dropped, a.Evicted, a.Pending, a.LateDeliveries)
		for _, fsp := range a.Flows {
			p := fsp.Profile
			fmt.Fprintf(&b, "    flow %d spend (%d samples, %d late):", fsp.Flow, p.Samples, p.Late)
			for c := 0; c < NumSpanComponents; c++ {
				if p.Ns[c] == 0 {
					continue
				}
				fmt.Fprintf(&b, " %v %.0f%%", SpanComponent(c), 100*p.Share(SpanComponent(c)))
			}
			b.WriteByte('\n')
		}
		for _, qs := range a.Queues {
			mean := time.Duration(0)
			if qs.Spend.Samples > 0 {
				mean = time.Duration(qs.Spend.WaitNs / int64(qs.Spend.Samples))
			}
			fmt.Fprintf(&b, "    queue %v→%v %v: %d waits, mean %v, %d late\n",
				qs.Key.From, qs.Key.To, qs.Key.Class, qs.Spend.Samples, mean.Round(time.Microsecond), qs.Spend.Late)
		}
	}
	if s.Trace.Recorded > 0 {
		fmt.Fprintf(&b, "  trace: %d events (%d buffered of %d cap)", s.Trace.Recorded, s.Trace.Buffered, s.Trace.Capacity)
		for k := 0; k < NumKinds; k++ {
			if n := s.Trace.ByKind[k]; n > 0 {
				fmt.Fprintf(&b, ", %v %d", Kind(k), n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// onTimeText renders a delivery set's on-time share, distinguishing "no
// deliveries" (sent but nothing surfaced — NOT a healthy 100%) from a
// true on-time fraction.
func onTimeText(sent, delivered, onTime uint64) string {
	if delivered == 0 {
		if sent > 0 {
			return "no deliveries"
		}
		return "idle"
	}
	return fmt.Sprintf("%.1f%% on time", 100*float64(onTime)/float64(delivered))
}

// classBreakdown renders nonzero per-class byte totals as a bracketed
// suffix (empty when the direction carried nothing).
func classBreakdown(bytes [NumClasses]uint64) string {
	var parts []string
	for c, n := range bytes {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%v %s", core.Service(c), humanBytes(float64(n))))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, " | ") + "]"
}
