package telemetry

import (
	"fmt"
	"sync"
	"time"

	"jqos/internal/core"
	"jqos/internal/ring"
)

// Kind classifies one control-loop trace event.
type Kind uint8

// Event kinds. Each documents how the Event's generic V1/V2 payload
// fields are used.
const (
	// KindServiceChange: the adaptation loop moved a flow. Class is the
	// NEW service, V1 the old one, Reason the ServiceChangeReason.
	KindServiceChange Kind = iota
	// KindReroute: a flow's overlay path changed. LinkA/LinkB are the
	// new path's endpoint DCs (zero when no path remains), V1/V2 the
	// old/new path lengths in nodes.
	KindReroute
	// KindCongestionSignal: the feedback plane delivered a watermark
	// transition to a flow. LinkA→LinkB is the congested direction,
	// Class the queue's class, Reason the congestion state
	// (Clear/Warm/Hot), V1 the queued bytes at the transition.
	KindCongestionSignal
	// KindPacerCut: a Hot signal cut a flow's AIMD pacer. V1 is the new
	// admission rate (B/s), V2 the contracted rate.
	KindPacerCut
	// KindPacerRecover: an additive-recovery tick raised a throttled
	// pacer. V1 is the new admission rate (B/s), V2 the contract.
	KindPacerRecover
	// KindAdmissionDrop: the ingress token bucket refused a cloud copy.
	// Class is the flow's service, V1 the copy's wire size in bytes.
	KindAdmissionDrop
	// KindEgressDrop: a DC egress scheduler tail-dropped a copy. Class
	// is the dropped copy's class, V1 its wire size in bytes.
	KindEgressDrop
	// KindBudgetViolation: a delivery window missed the on-time target.
	// V1 is the window's on-time fraction in parts-per-million, V2 the
	// window's delivered count.
	KindBudgetViolation
	// KindTenantQuotaDrop: the tenant's aggregate admission quota refused
	// a cloud copy. Tenant is the tenant, Flow the member flow whose copy
	// dropped, Class its service, V1 the copy's wire size in bytes.
	KindTenantQuotaDrop
	// KindTenantPacerCut: a Hot signal cut a tenant's AGGREGATE pacer —
	// exactly once per delivered signal however many member flows
	// subscribe to the bottleneck. Tenant is the tenant, LinkA→LinkB the
	// congested direction, Class the queue's class, V1 the new aggregate
	// rate (B/s), V2 the quota contract.
	KindTenantPacerCut
	// KindTenantPacerRecover: an additive-recovery tick raised a
	// throttled tenant pacer. Tenant is the tenant, V1 the new aggregate
	// rate (B/s), V2 the quota contract.
	KindTenantPacerRecover
	// KindTenantCostViolation: the tenant's volume-weighted aggregate
	// $/GB broke its contract ceiling; the runtime forced the most
	// expensive adaptive member flow down a tier. Tenant is the tenant,
	// Flow the downgraded member, Class that member's OLD service, V1 the
	// aggregate price in micro-dollars per GB, V2 the ceiling likewise.
	KindTenantCostViolation
	// KindSLODegrade: the continuous SLO engine stepped a tracker's state
	// DOWN (Met→AtRisk, Met→Violated, or AtRisk→Violated). Flow/Tenant/
	// Class identify the tracker (exactly one is meaningful; class
	// trackers set Class with Flow and Tenant zero — data flows are never
	// flow 0). Reason is the NEW SLOState, V1 the fast-window burn rate
	// in parts-per-million, V2 the slow-window burn rate likewise.
	KindSLODegrade
	// KindSLORecover: the SLO engine stepped a tracker's state UP after
	// its ClearHold hysteresis. Same payload as KindSLODegrade; Reason is
	// the NEW (improved) SLOState.
	KindSLORecover

	// NumKinds sizes per-kind count arrays.
	NumKinds = int(KindSLORecover) + 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindServiceChange:
		return "service-change"
	case KindReroute:
		return "reroute"
	case KindCongestionSignal:
		return "congestion-signal"
	case KindPacerCut:
		return "pacer-cut"
	case KindPacerRecover:
		return "pacer-recover"
	case KindAdmissionDrop:
		return "admission-drop"
	case KindEgressDrop:
		return "egress-drop"
	case KindBudgetViolation:
		return "budget-violation"
	case KindTenantQuotaDrop:
		return "tenant-quota-drop"
	case KindTenantPacerCut:
		return "tenant-pacer-cut"
	case KindTenantPacerRecover:
		return "tenant-pacer-recover"
	case KindTenantCostViolation:
		return "tenant-cost-violation"
	case KindSLODegrade:
		return "slo-degrade"
	case KindSLORecover:
		return "slo-recover"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one structured control-loop trace record. It is a fixed-size
// value type with no heap references, so recording one into the ring
// allocates nothing. At is SIMULATED time. V1/V2 are kind-specific
// payloads (see the Kind constants); Reason is the kind-specific cause
// code (ServiceChangeReason for service changes, congestion state for
// signals).
type Event struct {
	Seq    uint64        `json:"seq"`
	At     time.Duration `json:"at"`
	Kind   Kind          `json:"kind"`
	Flow   core.FlowID   `json:"flow,omitempty"`
	Tenant core.TenantID `json:"tenant,omitempty"`
	LinkA  core.NodeID   `json:"link_a,omitempty"`
	LinkB  core.NodeID   `json:"link_b,omitempty"`
	Class  core.Service  `json:"class"`
	Reason uint8         `json:"reason,omitempty"`
	V1     int64         `json:"v1,omitempty"`
	V2     int64         `json:"v2,omitempty"`
}

// Describe renders the event for humans (jqos-stat's trace tail).
func (e Event) Describe() string {
	at := e.At.Round(time.Microsecond)
	switch e.Kind {
	case KindServiceChange:
		return fmt.Sprintf("%-12v flow %d service-change %v→%v (reason %d)", at, e.Flow, core.Service(e.V1), e.Class, e.Reason)
	case KindReroute:
		return fmt.Sprintf("%-12v flow %d reroute %v→%v (path %d→%d nodes)", at, e.Flow, e.LinkA, e.LinkB, e.V1, e.V2)
	case KindCongestionSignal:
		return fmt.Sprintf("%-12v flow %d congestion-signal link %v→%v class %v state %d depth %dB", at, e.Flow, e.LinkA, e.LinkB, e.Class, e.Reason, e.V1)
	case KindPacerCut:
		return fmt.Sprintf("%-12v flow %d pacer-cut rate %dB/s of %dB/s", at, e.Flow, e.V1, e.V2)
	case KindPacerRecover:
		return fmt.Sprintf("%-12v flow %d pacer-recover rate %dB/s of %dB/s", at, e.Flow, e.V1, e.V2)
	case KindAdmissionDrop:
		return fmt.Sprintf("%-12v flow %d admission-drop class %v %dB", at, e.Flow, e.Class, e.V1)
	case KindEgressDrop:
		return fmt.Sprintf("%-12v flow %d egress-drop class %v %dB", at, e.Flow, e.Class, e.V1)
	case KindBudgetViolation:
		return fmt.Sprintf("%-12v flow %d budget-violation on-time %.1f%% over %d delivered", at, e.Flow, float64(e.V1)/1e4, e.V2)
	case KindTenantQuotaDrop:
		return fmt.Sprintf("%-12v %v flow %d tenant-quota-drop class %v %dB", at, e.Tenant, e.Flow, e.Class, e.V1)
	case KindTenantPacerCut:
		return fmt.Sprintf("%-12v %v tenant-pacer-cut link %v→%v class %v rate %dB/s of %dB/s", at, e.Tenant, e.LinkA, e.LinkB, e.Class, e.V1, e.V2)
	case KindTenantPacerRecover:
		return fmt.Sprintf("%-12v %v tenant-pacer-recover rate %dB/s of %dB/s", at, e.Tenant, e.V1, e.V2)
	case KindTenantCostViolation:
		return fmt.Sprintf("%-12v %v tenant-cost-violation flow %d class %v $%.4f/GB over $%.4f/GB", at, e.Tenant, e.Flow, e.Class, float64(e.V1)/1e6, float64(e.V2)/1e6)
	case KindSLODegrade, KindSLORecover:
		return fmt.Sprintf("%-12v %s %v→%v burn fast %.2f slow %.2f", at, sloSubject(e), e.Kind, SLOState(e.Reason), float64(e.V1)/1e6, float64(e.V2)/1e6)
	default:
		return fmt.Sprintf("%-12v flow %d %v", at, e.Flow, e.Kind)
	}
}

// TraceStats summarizes a Ring's activity.
type TraceStats struct {
	// Recorded is the lifetime event count; Dropped of those were
	// overwritten by newer events before being read (Recorded − Dropped
	// ≥ Buffered because readers do not consume).
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	// Buffered / Capacity describe the ring's current occupancy.
	Buffered int `json:"buffered"`
	Capacity int `json:"capacity"`
	// ByKind counts lifetime events per Kind (index = Kind).
	ByKind [NumKinds]uint64 `json:"by_kind"`
}

// Ring is a bounded control-loop event buffer: fixed capacity, overwrite-
// oldest, mutex-protected (lock-light: Record is a few stores under an
// uncontended lock, 0 allocs/op). Events get a monotonically increasing
// Seq at record time, so readers can tail with Since across overwrites.
type Ring struct {
	mu       sync.Mutex
	buf      ring.Ring[Event]
	capacity int
	seq      uint64
	byKind   [NumKinds]uint64
}

// NewRing creates a ring holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	r := &Ring{capacity: max(capacity, 1)}
	r.buf.Reserve(r.capacity)
	return r
}

// Record appends one event, overwriting the oldest when full, and
// returns the sequence number assigned to it. Allocation-free.
func (r *Ring) Record(e Event) uint64 {
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	if int(e.Kind) < NumKinds {
		r.byKind[e.Kind]++
	}
	if r.buf.Len() == r.capacity {
		r.buf.PopFront()
	}
	r.buf.Push(e)
	r.mu.Unlock()
	return e.Seq
}

// Events appends every buffered event (oldest first) to dst and returns
// the extended slice. Reading does not consume.
func (r *Ring) Events(dst []Event) []Event {
	return r.Since(dst, 0, 0)
}

// Since appends the buffered events with Seq > seq (oldest first, up to
// max of them; max ≤ 0 means all) to dst and returns the extended slice.
// max bounds only what this call appends, not what dst already holds.
func (r *Ring) Since(dst []Event, seq uint64, max int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(dst)
	for i := 0; i < r.buf.Len(); i++ {
		e := *r.buf.At(i)
		if e.Seq <= seq {
			continue
		}
		dst = append(dst, e)
		if max > 0 && len(dst)-base >= max {
			break
		}
	}
	return dst
}

// Stats returns the ring's counters.
func (r *Ring) Stats() TraceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return TraceStats{
		Recorded: r.seq,
		Dropped:  r.seq - uint64(r.buf.Len()),
		Buffered: r.buf.Len(),
		Capacity: r.capacity,
		ByKind:   r.byKind,
	}
}
