// Package overlay models the cloud side of J-QoS: the data centers, the
// latency structure of a deployment (host↔DC δ, inter-DC x, direct path y),
// and the egress cost model used for judicious service selection (§2, §6.6).
package overlay

import (
	"fmt"
	"sort"

	"jqos/internal/core"
	"jqos/internal/dataset"
)

// DC describes one data center in the overlay.
type DC struct {
	ID     core.NodeID
	Name   string
	Region dataset.Region
}

// PathOracle resolves DC-to-DC latency through a routing control plane:
// the routed (possibly multi-hop) one-way latency between two DCs, with
// ok=false when no path currently exists. routing.Controller implements
// it; a Topology without an oracle falls back to its static inter-DC map
// (direct links only).
type PathOracle interface {
	PathLatency(a, b core.NodeID) (core.Time, bool)
}

// Topology is the latency map of a deployment: which DC is near each host,
// δ/x segment latencies, and (estimated, online-updated) direct-path
// latencies between host pairs. All latencies are one-way.
type Topology struct {
	dcs     map[core.NodeID]DC
	order   []core.NodeID // insertion order for deterministic iteration
	interDC map[[2]core.NodeID]core.Time
	nearest map[core.NodeID]core.NodeID
	delta   map[core.NodeID]core.Time
	direct  map[[2]core.NodeID]core.Time
	// Oracle, when set, answers InterDC with routed path latency — so
	// sparse (non-mesh) overlays predict delays and select services for
	// DC pairs with no direct link, and predictions track link health.
	Oracle PathOracle
	// DefaultDirect seeds the direct-path estimate for pairs that have
	// not communicated yet (§3.5: "initially assumed to be average
	// values"). Zero means unknown.
	DefaultDirect core.Time
	// MedianDelta is the typical helper distance used in the coding
	// delay prediction (cooperative recovery contacts other receivers
	// via their own δ). If zero it is derived from registered hosts.
	MedianDelta core.Time
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		dcs:     make(map[core.NodeID]DC),
		interDC: make(map[[2]core.NodeID]core.Time),
		nearest: make(map[core.NodeID]core.NodeID),
		delta:   make(map[core.NodeID]core.Time),
		direct:  make(map[[2]core.NodeID]core.Time),
	}
}

// AddDC registers a data center.
func (t *Topology) AddDC(dc DC) {
	if _, dup := t.dcs[dc.ID]; !dup {
		t.order = append(t.order, dc.ID)
	}
	t.dcs[dc.ID] = dc
}

// DCs returns all data centers in registration order.
func (t *Topology) DCs() []DC {
	out := make([]DC, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.dcs[id])
	}
	return out
}

// IsDC reports whether id names a registered data center.
func (t *Topology) IsDC(id core.NodeID) bool {
	_, ok := t.dcs[id]
	return ok
}

// SetInterDC records the one-way latency between two DCs (both directions).
func (t *Topology) SetInterDC(a, b core.NodeID, x core.Time) {
	t.interDC[[2]core.NodeID{a, b}] = x
	t.interDC[[2]core.NodeID{b, a}] = x
}

// InterDC returns the one-way DC-to-DC latency, or (0, false) if unknown.
// Latency between a DC and itself is zero (partial overlays use one DC).
// With an Oracle installed the answer is the routed path latency (multi-hop
// when no direct link exists, rerouted when links fail); the static map is
// the fallback for oracle-less topologies.
func (t *Topology) InterDC(a, b core.NodeID) (core.Time, bool) {
	if a == b {
		return 0, true
	}
	if t.Oracle != nil {
		if x, ok := t.Oracle.PathLatency(a, b); ok {
			return x, true
		}
		// PathLatency(n, n) is (0, true) exactly when the oracle routes
		// n. If it routes both DCs yet found no path, the overlay is
		// genuinely partitioned — don't fall back to a stale static
		// entry and pretend the pair is reachable.
		_, aKnown := t.Oracle.PathLatency(a, a)
		_, bKnown := t.Oracle.PathLatency(b, b)
		if aKnown && bKnown {
			return 0, false
		}
	}
	x, ok := t.interDC[[2]core.NodeID{a, b}]
	return x, ok
}

// AttachHost binds a host to its nearest DC with one-way latency delta.
func (t *Topology) AttachHost(host, dc core.NodeID, delta core.Time) {
	if !t.IsDC(dc) {
		panic(fmt.Sprintf("overlay: attaching %v to unknown DC %v", host, dc))
	}
	t.nearest[host] = dc
	t.delta[host] = delta
}

// NearestDC returns the DC serving a host, or (0, false) for unknown hosts.
func (t *Topology) NearestDC(host core.NodeID) (core.NodeID, bool) {
	dc, ok := t.nearest[host]
	return dc, ok
}

// Delta returns the one-way host↔DC latency δ for a host.
func (t *Topology) Delta(host core.NodeID) (core.Time, bool) {
	d, ok := t.delta[host]
	return d, ok
}

// Hosts returns the IDs of all attached hosts (sorted, deterministic).
func (t *Topology) Hosts() []core.NodeID {
	out := make([]core.NodeID, 0, len(t.nearest))
	for h := range t.nearest {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetDirect records a measured/estimated one-way direct-path latency
// between two hosts. Updated online as delivery stats arrive (§3.5).
func (t *Topology) SetDirect(src, dst core.NodeID, y core.Time) {
	t.direct[[2]core.NodeID{src, dst}] = y
}

// Direct returns the current direct-path estimate for a host pair, falling
// back to DefaultDirect.
func (t *Topology) Direct(src, dst core.NodeID) core.Time {
	if y, ok := t.direct[[2]core.NodeID{src, dst}]; ok {
		return y
	}
	return t.DefaultDirect
}

// medianHostDelta computes the median δ across attached hosts.
func (t *Topology) medianHostDelta() core.Time {
	if len(t.delta) == 0 {
		return 0
	}
	ds := make([]core.Time, 0, len(t.delta))
	for _, d := range t.delta {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// PredictDelay estimates the end-to-end packet delivery latency of a
// service for the src→dst pair, using the formulas of §6.1:
//
//	internet:   y
//	forwarding: δS + x + δR
//	caching:    y + 2δR + Δ
//	coding:     y + 2δR + 2δ_median + Δ
//
// where Δ = max(0, (δS+x) − (y+δR)) is the wait for the cloud copy.
// The second return is false when the topology lacks the inputs (host not
// attached, no inter-DC entry).
func (t *Topology) PredictDelay(svc core.Service, src, dst core.NodeID) (core.Time, bool) {
	return t.predictDelay(svc, src, dst, 0, false)
}

// PredictDelayOnPath is PredictDelay with an explicit inter-DC latency x
// in place of the oracle's primary-path answer — the prediction a flow
// pinned to an alternate path must use, since its cloud traffic does not
// ride the fastest route.
func (t *Topology) PredictDelayOnPath(svc core.Service, src, dst core.NodeID, x core.Time) (core.Time, bool) {
	return t.predictDelay(svc, src, dst, x, true)
}

func (t *Topology) predictDelay(svc core.Service, src, dst core.NodeID, xOverride core.Time, haveX bool) (core.Time, bool) {
	y := t.Direct(src, dst)
	if svc == core.ServiceInternet {
		return y, y > 0
	}
	dc1, ok1 := t.NearestDC(src)
	dc2, ok2 := t.NearestDC(dst)
	if !ok1 || !ok2 {
		return 0, false
	}
	dS, _ := t.Delta(src)
	dR, _ := t.Delta(dst)
	x := xOverride
	if !haveX {
		var okX bool
		x, okX = t.InterDC(dc1, dc2)
		if !okX {
			return 0, false
		}
	}
	switch svc {
	case core.ServiceForwarding:
		return dS + x + dR, true
	case core.ServiceCaching, core.ServiceCoding:
		if y <= 0 {
			return 0, false
		}
		delta := core.Time(0)
		if cloud, direct := dS+x, y+dR; cloud > direct {
			delta = cloud - direct
		}
		d := y + 2*dR + delta
		if svc == core.ServiceCoding {
			med := t.MedianDelta
			if med == 0 {
				med = t.medianHostDelta()
			}
			d += 2 * med
		}
		return d, true
	default:
		return 0, false
	}
}

// SelectService returns the cheapest service whose predicted delivery
// latency fits the budget (§3.5). The Internet "service" qualifies only if
// the path's estimated loss allows it — lossy below-budget paths still need
// cloud recovery, which is the caller's policy; here Internet is skipped
// whenever requireRecovery is set.
func (t *Topology) SelectService(src, dst core.NodeID, budget core.Time, requireRecovery bool) (core.Service, core.Time, bool) {
	return t.SelectServiceWith(src, dst, ServicePolicy{
		Budget:          budget,
		RequireRecovery: requireRecovery,
	})
}

// ServicePolicy constrains SelectServiceWith beyond the plain latency
// budget: an egress-dollar ceiling under the default cost model and the
// latency of a pinned path — the declarative knobs a FlowSpec exposes.
type ServicePolicy struct {
	// Budget is the delivery-latency budget a service's prediction must
	// fit.
	Budget core.Time
	// RequireRecovery skips plain best-effort Internet even when it fits.
	RequireRecovery bool
	// CostCeilingPerGB bounds the service's egress cost per GB of
	// application data (DefaultCostModel's EgressPerAppGB at zero loss).
	// Zero = unbounded.
	CostCeilingPerGB float64
	// Alpha is the coding overhead ratio used in the cost estimate.
	Alpha float64
	// PathLatency, when positive, replaces the oracle's inter-DC latency
	// in delay predictions — flows pinned to an alternate path select
	// against the latency of the path they will actually ride.
	PathLatency core.Time
}

// SelectServiceWith returns the cheapest service satisfying the policy:
// under the cost ceiling, and with a predicted delivery latency that fits
// the budget.
func (t *Topology) SelectServiceWith(src, dst core.NodeID, p ServicePolicy) (core.Service, core.Time, bool) {
	for _, svc := range core.Services {
		if svc == core.ServiceInternet && p.RequireRecovery {
			continue
		}
		if p.CostCeilingPerGB > 0 &&
			DefaultCostModel.EgressPerAppGB(svc, p.Alpha, 0) > p.CostCeilingPerGB {
			continue
		}
		d, ok := t.predictDelay(svc, src, dst, p.PathLatency, p.PathLatency > 0)
		if ok && d <= p.Budget {
			return svc, d, true
		}
	}
	return 0, 0, false
}
