// Package overlay models the cloud side of J-QoS: the data centers, the
// latency structure of a deployment (host↔DC δ, inter-DC x, direct path y),
// and the egress cost model used for judicious service selection (§2, §6.6).
package overlay

import (
	"fmt"
	"slices"

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
// it.
type PathOracle interface {
	PathLatency(a, b core.NodeID) (core.Time, bool)
}

// Topology is the latency map of a deployment: which DC is near each host,
// δ/x segment latencies, and (estimated, online-updated) direct-path
// latencies between host pairs. All latencies are one-way.
type Topology struct {
	dcs     map[core.NodeID]DC
	order   []core.NodeID // insertion order for deterministic iteration
	nearest map[core.NodeID]core.NodeID
	delta   map[core.NodeID]core.Time
	// deltas holds every attached host's δ in ascending order, so the
	// coding prediction's median is its middle element, not a sort.
	deltas []core.Time
	direct map[[2]core.NodeID]core.Time
	// oracle answers InterDC with routed path latency — so sparse
	// (non-mesh) overlays predict delays and select services for DC
	// pairs with no direct link, and predictions track link health.
	oracle PathOracle
}

// NewTopology returns an empty topology whose inter-DC latencies come
// from oracle.
func NewTopology(oracle PathOracle) *Topology {
	return &Topology{
		oracle:  oracle,
		dcs:     make(map[core.NodeID]DC),
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

// IsDC reports whether id names a registered data center.
func (t *Topology) IsDC(id core.NodeID) bool {
	_, ok := t.dcs[id]
	return ok
}

// InterDC returns the routed one-way DC-to-DC latency (multi-hop when no
// direct link exists, rerouted when links fail), or (0, false) when no
// path exists. Latency between a DC and itself is zero (partial overlays
// use one DC).
func (t *Topology) InterDC(a, b core.NodeID) (core.Time, bool) {
	if a == b {
		return 0, true
	}
	return t.oracle.PathLatency(a, b)
}

// AttachHost binds a host to its nearest DC with one-way latency delta.
func (t *Topology) AttachHost(host, dc core.NodeID, delta core.Time) {
	if !t.IsDC(dc) {
		panic(fmt.Sprintf("overlay: attaching %v to unknown DC %v", host, dc))
	}
	t.nearest[host] = dc
	if old, ok := t.delta[host]; ok {
		i, _ := slices.BinarySearch(t.deltas, old)
		t.deltas = slices.Delete(t.deltas, i, i+1)
	}
	t.delta[host] = delta
	i, _ := slices.BinarySearch(t.deltas, delta)
	t.deltas = slices.Insert(t.deltas, i, delta)
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

// SetDirect records a measured/estimated one-way direct-path latency
// between two hosts. Updated online as delivery stats arrive (§3.5).
func (t *Topology) SetDirect(src, dst core.NodeID, y core.Time) {
	t.direct[[2]core.NodeID{src, dst}] = y
}

// Direct returns the current direct-path estimate for a host pair, zero
// (unknown) for a pair with no estimate yet.
func (t *Topology) Direct(src, dst core.NodeID) core.Time {
	return t.direct[[2]core.NodeID{src, dst}]
}

// medianHostDelta is the median δ across attached hosts: the typical
// helper distance of the coding delay prediction (cooperative recovery
// contacts other receivers via their own δ).
func (t *Topology) medianHostDelta() core.Time {
	if len(t.deltas) == 0 {
		return 0
	}
	return t.deltas[len(t.deltas)/2]
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
			d += 2 * t.medianHostDelta()
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
// budget: Internet eligibility and the latency of a pinned path.
type ServicePolicy struct {
	// Budget is the delivery-latency budget a service's prediction must
	// fit.
	Budget core.Time
	// RequireRecovery skips plain best-effort Internet even when it fits.
	RequireRecovery bool
	// PathLatency, when positive, replaces the oracle's inter-DC latency
	// in delay predictions — flows pinned to an alternate path select
	// against the latency of the path they will actually ride.
	PathLatency core.Time
}

// SelectServiceWith returns the cheapest service the policy allows whose
// predicted delivery latency fits the budget.
func (t *Topology) SelectServiceWith(src, dst core.NodeID, p ServicePolicy) (core.Service, core.Time, bool) {
	for _, svc := range core.Services {
		if svc == core.ServiceInternet && p.RequireRecovery {
			continue
		}
		d, ok := t.predictDelay(svc, src, dst, p.PathLatency, p.PathLatency > 0)
		if ok && d <= p.Budget {
			return svc, d, true
		}
	}
	return 0, 0, false
}
