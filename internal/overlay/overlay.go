// Package overlay models the cloud side of J-QoS: the latency structure of
// a deployment (host↔DC δ, inter-DC x, direct path y) and the egress cost
// model used for judicious service selection (§2, §6.6). Which DC is a
// host's home, and how far apart two DCs are, it asks the routing control
// plane (PathOracle).
package overlay

import (
	"slices"

	"jqos/internal/core"
)

// PathOracle is the routing control plane as the topology reads it:
// PathLatency is the routed (possibly multi-hop) one-way latency between
// two DCs, with ok=false when no path currently exists, and Home the DC a
// host was attached to. routing.Controller implements it.
type PathOracle interface {
	PathLatency(a, b core.NodeID) (core.Time, bool)
	Home(host core.NodeID) (core.NodeID, bool)
}

// Topology is the latency map of a deployment: δ/x segment latencies and
// (estimated, online-updated) direct-path latencies between host pairs.
// All latencies are one-way.
type Topology struct {
	delta map[core.NodeID]core.Time
	// deltas holds every attached host's δ in ascending order, so the
	// coding prediction's median is its middle element, not a sort.
	deltas []core.Time
	direct map[[2]core.NodeID]core.Time
	// oracle answers InterDC with routed path latency — so sparse
	// (non-mesh) overlays predict delays and select services for DC
	// pairs with no direct link, and predictions track link health — and
	// each host's home DC.
	oracle PathOracle
}

// NewTopology returns an empty topology whose homes and inter-DC
// latencies come from oracle.
func NewTopology(oracle PathOracle) *Topology {
	return &Topology{
		oracle: oracle,
		delta:  make(map[core.NodeID]core.Time),
		direct: make(map[[2]core.NodeID]core.Time),
	}
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

// AttachHost records a host's one-way latency delta to its home DC.
func (t *Topology) AttachHost(host core.NodeID, delta core.Time) {
	if old, ok := t.delta[host]; ok {
		i, _ := slices.BinarySearch(t.deltas, old)
		t.deltas = slices.Delete(t.deltas, i, i+1)
	}
	t.delta[host] = delta
	i, _ := slices.BinarySearch(t.deltas, delta)
	t.deltas = slices.Insert(t.deltas, i, delta)
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
	dS, okS := t.Delta(src)
	dR, okR := t.Delta(dst)
	dc1, ok1 := t.oracle.Home(src)
	dc2, ok2 := t.oracle.Home(dst)
	if !okS || !okR || !ok1 || !ok2 {
		return 0, false
	}
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
