package overlay

import (
	"math"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/dataset"
)

// buildTestTopology makes a 2-DC full overlay:
//
//	host 10 —5ms— DC1(1) —40ms— DC2(2) —10ms— host 20, direct 10→20 = 50ms.
func buildTestTopology() *Topology {
	t := NewTopology()
	t.AddDC(DC{ID: 1, Name: "us-east-1", Region: dataset.RegionUSEast})
	t.AddDC(DC{ID: 2, Name: "eu-west-1", Region: dataset.RegionEU})
	t.SetInterDC(1, 2, 40*time.Millisecond)
	t.AttachHost(10, 1, 5*time.Millisecond)
	t.AttachHost(20, 2, 10*time.Millisecond)
	t.SetDirect(10, 20, 50*time.Millisecond)
	return t
}

func TestTopologyAccessors(t *testing.T) {
	top := buildTestTopology()
	if !top.IsDC(1) || top.IsDC(10) {
		t.Error("IsDC wrong")
	}
	if dcs := top.DCs(); len(dcs) != 2 || dcs[0].Name != "us-east-1" {
		t.Errorf("DCs = %+v", dcs)
	}
	if dc, ok := top.NearestDC(10); !ok || dc != 1 {
		t.Errorf("NearestDC(10) = %v %v", dc, ok)
	}
	if _, ok := top.NearestDC(99); ok {
		t.Error("unknown host has a nearest DC")
	}
	if d, ok := top.Delta(20); !ok || d != 10*time.Millisecond {
		t.Errorf("Delta(20) = %v", d)
	}
	if x, ok := top.InterDC(1, 2); !ok || x != 40*time.Millisecond {
		t.Errorf("InterDC = %v", x)
	}
	if x, ok := top.InterDC(2, 1); !ok || x != 40*time.Millisecond {
		t.Errorf("InterDC reverse = %v", x)
	}
	if x, ok := top.InterDC(1, 1); !ok || x != 0 {
		t.Errorf("InterDC self = %v %v", x, ok)
	}
	if _, ok := top.InterDC(1, 99); ok {
		t.Error("unknown DC pair resolved")
	}
	if hosts := top.Hosts(); len(hosts) != 2 || hosts[0] != 10 || hosts[1] != 20 {
		t.Errorf("Hosts = %v", hosts)
	}
}

func TestAttachHostUnknownDCPanics(t *testing.T) {
	top := NewTopology()
	defer func() {
		if recover() == nil {
			t.Error("attach to unknown DC did not panic")
		}
	}()
	top.AttachHost(10, 1, time.Millisecond)
}

func TestDirectFallback(t *testing.T) {
	top := buildTestTopology()
	top.DefaultDirect = 77 * time.Millisecond
	if y := top.Direct(10, 20); y != 50*time.Millisecond {
		t.Errorf("known pair = %v", y)
	}
	if y := top.Direct(20, 10); y != 77*time.Millisecond {
		t.Errorf("unknown pair = %v, want default", y)
	}
}

func TestPredictDelayFormulas(t *testing.T) {
	top := buildTestTopology()
	top.MedianDelta = 8 * time.Millisecond
	// internet: y = 50.
	if d, ok := top.PredictDelay(core.ServiceInternet, 10, 20); !ok || d != 50*time.Millisecond {
		t.Errorf("internet = %v %v", d, ok)
	}
	// forwarding: 5+40+10 = 55.
	if d, ok := top.PredictDelay(core.ServiceForwarding, 10, 20); !ok || d != 55*time.Millisecond {
		t.Errorf("forwarding = %v %v", d, ok)
	}
	// Δ = (5+40)−(50+10) < 0 → 0; caching: 50+20 = 70.
	if d, ok := top.PredictDelay(core.ServiceCaching, 10, 20); !ok || d != 70*time.Millisecond {
		t.Errorf("caching = %v %v", d, ok)
	}
	// coding: 70 + 2·8 = 86.
	if d, ok := top.PredictDelay(core.ServiceCoding, 10, 20); !ok || d != 86*time.Millisecond {
		t.Errorf("coding = %v %v", d, ok)
	}
}

func TestPredictDelayWaitDelta(t *testing.T) {
	top := buildTestTopology()
	// Make the direct path fast so the cloud copy lags: y = 20ms.
	// Δ = (5+40) − (20+10) = 15ms; caching = 20+20+15 = 55.
	top.SetDirect(10, 20, 20*time.Millisecond)
	if d, ok := top.PredictDelay(core.ServiceCaching, 10, 20); !ok || d != 55*time.Millisecond {
		t.Errorf("caching with Δ = %v", d)
	}
}

func TestPredictDelayMedianDerived(t *testing.T) {
	top := buildTestTopology()
	// MedianDelta unset → derived from host deltas {5,10} → 10ms.
	d, ok := top.PredictDelay(core.ServiceCoding, 10, 20)
	if !ok || d != (70+20)*time.Millisecond {
		t.Errorf("coding with derived median = %v %v", d, ok)
	}
}

func TestPredictDelayMissingInputs(t *testing.T) {
	top := buildTestTopology()
	if _, ok := top.PredictDelay(core.ServiceForwarding, 99, 20); ok {
		t.Error("unattached src predicted")
	}
	if _, ok := top.PredictDelay(core.ServiceInternet, 20, 10); ok {
		t.Error("internet with no y estimate should be unknown")
	}
	if _, ok := top.PredictDelay(core.ServiceCaching, 20, 10); ok {
		t.Error("caching with no y estimate should be unknown")
	}
	top2 := NewTopology()
	top2.AddDC(DC{ID: 1})
	top2.AddDC(DC{ID: 2})
	top2.AttachHost(10, 1, time.Millisecond)
	top2.AttachHost(20, 2, time.Millisecond)
	top2.SetDirect(10, 20, time.Millisecond)
	if _, ok := top2.PredictDelay(core.ServiceForwarding, 10, 20); ok {
		t.Error("missing inter-DC latency predicted")
	}
}

// fakeOracle answers PathLatency from a fixed table; nodes list which IDs
// it claims to route.
type fakeOracle struct {
	nodes map[core.NodeID]bool
	paths map[[2]core.NodeID]core.Time
}

func (o *fakeOracle) PathLatency(a, b core.NodeID) (core.Time, bool) {
	if a == b {
		return 0, o.nodes[a]
	}
	x, ok := o.paths[[2]core.NodeID{a, b}]
	return x, ok
}

func TestInterDCDelegatesToOracle(t *testing.T) {
	top := buildTestTopology()
	top.AddDC(DC{ID: 3, Name: "ap-south"})
	// No SetInterDC(1,3): without an oracle the pair is unknown.
	if _, ok := top.InterDC(1, 3); ok {
		t.Fatal("oracle-less sparse pair resolved")
	}
	oracle := &fakeOracle{
		nodes: map[core.NodeID]bool{1: true, 2: true, 3: true},
		paths: map[[2]core.NodeID]core.Time{
			{1, 3}: 90 * time.Millisecond, // routed multi-hop
			{1, 2}: 35 * time.Millisecond, // faster than the 40ms static entry
		},
	}
	top.Oracle = oracle
	// Routed latency answers sparse pairs and overrides static entries.
	if x, ok := top.InterDC(1, 3); !ok || x != 90*time.Millisecond {
		t.Errorf("InterDC(1,3) = %v %v, want routed 90ms", x, ok)
	}
	if x, ok := top.InterDC(1, 2); !ok || x != 35*time.Millisecond {
		t.Errorf("InterDC(1,2) = %v %v, want routed 35ms", x, ok)
	}
	// Both DCs routed but no path → partitioned, NOT the static fallback.
	delete(oracle.paths, [2]core.NodeID{1, 2})
	if _, ok := top.InterDC(1, 2); ok {
		t.Error("partitioned pair fell back to the static entry")
	}
	// A pair the oracle does not route falls back to the static map.
	delete(oracle.nodes, 2)
	if x, ok := top.InterDC(1, 2); !ok || x != 40*time.Millisecond {
		t.Errorf("fallback InterDC(1,2) = %v %v, want static 40ms", x, ok)
	}
	// PredictDelay follows: forwarding over the routed path.
	top.AttachHost(30, 3, 7*time.Millisecond)
	top.Oracle = oracle
	if d, ok := top.PredictDelay(core.ServiceForwarding, 10, 30); !ok || d != (5+90+7)*time.Millisecond {
		t.Errorf("forwarding via oracle = %v %v, want 102ms", d, ok)
	}
}

func TestSelectServicePicksCheapest(t *testing.T) {
	top := buildTestTopology()
	top.MedianDelta = 8 * time.Millisecond
	// Delays: internet 50, coding 86, caching 70, forwarding 55.
	cases := []struct {
		budget  core.Time
		require bool
		want    core.Service
		ok      bool
	}{
		{200 * time.Millisecond, true, core.ServiceCoding, true},
		{80 * time.Millisecond, true, core.ServiceCaching, true},
		{60 * time.Millisecond, true, core.ServiceForwarding, true},
		{60 * time.Millisecond, false, core.ServiceInternet, true},
		{10 * time.Millisecond, true, 0, false},
	}
	for _, c := range cases {
		svc, d, ok := top.SelectService(10, 20, c.budget, c.require)
		if ok != c.ok || (ok && svc != c.want) {
			t.Errorf("budget %v require=%v: got %v (%v, ok=%v), want %v",
				c.budget, c.require, svc, d, ok, c.want)
		}
	}
}

func TestCostModelPaperNumbers(t *testing.T) {
	m := DefaultCostModel
	fwd, coding := m.DeploymentCost(150, 1.0/16)
	if math.Abs(fwd-17.60) > 0.01 {
		t.Errorf("forwarding cost = %v, want 17.60", fwd)
	}
	if math.Abs(coding-1.10) > 0.01 {
		t.Errorf("coding cost = %v, want 1.10", coding)
	}
	if ratio := fwd / coding; math.Abs(ratio-16) > 0.1 {
		t.Errorf("ratio = %v, want 16x", ratio)
	}
}

func TestBandwidthCostPerService(t *testing.T) {
	m := CostModel{EgressPerGB: 1}
	gb := 10.0
	if c := m.BandwidthCostPerHour(core.ServiceForwarding, gb, 0, 0); c != 20 {
		t.Errorf("forwarding = %v", c)
	}
	if c := m.BandwidthCostPerHour(core.ServiceCaching, gb, 0, 0.01); math.Abs(c-10.1) > 1e-9 {
		t.Errorf("caching = %v", c)
	}
	if c := m.BandwidthCostPerHour(core.ServiceCoding, gb, 0.25, 0); c != 5 {
		t.Errorf("coding = %v", c)
	}
	if c := m.BandwidthCostPerHour(core.ServiceInternet, gb, 0, 0); c != 0 {
		t.Errorf("internet = %v", c)
	}
}

func TestTotalCostAddsCompute(t *testing.T) {
	m := CostModel{EgressPerGB: 1, ComputePerThreadHour: 0.13}
	base := m.BandwidthCostPerHour(core.ServiceCoding, 10, 0.1, 0)
	tot := m.TotalCostPerHour(core.ServiceCoding, 10, 0.1, 0, 2)
	if math.Abs(tot-(base+0.26)) > 1e-9 {
		t.Errorf("total = %v", tot)
	}
	if c := m.TotalCostPerHour(core.ServiceInternet, 10, 0, 0, 4); c != 0 {
		t.Errorf("internet total = %v", c)
	}
}

func TestCostOrderingMatchesServiceOrder(t *testing.T) {
	// The framework's premise: coding < caching < forwarding for the
	// same traffic (α < 1).
	m := DefaultCostModel
	gb, alpha := 50.0, 0.2
	coding := m.BandwidthCostPerHour(core.ServiceCoding, gb, alpha, 0.01)
	caching := m.BandwidthCostPerHour(core.ServiceCaching, gb, alpha, 0.01)
	fwd := m.BandwidthCostPerHour(core.ServiceForwarding, gb, alpha, 0.01)
	if !(coding < caching && caching < fwd) {
		t.Errorf("cost ordering violated: %v %v %v", coding, caching, fwd)
	}
}

func TestSelectServiceRequireRecovery(t *testing.T) {
	top := buildTestTopology()
	top.MedianDelta = 8 * time.Millisecond
	// Delays: internet 50, coding 86, caching 70, forwarding 55.
	budget := 200 * time.Millisecond
	cases := []struct {
		name string
		pol  ServicePolicy
		want core.Service
	}{
		{"recovery required", ServicePolicy{Budget: budget, RequireRecovery: true}, core.ServiceCoding},
		{"internet allowed", ServicePolicy{Budget: budget}, core.ServiceInternet},
	}
	for _, c := range cases {
		svc, _, ok := top.SelectServiceWith(10, 20, c.pol)
		if !ok || svc != c.want {
			t.Errorf("%s: got %v ok=%v, want %v", c.name, svc, ok, c.want)
		}
	}
}

func TestSelectServiceWithCostCeiling(t *testing.T) {
	top := buildTestTopology()
	top.MedianDelta = 8 * time.Millisecond
	m := DefaultCostModel
	alpha := 0.5
	// Per-GB prices: coding 2α·e, caching (1+loss)·e, forwarding 2e.
	codingGB := m.EgressPerAppGB(core.ServiceCoding, alpha, 0)
	fwdGB := m.EgressPerAppGB(core.ServiceForwarding, alpha, 0)
	if codingGB >= fwdGB {
		t.Fatalf("cost ordering broken: coding %v ≥ forwarding %v", codingGB, fwdGB)
	}
	// A 60 ms budget needs forwarding (55 ms), but a cost ceiling below
	// forwarding's price forbids it.
	pol := ServicePolicy{
		Budget: 60 * time.Millisecond, RequireRecovery: true,
		Alpha: alpha, CostCeilingPerGB: fwdGB * 0.9,
	}
	if svc, _, ok := top.SelectServiceWith(10, 20, pol); ok {
		t.Errorf("cost-capped selection returned %v", svc)
	}
	// Raising the ceiling admits forwarding again.
	pol.CostCeilingPerGB = fwdGB * 1.1
	if svc, _, ok := top.SelectServiceWith(10, 20, pol); !ok || svc != core.ServiceForwarding {
		t.Errorf("got %v ok=%v, want forwarding", svc, ok)
	}
	// A generous budget under a tight cost ceiling picks the cheapest
	// fitting service instead.
	pol = ServicePolicy{
		Budget: 200 * time.Millisecond, RequireRecovery: true,
		Alpha: alpha, CostCeilingPerGB: codingGB * 1.1,
	}
	if svc, _, ok := top.SelectServiceWith(10, 20, pol); !ok || svc != core.ServiceCoding {
		t.Errorf("got %v ok=%v, want coding", svc, ok)
	}
}
