package overlay

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/dataset"
)

// staticOracle answers PathLatency from a fixed table of routed
// one-way latencies, the same in both directions.
type staticOracle map[[2]core.NodeID]core.Time

func (o staticOracle) PathLatency(a, b core.NodeID) (core.Time, bool) {
	if x, ok := o[[2]core.NodeID{a, b}]; ok {
		return x, true
	}
	x, ok := o[[2]core.NodeID{b, a}]
	return x, ok
}

// buildTestTopology makes a 2-DC full overlay:
//
//	host 10 —5ms— DC1(1) —40ms— DC2(2) —10ms— host 20, direct 10→20 = 50ms.
//
// Host 30 (δ 8ms, at DC1) makes the median host δ 8ms.
func buildTestTopology() *Topology {
	t := NewTopology(staticOracle{{1, 2}: 40 * time.Millisecond})
	t.AddDC(DC{ID: 1, Name: "us-east-1", Region: dataset.RegionUSEast})
	t.AddDC(DC{ID: 2, Name: "eu-west-1", Region: dataset.RegionEU})
	t.AttachHost(10, 1, 5*time.Millisecond)
	t.AttachHost(20, 2, 10*time.Millisecond)
	t.AttachHost(30, 1, 8*time.Millisecond)
	t.SetDirect(10, 20, 50*time.Millisecond)
	return t
}

func TestTopologyAccessors(t *testing.T) {
	top := buildTestTopology()
	if !top.IsDC(1) || top.IsDC(10) {
		t.Error("IsDC wrong")
	}
	if !top.IsDC(2) {
		t.Error("second DC missing")
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
	if dc, ok := top.NearestDC(30); !ok || dc != 1 {
		t.Errorf("NearestDC(30) = %v %v", dc, ok)
	}
}

func TestAttachHostUnknownDCPanics(t *testing.T) {
	top := NewTopology(staticOracle{})
	defer func() {
		if recover() == nil {
			t.Error("attach to unknown DC did not panic")
		}
	}()
	top.AttachHost(10, 1, time.Millisecond)
}

func TestDirectFallback(t *testing.T) {
	top := buildTestTopology()
	if y := top.Direct(10, 20); y != 50*time.Millisecond {
		t.Errorf("known pair = %v", y)
	}
	if y := top.Direct(20, 10); y != 0 {
		t.Errorf("unknown pair = %v, want 0 (unknown)", y)
	}
}

func TestPredictDelayFormulas(t *testing.T) {
	top := buildTestTopology()
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
	// A fourth host moves the median of host deltas {5,8,10,12} to 10ms.
	top.AttachHost(40, 2, 12*time.Millisecond)
	d, ok := top.PredictDelay(core.ServiceCoding, 10, 20)
	if !ok || d != (70+20)*time.Millisecond {
		t.Errorf("coding with derived median = %v %v", d, ok)
	}
}

// TestMedianHostDeltaMatchesSort holds the kept ascending δ list to a
// sort of every attached host's current δ, across re-attaches that move
// a host's δ and ties between hosts.
func TestMedianHostDeltaMatchesSort(t *testing.T) {
	top := NewTopology(staticOracle{})
	top.AddDC(DC{ID: 1})
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 500; step++ {
		host := core.NodeID(10 + rng.Intn(20))
		top.AttachHost(host, 1, time.Duration(rng.Intn(8))*time.Millisecond)
		ds := make([]core.Time, 0, len(top.delta))
		for _, d := range top.delta {
			ds = append(ds, d)
		}
		slices.Sort(ds)
		if got, want := top.medianHostDelta(), ds[len(ds)/2]; got != want || len(top.deltas) != len(ds) {
			t.Fatalf("step %d: median %v over %d δs, want %v over %d", step, got, len(top.deltas), want, len(ds))
		}
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
	top2 := NewTopology(staticOracle{})
	top2.AddDC(DC{ID: 1})
	top2.AddDC(DC{ID: 2})
	top2.AttachHost(10, 1, time.Millisecond)
	top2.AttachHost(20, 2, time.Millisecond)
	top2.SetDirect(10, 20, time.Millisecond)
	if _, ok := top2.PredictDelay(core.ServiceForwarding, 10, 20); ok {
		t.Error("missing inter-DC latency predicted")
	}
}

func TestInterDCDelegatesToOracle(t *testing.T) {
	oracle := staticOracle{
		{1, 3}: 90 * time.Millisecond, // routed multi-hop
		{1, 2}: 35 * time.Millisecond,
	}
	top := NewTopology(oracle)
	for _, id := range []core.NodeID{1, 2, 3} {
		top.AddDC(DC{ID: id})
	}
	// Routed latency answers sparse pairs, in both directions.
	if x, ok := top.InterDC(3, 1); !ok || x != 90*time.Millisecond {
		t.Errorf("InterDC(3,1) = %v %v, want routed 90ms", x, ok)
	}
	if x, ok := top.InterDC(2, 2); !ok || x != 0 {
		t.Errorf("InterDC self = %v %v", x, ok)
	}
	// No routed path → partitioned.
	if _, ok := top.InterDC(2, 3); ok {
		t.Error("partitioned pair resolved")
	}
	// PredictDelay follows: forwarding over the routed path.
	top.AttachHost(10, 1, 5*time.Millisecond)
	top.AttachHost(30, 3, 7*time.Millisecond)
	if d, ok := top.PredictDelay(core.ServiceForwarding, 10, 30); !ok || d != (5+90+7)*time.Millisecond {
		t.Errorf("forwarding via oracle = %v %v, want 102ms", d, ok)
	}
	delete(oracle, [2]core.NodeID{1, 3})
	if _, ok := top.PredictDelay(core.ServiceForwarding, 10, 30); ok {
		t.Error("forwarding predicted across a partition")
	}
}

func TestSelectServicePicksCheapest(t *testing.T) {
	top := buildTestTopology()
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
