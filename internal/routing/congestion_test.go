package routing

import (
	"math"
	"testing"
	"time"

	"jqos/internal/core"
)

// aboutDur tolerates the sub-microsecond float error of weight inflation.
func aboutDur(got, want core.Time) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= time.Microsecond
}

func TestCongestionMultiplier(t *testing.T) {
	if m := congestMultiplier(0); m != 1 {
		t.Fatalf("idle multiplier = %v", m)
	}
	if m := congestMultiplier(congestKnee); m != 1 {
		t.Fatalf("knee multiplier = %v", m)
	}
	// M/M/1 shape above the knee: 1 + (u-knee)/(1-u).
	if m := congestMultiplier(0.8); math.Abs(m-2) > 1e-9 {
		t.Fatalf("multiplier(0.8) = %v, want 2", m)
	}
	// Saturation clamps at congestMaxUtil: 1 + 0.35/0.05 = 8.
	if m := congestMultiplier(1); math.Abs(m-8) > 1e-9 {
		t.Fatalf("multiplier(1) = %v, want 8", m)
	}
	if hi, lo := congestMultiplier(1), congestMultiplier(0.99); hi != lo {
		t.Fatalf("multiplier not clamped: %v vs %v", hi, lo)
	}
}

// buildSquare wires the 4-DC square 1—2—4 / 1—3—4 with equal 20 ms links:
// two equal-cost two-hop paths between 1 and 4, primary via the lower
// node ID (2).
func buildSquare() (*Controller, map[core.NodeID]*fakeSink) {
	c := NewController(2)
	sinks := make(map[core.NodeID]*fakeSink)
	for id := core.NodeID(1); id <= 4; id++ {
		s := newFakeSink()
		sinks[id] = s
		c.AddDC(id, s)
	}
	w := 20 * time.Millisecond
	c.SetLink(1, 2, w)
	c.SetLink(2, 4, w)
	c.SetLink(1, 3, w)
	c.SetLink(3, 4, w)
	return c, sinks
}

func TestUtilizationInflatesWeightAndShiftsRoutes(t *testing.T) {
	c, sinks := buildSquare()
	if via := sinks[1].routes[4]; via != 2 {
		t.Fatalf("primary 1→4 via %v, want 2 (deterministic tie-break)", via)
	}

	// Saturate 1—2: its weight inflates 8× and both the installed route
	// and the path oracle move to the idle branch.
	c.SetLinkUtilization(1, 2, 1)
	l := c.Graph().Link(1, 2)
	if l.Util != 1 || l.Congest <= 1 {
		t.Fatalf("link telemetry not applied: util=%v congest=%v", l.Util, l.Congest)
	}
	if w, up := l.Cost(); !up || !aboutDur(w, 160*time.Millisecond) {
		t.Fatalf("inflated cost = %v %v, want ~160ms", w, up)
	}
	if via := sinks[1].routes[4]; via != 3 {
		t.Fatalf("congested 1→4 via %v, want 3", via)
	}
	if d, ok := c.PathLatency(1, 4); !ok || d != 40*time.Millisecond {
		t.Fatalf("routed latency = %v %v, want 40ms via the idle branch", d, ok)
	}
	st := c.Stats()
	if st.UtilizationUpdates == 0 || st.CongestionReroutes == 0 {
		t.Fatalf("congestion counters did not move: %+v", st)
	}

	// Cooling back below the knee restores the tie-broken primary.
	c.SetLinkUtilization(1, 2, 0)
	if via := sinks[1].routes[4]; via != 2 {
		t.Fatalf("cooled 1→4 via %v, want 2", via)
	}
	if c.Stats().CongestionReroutes != 2 {
		t.Fatalf("cooling reroute not counted: %+v", c.Stats())
	}
}

func TestUtilizationHysteresisAbsorbsBreathing(t *testing.T) {
	c, _ := buildSquare()
	pre := c.Stats()

	// Reports below the knee derive multiplier 1 — never a recompute.
	for _, u := range []float64{0.1, 0.3, 0.55, 0.6} {
		c.SetLinkUtilization(1, 2, u)
	}
	st := c.Stats()
	if st.Recomputes != pre.Recomputes || st.UtilizationUpdates != 0 {
		t.Fatalf("sub-knee reports recomputed: %+v", st)
	}
	// The raw reading is still recorded for observability.
	if got := c.Graph().Link(1, 2).Util; got != 0.6 {
		t.Fatalf("raw utilization = %v, want 0.6", got)
	}

	// A hot report reweights once...
	c.SetLinkUtilization(1, 2, 0.9)
	st = c.Stats()
	if st.UtilizationUpdates != 1 {
		t.Fatalf("hot report not applied: %+v", st)
	}
	// ...and breathing around the same level is absorbed: 0.9 → mult 4,
	// 0.88 → mult ~3.33 (dev ~17% < 25% hysteresis).
	c.SetLinkUtilization(1, 2, 0.88)
	if got := c.Stats(); got.UtilizationUpdates != 1 || got.Recomputes != st.Recomputes {
		t.Fatalf("hysteresis failed to absorb breathing: %+v", got)
	}
	// A real swing (back below the knee) is applied.
	c.SetLinkUtilization(1, 2, 0.2)
	if got := c.Stats(); got.UtilizationUpdates != 2 {
		t.Fatalf("cooling swing absorbed: %+v", got)
	}
}

// TestCongestionWeightsDoNotPoisonLatency: the multiplier steers routing
// (weights), but latency predictions — PathLatency for the oracle,
// PathCost for pinned flows — must report the honest figures: capacity
// is a traffic-engineering input, and the penalty does not actually
// delay packets.
func TestCongestionWeightsDoNotPoisonLatency(t *testing.T) {
	c, _ := buildSquare()
	// Saturate BOTH branches: routing has nowhere better to go, but the
	// predicted 1→4 latency must stay the honest 40 ms, not 8×.
	c.SetLinkUtilizations([]UtilizationReport{
		{1, 2, 1}, {2, 4, 1}, {1, 3, 1}, {3, 4, 1},
	})
	if d, ok := c.PathLatency(1, 4); !ok || d != 40*time.Millisecond {
		t.Fatalf("routed latency = %v %v, want honest 40ms", d, ok)
	}
	if d, ok := c.PathCost([]core.NodeID{1, 2, 4}); !ok || d != 40*time.Millisecond {
		t.Fatalf("pinned-path latency = %v %v, want honest 40ms", d, ok)
	}
	// The weights DID inflate — that is what routing minimizes.
	if w, up := c.Graph().Link(1, 2).Cost(); !up || w <= 40*time.Millisecond {
		t.Fatalf("weight not inflated: %v %v", w, up)
	}
	// One hot branch only: the oracle prices the idle branch the SPF
	// actually picked.
	c.SetLinkUtilizations([]UtilizationReport{
		{1, 2, 1}, {2, 4, 1}, {1, 3, 0}, {3, 4, 0},
	})
	if via, ok := c.NextHop(1, 4); !ok || via != 3 {
		t.Fatalf("1→4 via %v, want idle branch", via)
	}
	if d, ok := c.PathLatency(1, 4); !ok || d != 40*time.Millisecond {
		t.Fatalf("routed latency = %v %v, want 40ms via idle branch", d, ok)
	}
}

// TestBatchedUtilizationSingleRecompute: one reporting round that heats
// several links recomputes once, not once per link.
func TestBatchedUtilizationSingleRecompute(t *testing.T) {
	c, sinks := buildSquare()
	pre := c.Stats()
	c.SetLinkUtilizations([]UtilizationReport{
		{1, 2, 1}, {2, 4, 1}, {1, 3, 0.1}, {3, 4, 0.1},
	})
	st := c.Stats()
	if got := st.Recomputes - pre.Recomputes; got != 1 {
		t.Fatalf("batch ran %d recomputes, want 1", got)
	}
	if st.UtilizationUpdates != 2 {
		t.Fatalf("accepted %d updates, want 2 (idle links absorbed)", st.UtilizationUpdates)
	}
	if st.CongestionReroutes != 1 {
		t.Fatalf("congestion reroutes = %d, want 1", st.CongestionReroutes)
	}
	if via := sinks[1].routes[4]; via != 3 {
		t.Fatalf("1→4 via %v after batch, want 3", via)
	}
	// An all-idle round is a no-op.
	pre = c.Stats()
	c.SetLinkUtilizations([]UtilizationReport{{1, 3, 0.1}, {3, 4, 0.1}})
	if got := c.Stats(); got.Recomputes != pre.Recomputes {
		t.Fatalf("idle batch recomputed: %+v", got)
	}
}

// TestSmallInflationDecaysToBaseline: an inflation whose removal falls
// inside the hysteresis band (×1.33 → ×1 is exactly a 25% deviation)
// must still clear once utilization returns below the knee — otherwise
// an idle link stays penalized forever.
func TestSmallInflationDecaysToBaseline(t *testing.T) {
	c, _ := buildSquare()
	c.SetLinkUtilization(1, 2, 0.7) // multiplier 1.333: accepted
	l := c.Graph().Link(1, 2)
	if l.Congest <= 1 {
		t.Fatalf("small inflation not applied: %v", l.Congest)
	}
	c.SetLinkUtilization(1, 2, 0)
	if l.Congest != 1 {
		t.Fatalf("idle link still inflated ×%v", l.Congest)
	}
	if w, up := l.Cost(); !up || w != 20*time.Millisecond {
		t.Fatalf("idle link cost = %v %v, want base 20ms", w, up)
	}
}

// TestZeroLatencyLinkNoPrevCycle: a 0 ms link between two equal-distance
// nodes used to let the equal-cost tie-break rewrite two finalized nodes
// into each other's predecessor, hanging path reconstruction. SPF must
// terminate and produce a sane path.
func TestZeroLatencyLinkNoPrevCycle(t *testing.T) {
	c := NewController(2)
	for _, id := range []core.NodeID{1, 2, 5} {
		c.AddDC(id, newFakeSink())
	}
	c.SetLink(5, 1, 10*time.Millisecond)
	c.SetLink(5, 2, 10*time.Millisecond)
	c.SetLink(1, 2, 0)
	ps := c.Paths(5, 2, 1)
	if len(ps) != 1 || len(ps[0].Nodes) < 2 || ps[0].Nodes[0] != 5 || ps[0].Nodes[len(ps[0].Nodes)-1] != 2 {
		t.Fatalf("path 5→2 = %+v", ps)
	}
	p := ps[0]
	if p.Cost != 10*time.Millisecond {
		t.Fatalf("path cost = %v, want 10ms", p.Cost)
	}
}

func TestUtilizationUnknownLinkIgnored(t *testing.T) {
	c, _ := buildSquare()
	pre := c.Stats()
	c.SetLinkUtilization(1, 4, 1) // no such link
	if got := c.Stats(); got.Recomputes != pre.Recomputes {
		t.Fatalf("unknown link recomputed: %+v", got)
	}
}

// TestCongestionComposesWithHealth: inflation applies on top of the
// monitor's refreshed latency estimate, and a down link stays down.
func TestCongestionComposesWithHealth(t *testing.T) {
	c, _ := buildSquare()
	c.SetLinkHealth(1, 2, LinkUp, 30*time.Millisecond) // monitor re-priced
	c.SetLinkUtilization(1, 2, 1)
	if w, up := c.Graph().Link(1, 2).Cost(); !up || !aboutDur(w, 240*time.Millisecond) {
		t.Fatalf("cost = %v %v, want ~8×30ms", w, up)
	}
	c.SetLinkHealth(1, 2, LinkDown, 0)
	if _, up := c.Graph().Link(1, 2).Cost(); up {
		t.Fatal("down link still carries traffic")
	}
	// SetLink re-bases and clears telemetry.
	c.SetLink(1, 2, 20*time.Millisecond)
	l := c.Graph().Link(1, 2)
	if l.Util != 0 || l.Congest != 0 {
		t.Fatalf("re-based link kept telemetry: %+v", l)
	}
}
