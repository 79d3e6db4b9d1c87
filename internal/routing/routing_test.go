package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"jqos/internal/core"
)

// fakeSink records pushed routes, and the last epoch announced, for one
// DC.
type fakeSink struct {
	routes map[core.NodeID]core.NodeID
	epoch  uint64
}

func newFakeSink() *fakeSink { return &fakeSink{routes: make(map[core.NodeID]core.NodeID)} }

func (s *fakeSink) SetRoute(dst, via core.NodeID)                       { s.routes[dst] = via }
func (s *fakeSink) DeleteRoute(dst core.NodeID)                         { delete(s.routes, dst) }
func (s *fakeSink) SetFlowRoute(flow core.FlowID, dst, via core.NodeID) {}
func (s *fakeSink) DeleteFlowRoute(flow core.FlowID, dst core.NodeID)   {}
func (s *fakeSink) BeginEpoch(epoch uint64)                             { s.epoch = epoch }
func (s *fakeSink) RetireEpoch(epoch uint64)                            {}

// buildLine wires 1—2—3—4 with 10 ms links and returns the controller and
// sinks.
func buildLine() (*Controller, map[core.NodeID]*fakeSink) {
	c := NewController(2)
	sinks := make(map[core.NodeID]*fakeSink)
	for id := core.NodeID(1); id <= 4; id++ {
		s := newFakeSink()
		sinks[id] = s
		c.AddDC(id, s)
	}
	c.SetLink(1, 2, 10*time.Millisecond)
	c.SetLink(2, 3, 10*time.Millisecond)
	c.SetLink(3, 4, 10*time.Millisecond)
	return c, sinks
}

// nextHop reads the next hop installed at dc toward dst: what the
// controller last pushed to dc's sink for a DC, and for a host or group
// the entry for its home DC (none at the home itself).
func (c *Controller) nextHop(dc, dst core.NodeID) (core.NodeID, bool) {
	dt := c.dcs[dc]
	if dt == nil {
		return 0, false
	}
	if home, ok := c.homes[dst]; ok {
		dst = home
	}
	var via core.NodeID
	if di, ok := c.idxOf[dst]; ok && int(di) < len(dt.instDC) {
		via = dt.instDC[di]
	}
	return via, via != 0
}

func TestLinePathsAndNextHops(t *testing.T) {
	c, sinks := buildLine()
	// 1→4 must go via 2, then 3.
	if via, ok := c.nextHop(1, 4); !ok || via != 2 {
		t.Errorf("NextHop(1,4) = %v %v, want 2", via, ok)
	}
	if via, ok := c.nextHop(2, 4); !ok || via != 3 {
		t.Errorf("NextHop(2,4) = %v %v, want 3", via, ok)
	}
	if lat, ok := c.PathLatency(1, 4); !ok || lat != 30*time.Millisecond {
		t.Errorf("PathLatency(1,4) = %v %v, want 30ms", lat, ok)
	}
	if lat, ok := c.PathLatency(4, 4); !ok || lat != 0 {
		t.Errorf("PathLatency(4,4) = %v %v", lat, ok)
	}
	if _, ok := c.PathLatency(1, 99); ok {
		t.Error("unknown DC resolved")
	}
	// Sinks saw the DC entries.
	if sinks[1].routes[4] != 2 || sinks[4].routes[1] != 3 {
		t.Errorf("sink tables wrong: %v / %v", sinks[1].routes, sinks[4].routes)
	}
}

func TestHostsRouteThroughHome(t *testing.T) {
	c, sinks := buildLine()
	c.AttachHost(100, 4) // host near DC 4
	c.SetLinkHealth(3, 4, LinkDown, 0)
	c.SetLinkHealth(3, 4, LinkUp, 0)
	// No sink holds an entry for the host, across attach and recomputes:
	// every DC reaches it through its route to DC 4.
	for dc, s := range sinks {
		if via, ok := s.routes[100]; ok {
			t.Errorf("DC %v holds a host entry via %v", dc, via)
		}
	}
	if home, ok := c.Home(100); !ok || home != 4 {
		t.Errorf("Home(100) = %v %v, want 4", home, ok)
	}
	if via, ok := c.nextHop(1, 100); !ok || via != 2 {
		t.Errorf("DC 1 reaches host 100 via %v %v, want 2", via, ok)
	}
}

func TestLinkDownReroutesAndCounts(t *testing.T) {
	// Diamond: 1—2—4 (primary, 20 ms) and 1—3—4 (backup, 40 ms).
	c := NewController(2)
	sinks := make(map[core.NodeID]*fakeSink)
	for id := core.NodeID(1); id <= 4; id++ {
		s := newFakeSink()
		sinks[id] = s
		c.AddDC(id, s)
	}
	c.SetLink(1, 2, 10*time.Millisecond)
	c.SetLink(2, 4, 10*time.Millisecond)
	c.SetLink(1, 3, 20*time.Millisecond)
	c.SetLink(3, 4, 20*time.Millisecond)
	c.AttachHost(100, 4)
	if sinks[1].routes[4] != 2 {
		t.Fatalf("primary path not via 2: %v", sinks[1].routes)
	}
	pre := c.Stats()

	c.SetLinkHealth(2, 4, LinkDown, 0)
	if sinks[1].routes[4] != 3 {
		t.Errorf("after failure, 1's routes = %v, want via 3", sinks[1].routes)
	}
	if lat, ok := c.PathLatency(1, 4); !ok || lat != 40*time.Millisecond {
		t.Errorf("failed-over latency = %v %v, want 40ms", lat, ok)
	}
	st := c.Stats()
	if st.LinkFailures != pre.LinkFailures+1 {
		t.Errorf("LinkFailures = %d", st.LinkFailures)
	}
	if st.Reroutes != pre.Reroutes+1 || st.RouteChanges == pre.RouteChanges {
		t.Errorf("reroute not counted: %+v", st)
	}

	// Recovery restores the primary.
	c.SetLinkHealth(2, 4, LinkUp, 0)
	if sinks[1].routes[4] != 2 {
		t.Errorf("after recovery, 1→4 via %v, want 2", sinks[1].routes[4])
	}
	if c.Stats().LinkRecoveries != pre.LinkRecoveries+1 {
		t.Errorf("LinkRecoveries = %d", c.Stats().LinkRecoveries)
	}
}

func TestDegradedLinkCostShiftsPath(t *testing.T) {
	// Two parallel two-hop paths; degrading the cheaper one's first link
	// past the alternative's cost moves traffic over.
	c := NewController(2)
	for id := core.NodeID(1); id <= 4; id++ {
		c.AddDC(id, newFakeSink())
	}
	c.SetLink(1, 2, 10*time.Millisecond)
	c.SetLink(2, 4, 10*time.Millisecond)
	c.SetLink(1, 3, 25*time.Millisecond)
	c.SetLink(3, 4, 25*time.Millisecond)
	c.SetLinkHealth(1, 2, LinkDegraded, 60*time.Millisecond)
	if via, _ := c.nextHop(1, 4); via != 3 {
		t.Errorf("degraded path still primary: via %v", via)
	}
	if c.Stats().LinkDegrades != 1 {
		t.Errorf("LinkDegrades = %d", c.Stats().LinkDegrades)
	}
}

func TestPartitionDeletesRoutes(t *testing.T) {
	c, sinks := buildLine()
	c.AttachHost(100, 4)
	c.SetLinkHealth(3, 4, LinkDown, 0)
	if _, ok := sinks[1].routes[4]; ok {
		t.Error("unreachable DC still routed")
	}
	if _, ok := sinks[1].routes[100]; ok {
		t.Error("unreachable host still routed")
	}
	if c.Stats().Unreachable == 0 {
		t.Error("unreachable not counted")
	}
	if _, ok := c.PathLatency(1, 4); ok {
		t.Error("partitioned pair has a path latency")
	}
}

func TestKShortestPaths(t *testing.T) {
	c, _ := buildLine()
	// Add a chord 1—4 at 50 ms: primary is the 30 ms line, alternate the
	// direct chord.
	c.SetLink(1, 4, 50*time.Millisecond)
	ps := c.Paths(1, 4, 2)
	if len(ps) != 2 {
		t.Fatalf("got %d paths", len(ps))
	}
	want0 := []core.NodeID{1, 2, 3, 4}
	want1 := []core.NodeID{1, 4}
	if !reflect.DeepEqual(ps[0].Nodes, want0) || ps[0].Cost != 30*time.Millisecond {
		t.Errorf("primary = %v (%v)", ps[0].Nodes, ps[0].Cost)
	}
	if !reflect.DeepEqual(ps[1].Nodes, want1) || ps[1].Cost != 50*time.Millisecond {
		t.Errorf("alternate = %v (%v)", ps[1].Nodes, ps[1].Cost)
	}
	// k beyond the number of distinct loop-free paths just stops.
	if ps := c.Paths(1, 4, 10); len(ps) < 2 {
		t.Errorf("k=10 returned %d paths", len(ps))
	}
}

// randomSparseGraph builds an n-DC ring plus m random chords — connected,
// sparse, seeded.
func randomSparseGraph(c *Controller, n, m int, seed int64) {
	for id := core.NodeID(1); id <= core.NodeID(n); id++ {
		c.AddDC(id, newFakeSink())
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a := core.NodeID(i + 1)
		b := core.NodeID((i+1)%n + 1)
		c.SetLink(a, b, time.Duration(5+rng.Intn(50))*time.Millisecond)
	}
	for i := 0; i < m; i++ {
		a := core.NodeID(rng.Intn(n) + 1)
		b := core.NodeID(rng.Intn(n) + 1)
		if a == b {
			continue
		}
		c.SetLink(a, b, time.Duration(5+rng.Intn(80))*time.Millisecond)
	}
}

// TestRoutingTablesDeterministic: same graph + seed → identical tables
// (the determinism the emulator's bit-stable runs depend on).
func TestRoutingTablesDeterministic(t *testing.T) {
	build := func() map[string]core.NodeID {
		c := NewController(3)
		randomSparseGraph(c, 30, 15, 77)
		for h := 0; h < 10; h++ {
			c.AttachHost(core.NodeID(1000+h), core.NodeID(h%30+1))
		}
		c.Recompute()
		out := make(map[string]core.NodeID)
		for _, dc := range c.Graph().Nodes() {
			for _, dst := range c.Graph().Nodes() {
				if via, ok := c.nextHop(dc, dst); ok {
					out[fmt.Sprintf("%v->%v", dc, dst)] = via
				}
			}
		}
		return out
	}
	t1, t2 := build(), build()
	if len(t1) == 0 {
		t.Fatal("empty tables")
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Error("routing tables diverged across identical builds")
	}
}

// --- monitor ---

// monWorld pairs a monitor with a 2-link controller for state-machine
// tests driven by hand-fed probe outcomes.
func monWorld(t *testing.T) (*Controller, *Monitor) {
	t.Helper()
	c := NewController(2)
	for id := core.NodeID(1); id <= 3; id++ {
		c.AddDC(id, newFakeSink())
	}
	c.SetLink(1, 2, 10*time.Millisecond)
	c.SetLink(2, 3, 10*time.Millisecond)
	c.SetLink(1, 3, 40*time.Millisecond)
	m := NewMonitor(c, 500*time.Millisecond)
	m.Track(1, 2, 10*time.Millisecond)
	return c, m
}

func TestMonitorFailAndRecover(t *testing.T) {
	c, m := monWorld(t)
	now := core.Time(0)
	seq := uint64(0)
	lose := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			m.ProbeSent(1, 2, seq, now)
			now += 100 * time.Millisecond
			m.ProbeTimedOut(1, 2, seq)
		}
	}
	answer := func(n int, rtt core.Time) {
		for i := 0; i < n; i++ {
			seq++
			m.ProbeSent(1, 2, seq, now)
			now += rtt
			m.ProbeAcked(1, 2, seq, now)
		}
	}
	answer(4, 20*time.Millisecond)
	if h, _ := m.Health(1, 2); h.State != LinkUp || h.RTT == 0 {
		t.Fatalf("healthy link state = %+v", h)
	}
	lose(failAfter)
	if h, _ := m.Health(1, 2); h.State != LinkDown {
		t.Fatalf("state after %d losses = %v", failAfter, h.State)
	}
	if c.Stats().LinkFailures != 1 {
		t.Errorf("controller failures = %d", c.Stats().LinkFailures)
	}
	// 1→3 traffic must avoid the dead link now.
	if via, ok := c.nextHop(1, 3); !ok || via != 3 {
		t.Errorf("NextHop(1,3) after failure = %v %v", via, ok)
	}
	answer(recoverAfter, 20*time.Millisecond)
	if h, _ := m.Health(1, 2); h.State != LinkUp {
		t.Fatalf("state after recovery = %v", h.State)
	}
	if c.Stats().LinkRecoveries != 1 {
		t.Errorf("controller recoveries = %d", c.Stats().LinkRecoveries)
	}
}

func TestMonitorRTTDriftRepricesLink(t *testing.T) {
	// RTT drift is a cost problem, not a health problem: the link stays
	// up but its advertised cost tracks the measurement, so routes shift
	// to now-cheaper alternates and PredictDelay stays honest.
	c, m := monWorld(t)
	now := core.Time(0)
	// Base RTT 20 ms; feed sustained 80 ms RTTs (4× base).
	for seq := uint64(1); seq <= 20; seq++ {
		m.ProbeSent(1, 2, seq, now)
		now += 80 * time.Millisecond
		m.ProbeAcked(1, 2, seq, now)
	}
	h, _ := m.Health(1, 2)
	if h.State != LinkUp {
		t.Fatalf("state = %v, want up (slow ≠ sick)", h.State)
	}
	// Cost must have risen toward ~40 ms one-way.
	if lat, ok := c.PathLatency(1, 2); !ok || lat <= 20*time.Millisecond {
		t.Errorf("re-priced latency = %v %v, want >20ms", lat, ok)
	}
	// 1→3 used to ride 1—2—3 (20 ms); at ~50 ms routed it must now use
	// the direct 40 ms link.
	if via, ok := c.nextHop(1, 3); !ok || via != 3 {
		t.Errorf("NextHop(1,3) after drift = %v %v, want direct", via, ok)
	}
	// Adaptive timeout follows the estimate.
	if to := m.CurrentTimeout(1, 2); to <= probeTimeout {
		t.Errorf("timeout did not adapt: %v", to)
	}
	// Drifting back down re-prices again.
	for seq := uint64(21); seq <= 60; seq++ {
		m.ProbeSent(1, 2, seq, now)
		now += 20 * time.Millisecond
		m.ProbeAcked(1, 2, seq, now)
	}
	if via, ok := c.nextHop(1, 3); !ok || via != 2 {
		t.Errorf("NextHop(1,3) after recovery = %v %v, want via 2", via, ok)
	}
}

func TestMonitorLateAckTeachesRTT(t *testing.T) {
	_, m := monWorld(t)
	m.ProbeSent(1, 2, 1, 0)
	m.ProbeTimedOut(1, 2, 1)
	h1, _ := m.Health(1, 2)
	m.ProbeAcked(1, 2, 1, 500*time.Millisecond) // late answer
	h2, _ := m.Health(1, 2)
	// The probe stays counted as lost (it WAS too late for the data
	// plane), but the answer still teaches the RTT estimator — that is
	// what lets the adaptive timeout stretch over a slowed link.
	if h1.Loss != h2.Loss {
		t.Errorf("late ack rewrote the loss window: %v -> %v", h1.Loss, h2.Loss)
	}
	if h2.RTT != 500*time.Millisecond {
		t.Errorf("late ack did not teach RTT: %v", h2.RTT)
	}
	if to := m.CurrentTimeout(1, 2); to != 1500*time.Millisecond {
		t.Errorf("timeout after late ack = %v, want 3×RTT", to)
	}
	// A duplicate of the same late ack changes nothing further.
	m.ProbeAcked(1, 2, 1, 600*time.Millisecond)
	if h3, _ := m.Health(1, 2); h3.RTT != h2.RTT {
		t.Errorf("duplicate late ack re-learned: %v", h3.RTT)
	}
}
