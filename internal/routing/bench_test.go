package routing

import (
	"testing"
	"time"

	"jqos/internal/core"
)

// benchController builds a 50-DC random sparse graph (ring + 25 chords)
// with 100 attached hosts — the control-plane cost profile of a real
// deployment rather than a toy mesh.
func benchController() *Controller {
	c := NewController(2)
	randomSparseGraph(c, 50, 25, 42)
	for h := 0; h < 100; h++ {
		c.AttachHost(core.NodeID(1000+h), core.NodeID(h%50+1))
	}
	c.Recompute()
	return c
}

// BenchmarkRouteCompute measures one full all-pairs recomputation + push
// reconciliation over the 50-DC sparse graph.
func BenchmarkRouteCompute(b *testing.B) {
	c := benchController()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Recompute()
	}
}

// BenchmarkReroute measures failure→converged tables: each iteration
// fails a link on the busiest path and then restores it (two health
// transitions, each a recompute plus delta push).
func BenchmarkReroute(b *testing.B) {
	c := benchController()
	// Pick a link actually on 1→26's primary path so the failure moves
	// routes rather than recomputing a no-op.
	ps := c.Paths(1, 26, 1)
	if len(ps) == 0 || len(ps[0].Nodes) < 2 {
		b.Fatal("no path to exercise")
	}
	la, lb := ps[0].Nodes[0], ps[0].Nodes[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SetLinkHealth(la, lb, LinkDown, 0)
		c.SetLinkHealth(la, lb, LinkUp, 0)
	}
	b.StopTimer()
	if c.Stats().Reroutes == 0 {
		b.Fatal("bench never rerouted")
	}
}

// BenchmarkKShortestPaths measures alternate-path computation (k=3) on
// the sparse graph: Yen's spur searches on the controller's Dijkstra. It
// allocates only what it returns, the []Path and one node array.
func BenchmarkKShortestPaths(b *testing.B) {
	c := benchController()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps := c.Paths(1, 26, 3); len(ps) == 0 {
			b.Fatal("no paths")
		}
	}
}

// nullFlowSink counts per-flow pushes without storing them, so the churn
// benchmark measures the controller's own pin-table mutation path — the
// one RegisterFlow/Close ride — and not a fake's map bookkeeping.
type nullFlowSink struct{ sets, dels int }

func (s *nullFlowSink) SetRoute(dst, via core.NodeID)                       {}
func (s *nullFlowSink) DeleteRoute(dst core.NodeID)                         {}
func (s *nullFlowSink) SetFlowRoute(flow core.FlowID, dst, via core.NodeID) { s.sets++ }
func (s *nullFlowSink) DeleteFlowRoute(flow core.FlowID, dst core.NodeID)   { s.dels++ }
func (s *nullFlowSink) BeginEpoch(epoch uint64)                             {}
func (s *nullFlowSink) RetireEpoch(epoch uint64)                            {}

// BenchmarkPinChurn measures one pin + unpin cycle along a 7-hop path —
// the flow open/close hot path. Must stay at 0 allocs/op: the pin
// freelist and entry-slice reuse make churn steady-state allocation-free.
func BenchmarkPinChurn(b *testing.B) {
	c := NewController(2)
	for id := core.NodeID(1); id <= 8; id++ {
		c.AddDC(id, &nullFlowSink{})
	}
	for id := core.NodeID(1); id < 8; id++ {
		c.SetLink(id, id+1, 10*time.Millisecond)
	}
	c.AttachHost(100, 8)
	c.Recompute()
	ps := c.Paths(1, 8, 1)
	if len(ps) == 0 {
		b.Fatal("no path to pin")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PinFlow(7, 100, ps[0])
		c.UnpinFlow(7)
	}
	b.StopTimer()
	if c.PinnedCount() != 0 {
		b.Fatal("pin leaked")
	}
}

// BenchmarkIncrementalRecompute measures the recompute a utilization
// swing triggers: one link's utilization crosses the hysteresis (inflate,
// then back to baseline), and each crossing runs the full all-pairs
// Recompute plus push reconciliation. The name predates the full
// recompute; it is kept so the gated baseline keeps its history.
func BenchmarkIncrementalRecompute(b *testing.B) {
	c := benchController()
	ps := c.Paths(1, 26, 1)
	if len(ps) == 0 || len(ps[0].Nodes) < 2 {
		b.Fatal("no path to exercise")
	}
	la, lb := ps[0].Nodes[0], ps[0].Nodes[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SetLinkUtilization(la, lb, 0.95)
		c.SetLinkUtilization(la, lb, 0)
	}
}

// BenchmarkMonitorProbe measures the per-probe bookkeeping cost (sent +
// acked + state evaluation) on a healthy link.
func BenchmarkMonitorProbe(b *testing.B) {
	c := NewController(2)
	c.AddDC(1, newFakeSink())
	c.AddDC(2, newFakeSink())
	c.SetLink(1, 2, 10*time.Millisecond)
	m := NewMonitor(c, 500*time.Millisecond)
	m.Track(1, 2, 10*time.Millisecond)
	now := core.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		m.ProbeSent(1, 2, seq, now)
		now += 20 * time.Millisecond
		m.ProbeAcked(1, 2, seq, now)
	}
}
