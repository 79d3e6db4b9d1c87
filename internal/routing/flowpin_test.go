package routing

import (
	"reflect"
	"testing"
	"time"

	"jqos/internal/core"
)

// flowSink extends fakeSink with the per-flow pin surface.
type flowSink struct {
	fakeSink
	flows map[[2]uint64]core.NodeID // (flow, dst) → via
}

func newFlowSink() *flowSink {
	return &flowSink{
		fakeSink: fakeSink{routes: make(map[core.NodeID]core.NodeID)},
		flows:    make(map[[2]uint64]core.NodeID),
	}
}

func (s *flowSink) SetFlowRoute(flow core.FlowID, dst, via core.NodeID) {
	s.flows[[2]uint64{uint64(flow), uint64(dst)}] = via
}
func (s *flowSink) DeleteFlowRoute(flow core.FlowID, dst core.NodeID) {
	delete(s.flows, [2]uint64{uint64(flow), uint64(dst)})
}

// buildFlowDiamond wires 1—2—4 (20 ms) and 1—3—4 (40 ms) with flow-aware
// sinks and a host 100 at DC 4.
func buildFlowDiamond() (*Controller, map[core.NodeID]*flowSink) {
	c := NewController(2)
	sinks := make(map[core.NodeID]*flowSink)
	for id := core.NodeID(1); id <= 4; id++ {
		s := newFlowSink()
		sinks[id] = s
		c.AddDC(id, s)
	}
	c.SetLink(1, 2, 10*time.Millisecond)
	c.SetLink(2, 4, 10*time.Millisecond)
	c.SetLink(1, 3, 20*time.Millisecond)
	c.SetLink(3, 4, 20*time.Millisecond)
	c.AttachHost(100, 4)
	return c, sinks
}

func TestPinFlowInstallsAndRemovesEntries(t *testing.T) {
	c, sinks := buildFlowDiamond()
	alts := c.Paths(1, 4, 2)
	if len(alts) != 2 {
		t.Fatalf("alternates = %d, want 2", len(alts))
	}
	// Pin flow 7 to the backup path 1→3→4 toward host 100.
	c.PinFlow(7, 100, alts[1])
	if got, ok := c.PinnedPath(7); !ok || !reflect.DeepEqual(got, []core.NodeID{1, 3, 4}) {
		t.Fatalf("PinnedPath = %v %v", got, ok)
	}
	// DC1 and DC3 carry entries for the host AND the egress DC; DC2 has
	// none; the egress DC itself has none.
	if via := sinks[1].flows[[2]uint64{7, 100}]; via != 3 {
		t.Errorf("dc1 pin via %v, want 3", via)
	}
	if via := sinks[1].flows[[2]uint64{7, 4}]; via != 3 {
		t.Errorf("dc1 egress pin via %v, want 3", via)
	}
	if via := sinks[3].flows[[2]uint64{7, 100}]; via != 4 {
		t.Errorf("dc3 pin via %v, want 4", via)
	}
	if len(sinks[2].flows) != 0 {
		t.Errorf("dc2 got pin entries: %v", sinks[2].flows)
	}
	if len(sinks[4].flows) != 0 {
		t.Errorf("egress DC got pin entries: %v", sinks[4].flows)
	}
	// Re-pinning to the primary replaces the old entries.
	c.PinFlow(7, 100, alts[0])
	if len(sinks[3].flows) != 0 {
		t.Errorf("stale entries after re-pin: %v", sinks[3].flows)
	}
	if via := sinks[2].flows[[2]uint64{7, 100}]; via != 4 {
		t.Errorf("dc2 pin after re-pin via %v, want 4", via)
	}
	c.UnpinFlow(7)
	if len(sinks[1].flows)+len(sinks[2].flows) != 0 {
		t.Error("entries survived UnpinFlow")
	}
	if _, ok := c.PinnedPath(7); ok {
		t.Error("PinnedPath after UnpinFlow")
	}
}
