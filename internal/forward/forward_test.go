package forward

import (
	"strings"
	"testing"

	"jqos/internal/core"
)

func TestUnicastDefaultsToDirect(t *testing.T) {
	f := New(1)
	emits := f.Forward(9, []byte("m"))
	if len(emits) != 1 || emits[0].To != 9 {
		t.Fatalf("emits = %+v", emits)
	}
	st := f.Stats()
	if st.Unicast != 1 || st.Copies != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestExplicitRoute(t *testing.T) {
	f := New(1)
	f.SetRoute(9, 2) // via DC 2
	emits := f.Forward(9, nil)
	if len(emits) != 1 || emits[0].To != 2 {
		t.Fatalf("emits = %+v", emits)
	}
	f.DeleteRoute(9)
	if emits := f.Forward(9, nil); emits[0].To != 9 {
		t.Error("route not deleted")
	}
}

func TestMulticastFanOut(t *testing.T) {
	f := New(1)
	f.SetGroup(100, 30, 10, 20)
	if !f.IsGroup(100) || f.IsGroup(99) {
		t.Error("IsGroup")
	}
	if g := f.Group(100); len(g) != 3 || g[0] != 10 || g[2] != 30 {
		t.Errorf("group not sorted: %v", g)
	}
	msg := []byte("frame")
	emits := f.Forward(100, msg)
	if len(emits) != 3 {
		t.Fatalf("fan-out = %d", len(emits))
	}
	for i, want := range []core.NodeID{10, 20, 30} {
		if emits[i].To != want {
			t.Errorf("emit %d to %v", i, emits[i].To)
		}
		if &emits[i].Msg[0] != &msg[0] {
			t.Error("multicast should share message bytes")
		}
	}
	st := f.Stats()
	if st.Multicast != 1 || st.Copies != 3 {
		t.Errorf("stats: %+v", st)
	}
}

func TestSelfLoopSuppressed(t *testing.T) {
	f := New(1)
	f.SetRoute(9, 1) // misconfigured: route points at self
	emits := f.Forward(9, nil)
	if len(emits) != 0 {
		t.Fatalf("self-loop emitted: %+v", emits)
	}
	if f.Stats().NoRoute != 1 {
		t.Errorf("NoRoute = %d", f.Stats().NoRoute)
	}
}

func TestGroupWithSelfMember(t *testing.T) {
	f := New(1)
	f.SetGroup(100, 1, 2) // group includes this DC
	emits := f.Forward(100, nil)
	if len(emits) != 1 || emits[0].To != 2 {
		t.Errorf("emits = %+v", emits)
	}
}

// TestNextHops: a group resolves to its members, a routed destination to
// its next hop, and an unrouted one to itself.
func TestNextHops(t *testing.T) {
	f := New(1)
	f.SetGroup(100, 5, 6)
	f.SetRoute(7, 2)
	if e := f.Forward(100, nil); len(e) != 2 || e[0].To != 5 || e[1].To != 6 {
		t.Errorf("group hops: %+v", e)
	}
	if e := f.Forward(7, nil); len(e) != 1 || e[0].To != 2 {
		t.Errorf("routed hops: %+v", e)
	}
	if e := f.Forward(42, nil); len(e) != 1 || e[0].To != 42 {
		t.Errorf("default hops: %+v", e)
	}
}

func TestSetGroupReplaces(t *testing.T) {
	f := New(1)
	f.SetGroup(100, 5, 6)
	f.SetGroup(100, 7)
	if g := f.Group(100); len(g) != 1 || g[0] != 7 {
		t.Errorf("group after replace: %v", g)
	}
}

func TestStringer(t *testing.T) {
	f := New(3)
	f.SetRoute(9, 2)
	f.SetGroup(100, 5)
	if s := f.String(); !strings.Contains(s, "1 routes") || !strings.Contains(s, "1 groups") {
		t.Errorf("String = %q", s)
	}
}

func TestFlowRoutes(t *testing.T) {
	f := New(1)
	f.SetRoute(9, 2)        // shared table: via DC 2
	f.SetFlowRoute(7, 9, 3) // flow 7 pinned via DC 3
	if via, ok := f.FlowRoute(7, 9); !ok || via != 3 {
		t.Fatalf("FlowRoute = %v %v", via, ok)
	}
	// Pins are scoped: other flows, and the same flow toward other
	// destinations, see no entry (and fall back to the shared table).
	if _, ok := f.FlowRoute(8, 9); ok {
		t.Error("pin leaked to another flow")
	}
	if _, ok := f.FlowRoute(7, 5); ok {
		t.Error("pin leaked to another destination")
	}
	if via, _ := f.Route(9); via != 2 {
		t.Error("shared table clobbered by the pin")
	}
	// Pinned data counts like a unicast Forward; pinned engine emits
	// count only the FlowPinned marker (their unpinned twins bypass the
	// forwarder entirely).
	f.NotePinned(true)
	f.NotePinned(false)
	if st := f.Stats(); st.FlowPinned != 2 || st.Copies != 1 || st.Unicast != 1 {
		t.Errorf("stats: %+v", st)
	}
	f.DeleteFlowRoute(7, 9)
	if f.FlowRouteCount() != 0 {
		t.Error("flow route not deleted")
	}
	if _, ok := f.FlowRoute(7, 9); ok {
		t.Error("deleted pin still resolves")
	}
}

// TestForwardAllocatesNothing pins the steady state of the three answers —
// tabled unicast, direct unicast, multicast fan-out, and an old-epoch
// resolve — which all come back in the forwarder's own buffers.
func TestForwardAllocatesNothing(t *testing.T) {
	f := New(1)
	f.SetRoute(9, 2)
	f.SetGroup(100, 30, 10, 20)
	f.BeginEpoch(1)
	f.SetRoute(9, 3)
	msg := []byte("m")
	var to [4]core.NodeID
	n := testing.AllocsPerRun(100, func() {
		to[0] = f.Forward(9, msg)[0].To
		to[1] = f.Forward(8, msg)[0].To
		to[2] = f.Forward(100, msg)[2].To
		to[3] = f.ForwardTagged(0, 9, msg)[0].To
	})
	if n != 0 {
		t.Errorf("Forward allocates %v times per four calls, want 0", n)
	}
	if to != [4]core.NodeID{3, 8, 30, 2} {
		t.Errorf("next hops = %v", to)
	}
	// The answer is the forwarder's buffer: the next call overwrites it.
	first := f.Forward(9, msg)
	f.Forward(8, msg)
	if first[0].To != 8 {
		t.Errorf("Forward returned a buffer of its own: %v", first)
	}
}
