package jqos_test

import (
	"slices"
	"testing"
	"time"

	"jqos"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/routing"
)

// The post-recompute pass (Deployment.onRecompute) is the one place a
// flow's path follows the routing tables. These tests drive recomputes
// straight through the controller's health verdicts, so no probe timing
// is involved: each SetLinkHealth is one recompute and one pass.

// pinnedPath follows the per-flow entries the DCs' forwarders hold for flow
// toward dst, starting at ingress: the DC path the flow's packets take. It
// is nil when ingress holds no entry.
func pinnedPath(d *jqos.Deployment, flow jqos.FlowID, ingress, dst jqos.NodeID) []jqos.NodeID {
	var path []jqos.NodeID
	for at := ingress; len(path) < 16; {
		via, ok := d.DC(at).Forwarder().FlowRoute(flow, dst)
		if !ok {
			break
		}
		if path == nil {
			path = []jqos.NodeID{at}
		}
		path = append(path, via)
		at = via
	}
	return path
}

// TestFastestFlowFollowsPrimary: a PathFastest flow's Path() moves with
// the primary path, one reroute event per move, and a recompute that
// leaves the primary alone moves nothing.
func TestFastestFlowFollowsPrimary(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d, dcs, src, dst := buildDiamond(t, 43, cfg)
	rec := &recorder{}
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		OnEvent: rec.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.last = f.Path()
	viaDC2 := []jqos.NodeID{dcs[0], dcs[1], dcs[3]}
	viaDC3 := []jqos.NodeID{dcs[0], dcs[2], dcs[3]}
	if !slices.Equal(f.Path(), viaDC2) {
		t.Fatalf("registered path = %v, want %v", f.Path(), viaDC2)
	}
	ctrl := d.Routing()

	// Slowing the backup recomputes without moving the primary.
	ctrl.SetLinkHealth(dcs[0], dcs[2], routing.LinkDegraded, 40*time.Millisecond)
	if len(rec.reroutes) != 0 || !slices.Equal(f.Path(), viaDC2) {
		t.Fatalf("a recompute that kept the primary moved the flow: %v, path %v", rec.reroutes, f.Path())
	}

	// Killing a primary link moves it: one reroute, Path() follows.
	ctrl.SetLinkHealth(dcs[1], dcs[3], routing.LinkDown, 0)
	if len(rec.reroutes) != 1 || !slices.Equal(rec.reroutes[0][0], viaDC2) || !slices.Equal(rec.reroutes[0][1], viaDC3) {
		t.Fatalf("reroutes = %v, want one %v → %v", rec.reroutes, viaDC2, viaDC3)
	}
	// The flow follows the shared tables; it never holds a pin.
	if n := ctrl.PinnedCount(); n != 0 {
		t.Errorf("a PathFastest flow holds %d pins", n)
	}

	// Healing moves it back, again exactly once.
	ctrl.SetLinkHealth(dcs[1], dcs[3], routing.LinkUp, 0)
	if len(rec.reroutes) != 2 || !slices.Equal(f.Path(), viaDC2) {
		t.Fatalf("after heal: reroutes = %v, path %v, want a second move back to %v", rec.reroutes, f.Path(), viaDC2)
	}

	// A closed flow is no longer moved.
	f.Close()
	ctrl.SetLinkHealth(dcs[1], dcs[3], routing.LinkDown, 0)
	if len(rec.reroutes) != 2 || f.Path() != nil {
		t.Errorf("closed flow moved: reroutes = %d, path %v", len(rec.reroutes), f.Path())
	}
}

// TestDeadPinReresolves: a flow pinned to an alternate whose link dies
// re-resolves onto the surviving path; a failure off the pin does not
// touch it.
func TestDeadPinReresolves(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d, dcs, src, dst := buildDiamond(t, 44, cfg)
	rec := &recorder{}
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Path:    jqos.PathPolicy{Kind: jqos.PathPinned, Alternate: 1},
		OnEvent: rec.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.last = f.Path()
	viaDC2 := []jqos.NodeID{dcs[0], dcs[1], dcs[3]}
	viaDC3 := []jqos.NodeID{dcs[0], dcs[2], dcs[3]}
	ctrl := d.Routing()
	if p := pinnedPath(d, f.ID(), dcs[0], dst); !slices.Equal(p, viaDC3) {
		t.Fatalf("pin = %v, want %v", p, viaDC3)
	}

	// The primary dies: the pin rides on untouched.
	ctrl.SetLinkHealth(dcs[1], dcs[3], routing.LinkDown, 0)
	ctrl.SetLinkHealth(dcs[1], dcs[3], routing.LinkUp, 0)
	if len(rec.reroutes) != 0 || !slices.Equal(f.Path(), viaDC3) {
		t.Fatalf("a failure off the pin moved the flow: %v, path %v", rec.reroutes, f.Path())
	}

	// The pinned path dies: the flow re-resolves onto the survivor.
	ctrl.SetLinkHealth(dcs[2], dcs[3], routing.LinkDown, 0)
	if len(rec.reroutes) != 1 || !slices.Equal(rec.reroutes[0][0], viaDC3) || !slices.Equal(rec.reroutes[0][1], viaDC2) {
		t.Fatalf("reroutes = %v, want one %v → %v", rec.reroutes, viaDC3, viaDC2)
	}
	if p := pinnedPath(d, f.ID(), dcs[0], dst); !slices.Equal(p, viaDC2) {
		t.Errorf("pin after failover = %v, want %v", p, viaDC2)
	}
	if n := ctrl.PinnedCount(); n != 1 {
		t.Errorf("%d pins after failover, want 1", n)
	}
}

// TestParkedPinnedFlowPinsWhenPathAppears: a PathPinned flow registered
// while its DCs have no path between them holds no pin and no path; the
// recompute that connects them pins it.
func TestParkedPinnedFlowPinsWhenPathAppears(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d := jqos.NewDeploymentWithConfig(45, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(60*time.Millisecond), nil)
	rec := &recorder{}
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		AllowInternet: true, // no cloud service is priced without a DC path
		Path:          jqos.PathPolicy{Kind: jqos.PathPinned},
		OnEvent:       rec.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := d.Routing()
	if p := f.Path(); p != nil || ctrl.PinnedCount() != 0 {
		t.Fatalf("registered with no DC path: path %v, %d pins", p, ctrl.PinnedCount())
	}

	d.ConnectDCs(dc1, dc2, 30*time.Millisecond)
	want := []jqos.NodeID{dc1, dc2}
	if p := pinnedPath(d, f.ID(), dc1, dst); !slices.Equal(p, want) {
		t.Fatalf("pin after connect = %v, want %v", p, want)
	}
	if !slices.Equal(f.Path(), want) || len(rec.reroutes) != 1 {
		t.Errorf("path %v after %d reroutes, want %v after one", f.Path(), len(rec.reroutes), want)
	}
}
