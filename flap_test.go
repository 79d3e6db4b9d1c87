package jqos_test

import (
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/routing"
)

// buildTriangle: dc1—dc3 direct (20 ms, the cheapest 1-hop a→c route)
// with a dc1—dc2—dc3 2-hop alternate (10+10 ms), fast probing, and one
// cheapest-pinned RepinOnHeal flow riding the direct link.
func buildTriangle(t *testing.T, seed int64) (*jqos.Deployment, [3]jqos.NodeID, *jqos.Flow) {
	t.Helper()
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	d := jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionUSWest)
	dc3 := d.AddDC("c", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 10*time.Millisecond)
	d.ConnectDCs(dc2, dc3, 10*time.Millisecond)
	d.ConnectDCs(dc1, dc3, 20*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc3, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(40*time.Millisecond), nil)
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Path:        jqos.PathPolicy{Kind: jqos.PathCheapest},
		RepinOnHeal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := f.Path(); len(p) != 2 || p[0] != dc1 || p[1] != dc3 {
		t.Fatalf("cheapest pin resolved to %v, want the direct dc1→dc3 hop", p)
	}
	return d, [3]jqos.NodeID{dc1, dc2, dc3}, f
}

// TestRapidFlapLeavesNoResidue is the regression guard for the
// pin/repin state machine under link flapping: cycles faster than the
// probe hysteresis (which must be absorbed without any route change)
// followed by slow cycles (which must fail over and repin on heal). At
// every cycle boundary the flow holds exactly one pin — never none,
// never a double pin — and after the last heal it is back on the
// preferred link; once it closes, no pin is left.
func TestRapidFlapLeavesNoResidue(t *testing.T) {
	d, dcs, f := buildTriangle(t, 60)
	dc1, dc3 := dcs[0], dcs[2]

	// Background traffic across the whole test window.
	for at := time.Duration(0); at < 12*time.Second; at += 10 * time.Millisecond {
		at := at
		d.Sim().At(at, func() { f.Send(make([]byte, 200)) })
	}

	checkExactlyOnePin := func(cycle string) {
		t.Helper()
		ctrl := d.Routing()
		if n := ctrl.PinnedCount(); n != 1 {
			t.Fatalf("%s: %d pins, want exactly 1", cycle, n)
		}
	}

	// Six rapid cycles: 40 ms down / 260 ms up. Even at the suspicious
	// fast cadence (25 ms rounds) a 40 ms outage fits at most two probes,
	// so the 3-strike hysteresis must absorb the flaps without any route
	// change; the long up phase lets the loss streak reset between cycles.
	for i := 0; i < 6; i++ {
		d.Link(dc1, dc3).Disconnect()
		d.Run(40 * time.Millisecond)
		d.Link(dc1, dc3).Reconnect()
		d.Run(260 * time.Millisecond)
		checkExactlyOnePin("rapid cycle")
	}
	if p := f.Path(); len(p) != 2 {
		t.Fatalf("sub-hysteresis flaps moved the flow off its pin: %v", p)
	}

	// Three slow cycles: 1 s down (failure detected, pin fails over to
	// dc1→dc2→dc3), 1.5 s up (recovery detected, RepinOnHeal returns it).
	for i := 0; i < 3; i++ {
		d.Link(dc1, dc3).Disconnect()
		d.Run(time.Second)
		checkExactlyOnePin("slow cycle (down)")
		d.Link(dc1, dc3).Reconnect()
		d.Run(1500 * time.Millisecond)
		checkExactlyOnePin("slow cycle (up)")
	}

	d.Run(2 * time.Second)
	if p := f.Path(); len(p) != 2 || p[0] != dc1 || p[1] != dc3 {
		t.Errorf("after final heal, path = %v, want repinned to direct dc1→dc3", p)
	}
	if m := f.Metrics(); m.Delivered == 0 {
		t.Error("no traffic delivered across the flap sequence")
	}

	f.Close()
	d.RunUntilQuiet()
	if n := d.Routing().PinnedCount(); n != 0 {
		t.Errorf("residue after Close: %d pins", n)
	}
}

// TestOneWayPartitionDetected: a fault that kills only one direction of
// a link must still fail the link — probes cross it one way and their
// answers the other, so the monitor sees 100% probe loss whichever
// direction carries the fault — and the one-way reconnect must heal it.
func TestOneWayPartitionDetected(t *testing.T) {
	for name, cut := range map[string]func(d *jqos.Deployment, a, b core.NodeID){
		"forward": func(d *jqos.Deployment, a, b core.NodeID) { d.Link(a, b).DisconnectOneWay() },
		"reverse": func(d *jqos.Deployment, a, b core.NodeID) { d.Link(b, a).DisconnectOneWay() },
	} {
		t.Run(name, func(t *testing.T) {
			d, dcs, f := buildTriangle(t, 61)
			dc1, dc3 := dcs[0], dcs[2]
			cut(d, dc1, dc3)
			d.Run(2 * time.Second)
			if h, ok := d.Link(dc1, dc3).Health(); !ok || h.State != routing.LinkDown {
				t.Fatalf("half-dead link health = %+v (ok=%v), want down", h, ok)
			}
			// The cheapest pin failed over to the surviving 2-hop route.
			if p := f.Path(); len(p) != 3 {
				t.Fatalf("flow still on the half-dead link: %v", p)
			}
			// Heal only the direction that was cut.
			if name == "forward" {
				d.Link(dc1, dc3).ReconnectOneWay()
			} else {
				d.Link(dc3, dc1).ReconnectOneWay()
			}
			d.Run(2 * time.Second)
			if h, ok := d.Link(dc1, dc3).Health(); !ok || h.State == routing.LinkDown {
				t.Fatalf("link health = %+v (ok=%v) after one-way heal, want recovered", h, ok)
			}
			if p := f.Path(); len(p) != 2 {
				t.Errorf("RepinOnHeal did not return the flow to the healed link: %v", p)
			}
		})
	}
}

// TestAsymmetricDegradeRaisesRTT: Link.SetOneWay on one direction
// must show up in the monitor's round-trip estimate (probes pay the
// extra one-way latency) without taking the link down.
func TestAsymmetricDegradeRaisesRTT(t *testing.T) {
	d, dcs, _ := buildTriangle(t, 62)
	dc1, dc3 := dcs[0], dcs[2]
	d.Run(2 * time.Second)
	h0, ok := d.Link(dc1, dc3).Health()
	if !ok || h0.RTT == 0 {
		t.Fatalf("no baseline RTT estimate: %+v", h0)
	}
	d.Link(dc1, dc3).SetOneWay(120*time.Millisecond, 0)
	d.Run(3 * time.Second)
	h1, ok := d.Link(dc1, dc3).Health()
	if !ok {
		t.Fatal("link health vanished")
	}
	if h1.State == routing.LinkDown {
		t.Fatalf("loss-free one-way degrade took the link down: %+v", h1)
	}
	// One direction went 20 ms → ~120 ms, so the round trip gained
	// ~100 ms; the EWMA should have absorbed most of it by now.
	if h1.RTT < h0.RTT+60*time.Millisecond {
		t.Errorf("RTT estimate %v after one-way degrade (baseline %v), want ≥ baseline+60ms", h1.RTT, h0.RTT)
	}
}
