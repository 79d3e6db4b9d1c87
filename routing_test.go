package jqos_test

import (
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/routing"
)

// buildDiamond wires the 4-DC diamond used by the reroute tests:
//
//	       dc2
//	  15ms/   \15ms        primary dc1→dc4: 30 ms (via dc2)
//	dc1        dc4         backup  dc1→dc4: 50 ms (via dc3)
//	  25ms\   /25ms
//	       dc3
//
// src hangs off dc1 (5 ms), dst off dc4 (8 ms). No host pair has a direct
// Internet path — everything rides the overlay.
func buildDiamond(t *testing.T, seed int64, cfg jqos.Config) (*jqos.Deployment, [4]jqos.NodeID, jqos.NodeID, jqos.NodeID) {
	t.Helper()
	d := jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 := d.AddDC("dc1", dataset.RegionUSEast)
	dc2 := d.AddDC("dc2", dataset.RegionUSWest)
	dc3 := d.AddDC("dc3", dataset.RegionEU)
	dc4 := d.AddDC("dc4", dataset.RegionAsia)
	d.ConnectDCs(dc1, dc2, 15*time.Millisecond)
	d.ConnectDCs(dc2, dc4, 15*time.Millisecond)
	d.ConnectDCs(dc1, dc3, 25*time.Millisecond)
	d.ConnectDCs(dc3, dc4, 25*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc4, 8*time.Millisecond)
	return d, [4]jqos.NodeID{dc1, dc2, dc3, dc4}, src, dst
}

// TestSparseOverlayMultiHopForwarding is what the seed could not do at
// all: register a flow between DCs with no direct inter-DC link. Service
// selection must see the routed latency and the data plane must cross two
// overlay hops.
func TestSparseOverlayMultiHopForwarding(t *testing.T) {
	// Line: dc1 —20ms— dc2 —20ms— dc3; src@dc1, dst@dc3, no direct path.
	d := jqos.NewDeployment(60)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionUSWest)
	dc3 := d.AddDC("c", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
	d.ConnectDCs(dc2, dc3, 20*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc3, 8*time.Millisecond)

	// Prediction uses the routed 40 ms dc1→dc3 latency.
	if x, ok := d.Topology().InterDC(dc1, dc3); !ok || x != 40*time.Millisecond {
		t.Fatalf("routed InterDC = %v %v, want 40ms", x, ok)
	}
	// With no direct path, only forwarding can serve the flow; selection
	// must find it on its own.
	f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if f.Service() != jqos.ServiceForwarding {
		t.Fatalf("selected %v, want forwarding", f.Service())
	}
	var lats []time.Duration
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		lats = append(lats, del.At-del.Packet.Sent)
	})
	const n = 100
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("sparse")) })
	}
	d.Run(5 * time.Second)
	if f.Metrics().Delivered != n {
		t.Fatalf("delivered %d of %d", f.Metrics().Delivered, n)
	}
	// Two overlay hops: 5 + 20 + 20 + 8 = 53 ms (+ jitter).
	for _, lat := range lats {
		if lat < 52*time.Millisecond || lat > 60*time.Millisecond {
			t.Fatalf("multi-hop latency = %v, want ~53ms", lat)
		}
	}
	if f.Metrics().OnTime != n {
		t.Errorf("on-time %d of %d", f.Metrics().OnTime, n)
	}
}

// TestRerouteAcrossLinkFailure is the acceptance scenario: a forwarding
// flow crosses ≥2 overlay hops; the primary inter-DC link fails mid-flow;
// the monitor detects it, the controller reroutes via the alternate path,
// and packets keep arriving within budget — without sender involvement.
func TestRerouteAcrossLinkFailure(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	d, dcs, src, dst := buildDiamond(t, 61, cfg)

	budget := 300 * time.Millisecond
	f, err := d.RegisterFlow(fixedSpec(src, dst, budget, jqos.ServiceForwarding))
	if err != nil {
		t.Fatal(err)
	}
	type arrival struct {
		seq core.Seq
		lat time.Duration
	}
	var got []arrival
	sent := make(map[core.Seq]time.Duration)
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		got = append(got, arrival{del.Packet.ID.Seq, del.At - del.Packet.Sent})
	})

	const n = 800 // 4 s of traffic at 5 ms spacing
	failAt := 1500 * time.Millisecond
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { sent[f.Send([]byte("reroute me"))] = at })
	}
	d.Sim().At(failAt, func() { d.Link(dcs[1], dcs[3]).Disconnect() }) // dc2—dc4 dies
	d.Run(10 * time.Second)

	// The link must be observed down and routes must have moved.
	if h, ok := d.Link(dcs[1], dcs[3]).Health(); !ok || h.State != routing.LinkDown {
		t.Fatalf("link health = %+v %v, want down", h, ok)
	}
	st := d.Snapshot().Routing
	if st.LinkFailures == 0 || st.Reroutes == 0 || st.RouteChanges == 0 {
		t.Fatalf("no reroute recorded: %+v", st)
	}
	if via, ok := d.DC(dcs[0]).Forwarder().Route(dcs[3]); !ok || via != dcs[2] {
		t.Errorf("dc1→dc4 via %v, want dc3", via)
	}

	// Every packet sent after the monitor converged (detection needs
	// FailAfter probes + timeout; 1 s is generous at 100 ms probes) must
	// arrive within budget via the alternate path.
	converged := failAt + time.Second
	delivered := make(map[core.Seq]time.Duration)
	for _, a := range got {
		delivered[a.seq] = a.lat
	}
	late, missing := 0, 0
	for seq, at := range sent {
		if at <= converged {
			continue
		}
		lat, ok := delivered[seq]
		if !ok {
			missing++
			continue
		}
		if lat > budget {
			late++
		}
	}
	if missing != 0 || late != 0 {
		t.Errorf("after convergence: %d missing, %d late", missing, late)
	}
	// Post-failure deliveries ride dc1→dc3→dc4: 5+25+25+8 ≈ 63 ms.
	var post []time.Duration
	for seq, at := range sent {
		if at > converged {
			if lat, ok := delivered[seq]; ok {
				post = append(post, lat)
			}
		}
	}
	if len(post) == 0 {
		t.Fatal("no post-failure deliveries")
	}
	for _, lat := range post {
		if lat < 61*time.Millisecond || lat > 70*time.Millisecond {
			t.Fatalf("post-failure latency %v, want ~63ms (alternate path)", lat)
		}
	}
	// The detection gap is bounded: most of the flow still arrived.
	if miss := n - len(delivered); miss > 200 {
		t.Errorf("%d of %d packets lost to the failure window", miss, n)
	}
}

// TestRerouteRecovery restores the failed link and checks traffic moves
// back to the primary path.
func TestRerouteRecovery(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	d, dcs, src, dst := buildDiamond(t, 62, cfg)
	f, err := d.RegisterFlow(fixedSpec(src, dst, 300*time.Millisecond, jqos.ServiceForwarding))
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) { last = del.At - del.Packet.Sent })
	const n = 1200 // 6 s of traffic
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("x")) })
	}
	d.Sim().At(1500*time.Millisecond, func() { d.Link(dcs[1], dcs[3]).Disconnect() })
	d.Sim().At(3500*time.Millisecond, func() {
		d.Link(dcs[1], dcs[3]).Set(15*time.Millisecond, 0)
	})
	d.Run(12 * time.Second)
	st := d.Snapshot().Routing
	if st.LinkFailures == 0 || st.LinkRecoveries == 0 {
		t.Fatalf("failure/recovery not observed: %+v", st)
	}
	if h, _ := d.Link(dcs[1], dcs[3]).Health(); h.State != routing.LinkUp {
		t.Errorf("link state = %v after repair", h.State)
	}
	if via, ok := d.DC(dcs[0]).Forwarder().Route(dcs[3]); !ok || via != dcs[1] {
		t.Errorf("dc1→dc4 via %v after recovery, want dc2", via)
	}
	// Final packets ride the restored 30 ms primary again (~43 ms e2e).
	if last < 42*time.Millisecond || last > 50*time.Millisecond {
		t.Errorf("final latency %v, want ~43ms (primary path)", last)
	}
}

// TestDegradedLinkShiftsSelection: Link(a, b).Set slows the primary link;
// the monitor degrades it and routed latency (hence PredictDelay and new
// registrations) follows.
func TestDegradedLinkQualityShiftsRoutes(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	d, dcs, src, dst := buildDiamond(t, 63, cfg)
	f, err := d.RegisterFlow(fixedSpec(src, dst, time.Second, jqos.ServiceForwarding))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("x")) })
	}
	// Slow dc2—dc4 from 15 ms to 120 ms: still up, but the backup path
	// (50 ms) is now far better.
	d.Sim().At(time.Second, func() {
		d.Link(dcs[1], dcs[3]).Set(120*time.Millisecond, 0)
	})
	d.Run(12 * time.Second)
	st := d.Snapshot().Routing
	if st.LinkDegrades == 0 && st.RouteChanges == 0 {
		t.Fatalf("degradation never moved routes: %+v", st)
	}
	if via, ok := d.DC(dcs[0]).Forwarder().Route(dcs[3]); !ok || via != dcs[2] {
		t.Errorf("dc1→dc4 via %v, want dc3 (degraded primary)", via)
	}
	// Routed latency tracks the detour.
	if x, ok := d.Topology().InterDC(dcs[0], dcs[3]); !ok || x < 45*time.Millisecond {
		t.Errorf("routed latency = %v %v, want ≥50ms-ish", x, ok)
	}
}

// TestRoutingStatsSurface sanity-checks the deployment-level accessors.
func TestRoutingStatsSurface(t *testing.T) {
	d, dcs, _, _ := buildDiamond(t, 64, jqos.DefaultConfig())
	st := d.Snapshot().Routing
	if st.Recomputes == 0 || st.Pushes == 0 {
		t.Errorf("setup produced no control-plane activity: %+v", st)
	}
	ps := d.Routing().Paths(dcs[0], dcs[3], 2)
	if len(ps) != 2 {
		t.Fatalf("got %d paths", len(ps))
	}
	if ps[0].Cost != 30*time.Millisecond || ps[1].Cost != 50*time.Millisecond {
		t.Errorf("path costs = %v / %v", ps[0].Cost, ps[1].Cost)
	}
	if _, ok := d.Link(dcs[0], dcs[1]).Health(); !ok {
		t.Error("tracked link has no health")
	}
}
