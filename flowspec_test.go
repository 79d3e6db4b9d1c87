package jqos_test

import (
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/routing"
	"jqos/internal/telemetry"
)

// recorder logs a flow's events. A reroute event names only the new
// path's ends, so the recorder keeps the path it last saw (seeded by the
// test after registration) to log {old, next} pairs.
type recorder struct {
	changes    []serviceChange
	reroutes   [][2][]jqos.NodeID
	last       []jqos.NodeID
	violations int
}

// serviceChange is one service-change event: the flow moved From → To.
type serviceChange struct {
	At       time.Duration
	From, To jqos.Service
	Reason   jqos.ServiceChangeReason
}

// upgrades lists the services the flow moved up to, in order.
func (r *recorder) upgrades() []jqos.Service {
	var ups []jqos.Service
	for _, ch := range r.changes {
		if ch.To > ch.From {
			ups = append(ups, ch.To)
		}
	}
	return ups
}

func (r *recorder) onEvent(f *jqos.Flow, e telemetry.Event) {
	switch e.Kind {
	case telemetry.KindServiceChange:
		r.changes = append(r.changes, serviceChange{
			At: e.At, From: jqos.Service(e.V1), To: e.Class,
			Reason: jqos.ServiceChangeReason(e.Reason),
		})
	case telemetry.KindReroute:
		next := f.Path()
		r.reroutes = append(r.reroutes, [2][]jqos.NodeID{r.last, next})
		r.last = next
	case telemetry.KindBudgetViolation:
		r.violations++
	}
}

// TestFlowSpecValidation covers the new error paths.
func TestFlowSpecValidation(t *testing.T) {
	d := jqos.NewDeployment(3)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc1, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(20*time.Millisecond), nil)
	cases := []struct {
		name string
		spec jqos.FlowSpec
	}{
		{"unknown source", jqos.FlowSpec{Src: 999, Dst: dst, Budget: time.Second}},
		{"no destination", jqos.FlowSpec{Src: src, Budget: time.Second}},
		{"group without members", jqos.FlowSpec{Src: src, Group: 50, Budget: time.Second}},
		{"dst and members both set", jqos.FlowSpec{Src: src, Dst: dst, Group: 50,
			Members: []jqos.NodeID{dst}, Budget: time.Second}},
		{"no budget", jqos.FlowSpec{Src: src, Dst: dst}},
		// Service's zero value is ServiceInternet: a bare ServiceFixed
		// must not silently strip cloud recovery.
		{"fixed zero-value service", jqos.FlowSpec{Src: src, Dst: dst, Budget: time.Second,
			ServiceFixed: true}},
		// Service without ServiceFixed would be silently ignored by
		// selection — reject the ambiguity instead.
		{"service without fixed", jqos.FlowSpec{Src: src, Dst: dst, Budget: time.Second,
			Service: jqos.ServiceCaching}},
	}
	for _, c := range cases {
		if _, err := d.RegisterFlow(c.spec); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestBidirectionalAdaptation is the downgrade acceptance scenario: a
// flow upgrades while the direct path is congested, then — after the
// path recovers and the flow sustains over-delivery — steps back down,
// never below coding (Internet is not allowed), with hysteresis backing off after a
// premature downgrade gets reversed.
func TestBidirectionalAdaptation(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 500 * time.Millisecond
	d := jqos.NewDeploymentWithConfig(20, cfg)
	dc1 := d.AddDC("us-east", dataset.RegionUSEast)
	dc2 := d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 30*time.Millisecond)
	src := d.AddHost(dc1, 3*time.Millisecond)
	dst := d.AddHost(dc2, 4*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(60*time.Millisecond), nil)

	rec := &recorder{}
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst,
		Budget:  100 * time.Millisecond,
		OnEvent: rec.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Service() != jqos.ServiceCoding {
		t.Fatalf("initial service = %v, want coding", f.Service())
	}

	for i := 0; i < 2000; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("tick")) })
	}
	// Congest the live direct path at 1 s; repair it at 5 s.
	d.Sim().At(time.Second, func() {
		d.Network().Connect(src, dst,
			netem.NewLink(d.Sim(), netem.FixedDelay(150*time.Millisecond), nil))
	})
	d.Sim().At(5*time.Second, func() {
		d.Network().Connect(src, dst,
			netem.NewLink(d.Sim(), netem.FixedDelay(60*time.Millisecond), nil))
	})
	d.Run(30 * time.Second)

	if ups := rec.upgrades(); len(ups) == 0 || ups[len(ups)-1] != jqos.ServiceForwarding {
		t.Fatalf("never upgraded to forwarding: %v (onTime %d/%d)",
			ups, f.Metrics().OnTime, f.Metrics().Delivered)
	}
	if rec.violations == 0 {
		t.Error("no budget-violation events")
	}
	downs := 0
	for _, ch := range rec.changes {
		if ch.To > jqos.ServiceForwarding || ch.To < jqos.ServiceCoding {
			t.Errorf("service left [coding, forwarding]: %+v", ch)
		}
		if ch.Reason == jqos.ReasonOverDelivery {
			downs++
			if ch.To >= ch.From {
				t.Errorf("over-delivery change went up: %+v", ch)
			}
		}
	}
	if downs < 2 {
		t.Fatalf("downgrades = %d, want ≥2 (changes: %+v)", downs, rec.changes)
	}
	// Over-delivering on the repaired 60 ms path, the flow must end at
	// coding — the cheapest recovery service whose prediction fits.
	if f.Service() != jqos.ServiceCoding {
		t.Errorf("final service = %v, want coding; changes: %+v",
			f.Service(), rec.changes)
	}
	// The flow moved both ways; the snapshot's counter must count every
	// move the events reported.
	if rows := d.Snapshot().Flows; len(rows) != 1 {
		t.Errorf("snapshot carries %d flow rows, want 1", len(rows))
	} else if rows[0].ServiceChanges != len(rec.changes) {
		t.Errorf("snapshot ServiceChanges = %d, OnEvent saw %d service-change events", rows[0].ServiceChanges, len(rec.changes))
	}
}

// TestAdaptationResumesAfterIdle: the adaptation ticker parks while a
// flow is dormant (so the simulator can drain) but re-arms on the next
// Send — a pause must not disable adaptation for the rest of the flow's
// life.
func TestAdaptationResumesAfterIdle(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 500 * time.Millisecond
	d := jqos.NewDeploymentWithConfig(30, cfg)
	dc1 := d.AddDC("us-east", dataset.RegionUSEast)
	dc2 := d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 30*time.Millisecond)
	src := d.AddHost(dc1, 3*time.Millisecond)
	dst := d.AddHost(dc2, 4*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(60*time.Millisecond), nil)
	rec := &recorder{}
	f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: 100 * time.Millisecond, OnEvent: rec.onEvent})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy burst, then 3 s of silence — well past the two idle
	// windows that park the ticker.
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("a")) })
	}
	// The path congests during the silence; the flow resumes into it.
	d.Sim().At(2*time.Second, func() {
		d.Network().Connect(src, dst,
			netem.NewLink(d.Sim(), netem.FixedDelay(150*time.Millisecond), nil))
	})
	for i := 0; i < 600; i++ {
		at := 4*time.Second + time.Duration(i)*10*time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("b")) })
	}
	d.Run(20 * time.Second)
	if len(rec.upgrades()) == 0 {
		t.Fatalf("adaptation never resumed after idle: service=%v onTime=%d/%d",
			f.Service(), f.Metrics().OnTime, f.Metrics().Delivered)
	}
}

// TestLowRateFlowAdapts: a flow delivering fewer than 20 packets per
// adaptation window still upgrades — a short window carries into the
// next rather than being thrown away. 10 pkt/s against a 500 ms window
// is 5 deliveries per tick. The flow selects plain Internet on a 30 ms
// direct path that slows to 150 ms after registration, so every delivery
// misses the 100 ms budget.
func TestLowRateFlowAdapts(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 500 * time.Millisecond
	d := jqos.NewDeploymentWithConfig(39, cfg)
	dc1 := d.AddDC("us-east", dataset.RegionUSEast)
	dc2 := d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(30*time.Millisecond), nil)
	rec := &recorder{}
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 100 * time.Millisecond, AllowInternet: true,
		OnEvent: rec.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Service() != jqos.ServiceInternet {
		t.Fatalf("selection picked %v, want Internet (the test's premise)", f.Service())
	}
	d.Network().Connect(src, dst, netem.NewLink(d.Sim(), netem.FixedDelay(150*time.Millisecond), nil))
	for i := 0; i < 300; i++ {
		d.Sim().At(time.Duration(i)*100*time.Millisecond, func() { f.Send([]byte("tick")) })
	}
	d.Run(30 * time.Second)
	if len(rec.upgrades()) == 0 {
		t.Fatalf("no upgrade in 30 s of late deliveries at 5 per window: %+v", rec.changes)
	}
	if ch := rec.changes[0]; ch.Reason != jqos.ReasonBudgetViolation || ch.To != jqos.ServiceCoding {
		t.Errorf("first change %+v, want a budget-violation upgrade to coding", ch)
	}
}

// TestPinnedPathForwardingAndFailover is the pinning acceptance scenario:
// a flow pinned to the k-th alternate demonstrably forwards over it
// (forwarder hop counters), and when the pinned path dies the
// post-recompute pass re-resolves it onto the survivor.
func TestPinnedPathForwardingAndFailover(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	d, dcs, src, dst := buildDiamond(t, 22, cfg)

	rec := &recorder{}
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst,
		Budget:  300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Path:    jqos.PathPolicy{Kind: jqos.PathPinned, Alternate: 1},
		OnEvent: rec.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.last = f.Path()
	// The pin resolved to the backup path dc1→dc3→dc4.
	wantPin := []jqos.NodeID{dcs[0], dcs[2], dcs[3]}
	if got := f.Path(); len(got) != 3 || got[1] != dcs[2] {
		t.Fatalf("pinned path = %v, want %v", got, wantPin)
	}

	type arrival struct {
		sentAt time.Duration
		lat    time.Duration
	}
	var lats []arrival
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		lats = append(lats, arrival{del.Packet.Sent, del.At - del.Packet.Sent})
	})

	const n = 800 // 4 s of traffic at 5 ms spacing
	failAt := 1500 * time.Millisecond
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("pin me")) })
	}
	d.Sim().At(failAt, func() { d.Link(dcs[0], dcs[2]).Disconnect() }) // dc1—dc3 dies
	d.Run(10 * time.Second)

	// Pre-failure traffic rode the pinned 50 ms path (≈63 ms end to
	// end), through dc3's forwarder and never dc2's.
	pre, post := 0, 0
	converged := failAt + 1500*time.Millisecond
	for _, a := range lats {
		at := a.sentAt
		switch {
		case at < failAt:
			pre++
			if a.lat < 61*time.Millisecond || a.lat > 70*time.Millisecond {
				t.Fatalf("pre-failure latency %v, want ~63ms (pinned alternate)", a.lat)
			}
		case at > converged:
			post++
			if a.lat < 42*time.Millisecond || a.lat > 50*time.Millisecond {
				t.Fatalf("post-failure latency %v, want ~43ms (primary)", a.lat)
			}
		}
	}
	if pre == 0 || post == 0 {
		t.Fatalf("thin coverage: %d pre, %d post", pre, post)
	}
	st3 := d.DC(dcs[2]).Forwarder().Stats()
	if st3.FlowPinned == 0 {
		t.Errorf("dc3 forwarder never saw pinned traffic: %+v", st3)
	}
	st1 := d.DC(dcs[0]).Forwarder().Stats()
	if st1.FlowPinned == 0 {
		t.Errorf("dc1 forwarder never pinned: %+v", st1)
	}

	// The pinned path died: the flow re-resolved onto the surviving
	// alternate.
	if h, ok := d.Link(dcs[0], dcs[2]).Health(); !ok || h.State != routing.LinkDown {
		t.Fatalf("link health = %+v %v, want down", h, ok)
	}
	if len(rec.reroutes) == 0 {
		t.Fatal("observer heard no reroute")
	}
	old := rec.reroutes[0][0]
	if len(old) != 3 || old[1] != dcs[2] {
		t.Errorf("reroute old path = %v, want via dc3", old)
	}
	if got := f.Path(); len(got) != 3 || got[1] != dcs[1] {
		t.Errorf("re-resolved path = %v, want via dc2", got)
	}
}

// TestSelectionPricesThePinnedPath: service selection for a pinned flow
// predicts against the path the flow will actually ride, not the
// controller's fastest path.
func TestSelectionPricesThePinnedPath(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d, _, src, dst := buildDiamond(t, 31, cfg)
	// Forwarding rides 5+30+8 = 43 ms on the primary but 5+50+8 = 63 ms
	// on alternate 1. A 50 ms budget fits only the primary.
	if f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 50 * time.Millisecond,
	}); err != nil || f.Service() != jqos.ServiceForwarding {
		t.Fatalf("fastest-path selection: %v, %v", f, err)
	}
	if _, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 50 * time.Millisecond,
		Path: jqos.PathPolicy{Kind: jqos.PathPinned, Alternate: 1},
	}); err == nil {
		t.Fatal("selection ignored the pinned path's 63 ms latency")
	}
	// A budget the alternate fits registers fine.
	if f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 80 * time.Millisecond,
		Path: jqos.PathPolicy{Kind: jqos.PathPinned, Alternate: 1},
	}); err != nil || f.Service() != jqos.ServiceForwarding {
		t.Fatalf("pinned-path selection: %v, %v", f, err)
	}
}

// TestPinnedPolicySurvivesTotalOutage: when every path between a pinned
// flow's DCs dies, the flow parks on a fallback watch and re-applies its
// policy as soon as the network heals — it does not stay unpinned
// forever.
func TestPinnedPolicySurvivesTotalOutage(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	d := jqos.NewDeploymentWithConfig(29, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	rec := &recorder{}
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Path:    jqos.PathPolicy{Kind: jqos.PathPinned},
		OnEvent: rec.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.last = f.Path()
	if p := f.Path(); len(p) != 2 {
		t.Fatalf("initial pin = %v", p)
	}
	for i := 0; i < 1200; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("x")) })
	}
	d.Sim().At(1500*time.Millisecond, func() { d.Link(dc1, dc2).Disconnect() })
	d.Sim().At(3500*time.Millisecond, func() { d.Link(dc1, dc2).Reconnect() })
	d.Run(12 * time.Second)
	if h, _ := d.Link(dc1, dc2).Health(); h.State != routing.LinkUp {
		t.Fatalf("link never recovered: %v", h.State)
	}
	// The policy re-applied after the heal: the pin is back.
	if p := f.Path(); len(p) != 2 || p[0] != dc1 || p[1] != dc2 {
		t.Errorf("pin not restored after heal: %v", p)
	}
	if len(rec.reroutes) < 2 {
		t.Errorf("reroutes = %d, want outage + heal", len(rec.reroutes))
	}
	// The last reroute restored the path.
	last := rec.reroutes[len(rec.reroutes)-1]
	if len(last[1]) != 2 {
		t.Errorf("final reroute to %v, want the restored path", last[1])
	}
}

// TestCheapestPathPolicy: with a fast 2-hop path and a slower 1-hop path,
// PathCheapest pins the fewest-egress route while PathFastest rides the
// low-latency primary.
func TestCheapestPathPolicy(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d := jqos.NewDeploymentWithConfig(23, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionUSWest)
	dc3 := d.AddDC("c", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 15*time.Millisecond)
	d.ConnectDCs(dc2, dc3, 15*time.Millisecond)
	d.ConnectDCs(dc1, dc3, 45*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc3, 8*time.Millisecond)

	fast, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Path: jqos.PathPolicy{Kind: jqos.PathCheapest},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := fast.Path(); len(p) != 3 || p[1] != dc2 {
		t.Fatalf("fastest path = %v, want via dc2", p)
	}
	if p := cheap.Path(); len(p) != 2 {
		t.Fatalf("cheapest path = %v, want the 1-hop dc1→dc3", p)
	}

	var fastLat, cheapLat []time.Duration
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		lat := del.At - del.Packet.Sent
		if del.Packet.ID.Flow == fast.ID() {
			fastLat = append(fastLat, lat)
		} else {
			cheapLat = append(cheapLat, lat)
		}
	})
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { fast.Send([]byte("f")); cheap.Send([]byte("c")) })
	}
	d.Run(5 * time.Second)
	if len(fastLat) != 200 || len(cheapLat) != 200 {
		t.Fatalf("deliveries: fast %d, cheap %d", len(fastLat), len(cheapLat))
	}
	// fast ≈ 5+15+15+8 = 43 ms; cheap ≈ 5+45+8 = 58 ms.
	for _, l := range fastLat {
		if l < 42*time.Millisecond || l > 50*time.Millisecond {
			t.Fatalf("fastest latency %v, want ~43ms", l)
		}
	}
	for _, l := range cheapLat {
		if l < 57*time.Millisecond || l > 65*time.Millisecond {
			t.Fatalf("cheapest latency %v, want ~58ms", l)
		}
	}
	// The cheapest flow bypassed dc2 entirely.
	if st := d.DC(dc2).Forwarder().Stats(); st.FlowPinned != 0 {
		t.Errorf("dc2 saw pinned traffic: %+v", st)
	}
}

// TestReconnect restores a blackholed link to its original shape without
// the caller re-specifying the latency.
func TestReconnect(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	d, dcs, src, dst := buildDiamond(t, 24, cfg)
	f, err := d.RegisterFlow(fixedSpec(src, dst, 300*time.Millisecond, jqos.ServiceForwarding))
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) { last = del.At - del.Packet.Sent })
	const n = 1200
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("x")) })
	}
	d.Sim().At(1500*time.Millisecond, func() { d.Link(dcs[1], dcs[3]).Disconnect() })
	d.Sim().At(3500*time.Millisecond, func() { d.Link(dcs[1], dcs[3]).Reconnect() })
	d.Run(12 * time.Second)
	st := d.Snapshot().Routing
	if st.LinkFailures == 0 || st.LinkRecoveries == 0 {
		t.Fatalf("failure/recovery not observed: %+v", st)
	}
	if h, _ := d.Link(dcs[1], dcs[3]).Health(); h.State != routing.LinkUp {
		t.Errorf("link state = %v after Reconnect", h.State)
	}
	if via, ok := d.DC(dcs[0]).Forwarder().Route(dcs[3]); !ok || via != dcs[1] {
		t.Errorf("dc1→dc4 via %v after reconnect, want dc2", via)
	}
	// Final packets ride the restored 30 ms primary again (~43 ms e2e) —
	// the original shape, not some hand-respecified one.
	if last < 42*time.Millisecond || last > 50*time.Millisecond {
		t.Errorf("final latency %v, want ~43ms (restored primary)", last)
	}

	// Reconnecting DCs that were never connected is a wiring bug.
	defer func() {
		if recover() == nil {
			t.Error("Reconnect on unconnected pair did not panic")
		}
	}()
	d.Link(dcs[0], dcs[3]).Reconnect()
}

// seededRTT sends one packet on f and reads the long timer the receiver at
// dst arms on its first arrival: that deadline less the arrival time is the
// RTT the receiver was seeded with.
func seededRTT(t *testing.T, d *jqos.Deployment, f *jqos.Flow, dst jqos.NodeID) time.Duration {
	t.Helper()
	rtt := time.Duration(-1)
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		if deadline, ok := d.Host(dst).Receiver(f.ID()).NextDeadline(); ok && rtt < 0 {
			rtt = deadline - del.At
		}
	})
	f.Send([]byte("x"))
	d.Run(time.Second)
	if rtt < 0 {
		t.Fatal("the packet never arrived")
	}
	return rtt
}

// TestReceiverRTTSeededFromOverlay: with no direct path installed, the
// receiver's RTT estimate comes from the routed overlay latency instead
// of degenerating to the static default.
func TestReceiverRTTSeededFromOverlay(t *testing.T) {
	d := jqos.NewDeployment(25)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionUSWest)
	dc3 := d.AddDC("c", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 60*time.Millisecond)
	d.ConnectDCs(dc2, dc3, 60*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc3, 8*time.Millisecond)
	f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Overlay one-way = 5+120+8 = 133 ms → RTT 266 ms.
	if got := seededRTT(t, d, f, dst); got != 266*time.Millisecond {
		t.Errorf("receiver RTT = %v, want 266ms (2× overlay path)", got)
	}

	// Tiny topologies floor at 2× the small timeout instead of a
	// degenerate sub-millisecond timer.
	d2 := jqos.NewDeployment(26)
	da := d2.AddDC("a", dataset.RegionUSEast)
	db := d2.AddDC("b", dataset.RegionEU)
	d2.ConnectDCs(da, db, time.Millisecond)
	s2 := d2.AddHost(da, time.Millisecond)
	r2 := d2.AddHost(db, time.Millisecond)
	f2, err := d2.RegisterFlow(jqos.FlowSpec{Src: s2, Dst: r2, Budget: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := seededRTT(t, d2, f2, r2); got != 50*time.Millisecond {
		t.Errorf("floored RTT = %v, want 50ms (2× the 25 ms small timeout)", got)
	}
}

// TestPartialOverlayTimerFlushedParity: in a single-DC deployment (DC1
// and DC2 are the same DC), parity flushed by the encoder's batch timer
// must loop back into the local recoverer like batch-full parity does —
// historically it was dropped for lack of a self-route, leaving losses
// in timer-flushed batches unrecoverable.
func TestPartialOverlayTimerFlushedParity(t *testing.T) {
	d := jqos.NewDeployment(32)
	dc := d.AddDC("solo", dataset.RegionUSEast)
	src := d.AddHost(dc, 5*time.Millisecond)
	dst := d.AddHost(dc, 8*time.Millisecond)
	// Drop the packet sent at t=100ms on the direct path so recovery
	// has work to do.
	outage := &netem.OutageSchedule{}
	outage.AddOutage(95*time.Millisecond, 10*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(30*time.Millisecond), outage)
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: time.Second,
		Service: jqos.ServiceCoding, ServiceFixed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fewer packets than the cross-stream K, so every batch flushes by
	// timer, never by filling.
	for i := 0; i < 8; i++ {
		at := time.Duration(i) * 20 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("timerflush")) })
	}
	d.Run(10 * time.Second)
	if drops := d.DC(dc).Dropped(); drops != 0 {
		t.Errorf("DC dropped %d datagrams (timer-flushed parity lost)", drops)
	}
	m := f.Metrics()
	if m.Delivered != 8 || m.Recovered == 0 {
		t.Errorf("delivered %d/8, recovered %d — loss not repaired from timer-flushed parity",
			m.Delivered, m.Recovered)
	}
}
