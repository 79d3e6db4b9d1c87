package jqos_test

import (
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/telemetry"
)

// buildSquare wires the 4-DC square used by the congestion tests: two
// equal-latency two-hop paths between dc1 and dc4 (via dc2 and via dc3,
// 20 ms per link), with utilization accounting capacity on every link.
//
//	     dc2
//	 20ms/  \20ms
//	dc1      dc4     both dc1→dc4 paths cost 40 ms;
//	 20ms\  /20ms    deterministic tie-break picks via dc2
//	     dc3
func buildSquare(t *testing.T, seed int64, capacity int64) (*jqos.Deployment, [4]jqos.NodeID) {
	t.Helper()
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 0 // isolate the load feed from probing
	cfg.LinkCapacity = capacity
	d := jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 := d.AddDC("dc1", dataset.RegionUSEast)
	dc2 := d.AddDC("dc2", dataset.RegionUSWest)
	dc3 := d.AddDC("dc3", dataset.RegionEU)
	dc4 := d.AddDC("dc4", dataset.RegionAsia)
	d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
	d.ConnectDCs(dc2, dc4, 20*time.Millisecond)
	d.ConnectDCs(dc1, dc3, 20*time.Millisecond)
	d.ConnectDCs(dc3, dc4, 20*time.Millisecond)
	return d, [4]jqos.NodeID{dc1, dc2, dc3, dc4}
}

// TestCongestionShiftsNewPaths is the acceptance scenario: two overlay
// paths of equal latency; a pinned bulk flow saturates one; the load
// telemetry inflates its weight, the controller recomputes, and a newly
// registered flow rides the idle branch within budget — observable via
// Snapshot link rows and the congestion-reroute counter.
func TestCongestionShiftsNewPaths(t *testing.T) {
	d, dcs := buildSquare(t, 70, 1_000_000) // 1 MB/s accounting capacity
	bs := d.AddHost(dcs[0], 5*time.Millisecond)
	bd := d.AddHost(dcs[3], 8*time.Millisecond)

	// The bulk flow pins itself to the primary (via dc2) so it keeps
	// hammering that branch even after the shared tables move away.
	bulk, err := d.RegisterFlow(jqos.FlowSpec{
		Src: bs, Dst: bd, Budget: 500 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Path: jqos.PathPolicy{Kind: jqos.PathPinned, Alternate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := bulk.Path(); len(got) != 3 || got[1] != dcs[1] {
		t.Fatalf("bulk pinned path = %v, want via dc2", got)
	}
	// ~1.04 MB/s of bulk: 1040-byte messages at 1 ms spacing for 4 s.
	for i := 0; i < 4000; i++ {
		at := time.Duration(i) * time.Millisecond
		d.Sim().At(at, func() { bulk.Send(make([]byte, 1000)) })
	}
	d.Run(2500 * time.Millisecond)

	snap := d.Snapshot()
	ll, ok := snap.Link(dcs[0], dcs[1])
	if !ok || ll.Utilization < 0.9 {
		t.Fatalf("hot link load = %+v %v, want utilization ≥ 0.9", ll, ok)
	}
	if ll.AB.ClassRate[jqos.ServiceForwarding] == 0 {
		t.Fatalf("per-class breakdown empty: %+v", ll.AB)
	}
	if cool, ok := snap.Link(dcs[0], dcs[2]); !ok || cool.Utilization > 0.1 {
		t.Fatalf("idle link reads hot: %+v", cool)
	}
	st := snap.Routing
	if st.UtilizationUpdates == 0 || st.CongestionReroutes == 0 {
		t.Fatalf("load feed never moved routes: %+v", st)
	}
	// The utilization-inflated weight is visible on the graph, and newly
	// computed paths avoid the hot branch.
	if l := d.Routing().Graph().Link(dcs[0], dcs[1]); l.Util < 0.9 || l.Congest <= 1 {
		t.Fatalf("link weight not inflated: util=%v congest=%v", l.Util, l.Congest)
	}
	if via, ok := d.DC(dcs[0]).Forwarder().Route(dcs[3]); !ok || via != dcs[2] {
		t.Fatalf("dc1→dc4 via %v, want dc3 (idle branch)", via)
	}
	// The path oracle prices dc1→dc4 at the idle branch's honest 40 ms,
	// so service selection for new flows is not poisoned by the hot link.
	if x, ok := d.Topology().InterDC(dcs[0], dcs[3]); !ok || x != 40*time.Millisecond {
		t.Fatalf("routed latency = %v %v, want 40ms", x, ok)
	}

	// A new interactive flow lands on the idle branch and meets a budget
	// the hot branch (160 ms inflated, and actually saturated) could not
	// be trusted with.
	is := d.AddHost(dcs[0], 5*time.Millisecond)
	id := d.AddHost(dcs[3], 8*time.Millisecond)
	inter, err := d.RegisterFlow(jqos.FlowSpec{
		Src: is, Dst: id, Budget: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := inter.Path(); len(got) != 3 || got[1] != dcs[2] {
		t.Fatalf("interactive path = %v, want via dc3", got)
	}
	var worst time.Duration
	d.Host(id).SetDeliveryHandler(func(del core.Delivery) {
		if lat := del.At - del.Packet.Sent; lat > worst {
			worst = lat
		}
	})
	const n = 200
	for i := 0; i < n; i++ {
		at := 2500*time.Millisecond + time.Duration(i)*5*time.Millisecond
		d.Sim().At(at, func() { inter.Send([]byte("interactive")) })
	}
	d.Run(5 * time.Second)
	m := inter.Metrics()
	if m.Delivered != n || m.OnTime != n {
		t.Fatalf("interactive delivered %d on-time %d of %d", m.Delivered, m.OnTime, n)
	}
	// 5 + 20 + 20 + 8 = 53 ms plus sub-ms jitter: nowhere near the
	// inflated branch's behavior.
	if worst < 50*time.Millisecond || worst > 62*time.Millisecond {
		t.Fatalf("interactive worst latency %v, want ~53ms via the idle branch", worst)
	}
}

// admissionWatcher counts contract drops via the flow's event stream.
type admissionWatcher struct {
	drops int
	bytes int
}

func (w *admissionWatcher) onEvent(_ *jqos.Flow, e telemetry.Event) {
	if e.Kind == telemetry.KindAdmissionDrop {
		w.drops++
		w.bytes += int(e.V1)
	}
}

func buildTwoDC(t *testing.T, seed int64) (*jqos.Deployment, jqos.NodeID, jqos.NodeID) {
	t.Helper()
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d := jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), nil)
	return d, src, dst
}

// TestAdmissionPolicesCloudCopies: a flow exceeding its Rate contract
// loses the excess cloud copies (observer notified), while the direct
// Internet path still delivers everything — admission is judicious about
// cloud resources, not a packet filter.
func TestAdmissionPolicesCloudCopies(t *testing.T) {
	d, src, dst := buildTwoDC(t, 71)
	w := &admissionWatcher{}
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Rate: 100_000, Burst: 2000, // 100 kB/s, two-packet burst
		OnEvent: w.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 packets of 1000 wire bytes in one burst: 2 conform, 98 drop.
	for i := 0; i < 100; i++ {
		f.Send(make([]byte, 1000-40))
	}
	d.Run(5 * time.Second)
	m := f.Metrics()
	if m.AdmissionDropped != 98 {
		t.Fatalf("dropped %d, want 98", m.AdmissionDropped)
	}
	if w.drops != 98 || w.bytes != 98*1000 {
		t.Fatalf("observer saw %d drops / %d bytes", w.drops, w.bytes)
	}
	if m.Delivered != 100 {
		t.Fatalf("direct path delivered %d of 100", m.Delivered)
	}
}

func TestAdmissionSpecValidation(t *testing.T) {
	d, src, dst := buildTwoDC(t, 73)
	if _, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: time.Second, Rate: -1,
	}); err == nil {
		t.Fatal("negative Rate accepted")
	}
	if _, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: time.Second, Burst: 1000,
	}); err == nil {
		t.Fatal("Burst without Rate accepted")
	}
	if _, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: time.Second, Rate: 100_000, Burst: -1,
	}); err == nil {
		t.Fatal("negative Burst accepted")
	}
	// Burst defaults are normalized into the spec.
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: time.Second, Rate: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Spec().Burst; got != 25_000 {
		t.Fatalf("normalized Burst = %d, want rate/4", got)
	}
}

// TestFlowClose: teardown unpins the flow from the controller, clears the
// per-flow forwarder entries, frees receiver recovery state, and turns
// Send into a no-op — and the simulator still drains.
func TestFlowClose(t *testing.T) {
	d, dcs := buildSquare(t, 74, 0)
	src := d.AddHost(dcs[0], 5*time.Millisecond)
	dst := d.AddHost(dcs[3], 8*time.Millisecond)
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Path: jqos.PathPolicy{Kind: jqos.PathPinned, Alternate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("short-lived")) })
	}
	d.Run(time.Second)

	if d.Routing().PinnedCount() != 1 {
		t.Fatal("flow not pinned before close")
	}
	if d.Host(dst).Receiver(f.ID()) == nil {
		t.Fatal("no receiver state before close")
	}
	sentBefore := f.Metrics().Sent

	f.Close()
	if d.Routing().PinnedCount() != 0 {
		t.Fatal("pin survived close")
	}
	for _, dc := range dcs {
		if n := d.DC(dc).Forwarder().FlowRouteCount(); n != 0 {
			t.Fatalf("%d pinned forwarder entries survived close at %v", n, dc)
		}
	}
	if d.Host(dst).Receiver(f.ID()) != nil {
		t.Fatal("receiver state survived close")
	}
	for _, fl := range d.Flows() {
		if fl.ID() == f.ID() {
			t.Fatal("closed flow still listed")
		}
	}
	if seq := f.Send([]byte("late")); seq != 0 {
		t.Fatalf("Send on closed flow returned %v", seq)
	}
	if f.Metrics().Sent != sentBefore {
		t.Fatal("Send on closed flow still counted")
	}
	f.Close() // idempotent
	d.RunUntilQuiet()
}

// TestFlowCloseLatePacketsDoNotResurrectReceiver: closing a flow with
// packets still in flight must not let their arrival recreate the
// receiver state Close just freed — the churn path for short-lived
// flows.
func TestFlowCloseLatePacketsDoNotResurrectReceiver(t *testing.T) {
	d, src, dst := buildTwoDC(t, 76)
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Send and close before the 50 ms direct path delivers anything.
	f.Send([]byte("in flight"))
	f.Close()
	if d.Host(dst).Receiver(f.ID()) != nil {
		t.Fatal("receiver survived close")
	}
	d.RunUntilQuiet()
	if d.Host(dst).Receiver(f.ID()) != nil {
		t.Fatal("late in-flight packet resurrected the receiver")
	}
	if f.Metrics().Delivered != 0 {
		t.Fatalf("closed flow recorded %d deliveries", f.Metrics().Delivered)
	}
}

// TestLoadReporterOutlastsQueueDrain: a link keeps carrying traffic after
// the application stops — here a deep egress queue drains for seconds —
// so the reporter's two idle rounds pass while the link is still hot. It
// must hold itself awake until the meters read zero, deflate the link,
// and only then park; and the simulator must still drain.
func TestLoadReporterOutlastsQueueDrain(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 0
	cfg.LinkCapacity = 1_000_000
	cfg.Scheduler = jqos.SchedulerConfig{
		Weights:    map[jqos.Service]int{jqos.ServiceForwarding: 1},
		QueueBytes: 8 << 20,
	}
	d := jqos.NewDeploymentWithConfig(78, cfg)
	dc1 := d.AddDC("dc1", dataset.RegionUSEast)
	dc2 := d.AddDC("dc2", dataset.RegionUSWest)
	dc3 := d.AddDC("dc3", dataset.RegionEU)
	dc4 := d.AddDC("dc4", dataset.RegionAsia)
	d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
	d.ConnectDCs(dc2, dc4, 20*time.Millisecond)
	d.ConnectDCs(dc1, dc3, 20*time.Millisecond)
	d.ConnectDCs(dc3, dc4, 20*time.Millisecond)
	bs := d.AddHost(dc1, 5*time.Millisecond)
	bd := d.AddHost(dc4, 8*time.Millisecond)
	bulk, err := d.RegisterFlow(jqos.FlowSpec{
		Src: bs, Dst: bd, Budget: 500 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Path: jqos.PathPolicy{Kind: jqos.PathPinned, Alternate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Offer twice the link's capacity for 3 s: ~3 MB of backlog is left
	// in dc1's egress queue when the sends stop.
	for i := 0; i < 6000; i++ {
		at := time.Duration(i) * 500 * time.Microsecond
		d.Sim().At(at, func() { bulk.Send(make([]byte, 1000)) })
	}
	// Two idle report rounds after the last send the queue is still
	// draining at line rate, so the link is still inflated.
	d.Run(4500 * time.Millisecond)
	if l := d.Routing().Graph().Link(dc1, dc2); l.Congest <= 1 {
		t.Fatalf("link not hot while its queue drains: %+v", l)
	}
	d.RunUntilQuiet()
	l := d.Routing().Graph().Link(dc1, dc2)
	if l.Congest != 1 || l.Util != 0 {
		t.Fatalf("idle link still inflated ×%v after drain (util %v)", l.Congest, l.Util)
	}
}

// TestFlowCloseFreesEncoderState: a coding-service flow leaves per-flow
// queues in the DC1 encoder; Close must release them, or churn through
// short-lived flows grows every encoder without bound. A released
// in-stream queue discards its partial block, so the block's timer never
// codes it.
func TestFlowCloseFreesEncoderState(t *testing.T) {
	d, src, dst := buildTwoDC(t, 75)
	dc1 := d.Host(src).DC()
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Service() != jqos.ServiceCoding {
		t.Fatalf("selected %v, want coding", f.Service())
	}
	// Four full in-stream blocks of five, then two packets that wait for
	// the block timer.
	for i := 0; i < 22; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("coded")) })
	}
	d.Run(120 * time.Millisecond)
	enc := d.DC(dc1).Encoder()
	before := enc.Stats().InBatches
	if before == 0 {
		t.Fatal("coding flow coded no in-stream block — test is vacuous")
	}
	f.Close()
	d.RunUntilQuiet()
	if after := enc.Stats().InBatches; after != before {
		t.Fatalf("the closed flow's partial block was coded after close (%d → %d in-stream batches)", before, after)
	}
}
