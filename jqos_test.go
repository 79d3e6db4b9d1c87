package jqos_test

import (
	"fmt"
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
)

// world is a standard 2-DC test deployment.
type world struct {
	d          *jqos.Deployment
	dc1, dc2   jqos.NodeID
	src, dst   jqos.NodeID
	deliveries []core.Delivery
}

// newWorld builds: src —5ms— DC1 —40ms— DC2 —8ms— dst, with a 50 ms direct
// path shaped by loss.
func newWorld(t *testing.T, seed int64, loss netem.LossModel) *world {
	t.Helper()
	d := jqos.NewDeployment(seed)
	w := &world{d: d}
	w.dc1 = d.AddDC("us-east", dataset.RegionUSEast)
	w.dc2 = d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(w.dc1, w.dc2, 40*time.Millisecond)
	w.src = d.AddHost(w.dc1, 5*time.Millisecond)
	w.dst = d.AddHost(w.dc2, 8*time.Millisecond)
	d.SetDirectPath(w.src, w.dst,
		netem.UniformJitter{Base: 50 * time.Millisecond, Jitter: time.Millisecond}, loss)
	d.Host(w.dst).SetDeliveryHandler(func(del core.Delivery) {
		w.deliveries = append(w.deliveries, del)
	})
	return w
}

// sendCBR schedules n packets at the given spacing, starting at start.
func sendCBR(w *world, f *jqos.Flow, n int, spacing time.Duration, start time.Duration) {
	for i := 0; i < n; i++ {
		i := i
		w.d.Sim().At(start+time.Duration(i)*spacing, func() {
			f.Send([]byte(fmt.Sprintf("packet-%d", i)))
		})
	}
}

// fixedSpec is a unicast flow pinned to svc: selection bypassed,
// adaptation off.
func fixedSpec(src, dst jqos.NodeID, budget time.Duration, svc jqos.Service) jqos.FlowSpec {
	return jqos.FlowSpec{Src: src, Dst: dst, Budget: budget, Service: svc, ServiceFixed: true}
}

func TestLosslessDeliveryNoRecovery(t *testing.T) {
	w := newWorld(t, 1, nil)
	f, err := w.d.RegisterFlow(jqos.FlowSpec{Src: w.src, Dst: w.dst, Budget: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sendCBR(w, f, 50, 5*time.Millisecond, 0)
	w.d.Run(5 * time.Second)
	m := f.Metrics()
	if m.Delivered != 50 || m.Recovered != 0 {
		t.Fatalf("delivered=%d recovered=%d", m.Delivered, m.Recovered)
	}
	if m.LossRate() != 0 {
		t.Errorf("loss rate = %v", m.LossRate())
	}
	// Direct latency ≈ 50–51 ms.
	if med := m.Latency.Median(); med < 49 || med > 55 {
		t.Errorf("median latency = %vms", med)
	}
	if m.OnTime != 50 {
		t.Errorf("on-time = %d", m.OnTime)
	}
}

func TestServiceSelectionByBudget(t *testing.T) {
	w := newWorld(t, 2, nil)
	// Predicted: internet ~50, fwd ~53, caching ~66+Δ, coding ~66+2·δmed.
	cases := []struct {
		budget   time.Duration
		internet bool
		want     jqos.Service
	}{
		{300 * time.Millisecond, false, jqos.ServiceCoding},
		{70 * time.Millisecond, false, jqos.ServiceCaching},
		{55 * time.Millisecond, false, jqos.ServiceForwarding},
		{300 * time.Millisecond, true, jqos.ServiceInternet},
	}
	for _, c := range cases {
		f, err := w.d.RegisterFlow(jqos.FlowSpec{Src: w.src, Dst: w.dst, Budget: c.budget, AllowInternet: c.internet})
		if err != nil {
			t.Fatalf("budget %v: %v", c.budget, err)
		}
		if f.Service() != c.want {
			t.Errorf("budget %v: service = %v, want %v", c.budget, f.Service(), c.want)
		}
	}
	// Impossible budget.
	if _, err := w.d.RegisterFlow(jqos.FlowSpec{Src: w.src, Dst: w.dst, Budget: time.Millisecond}); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestCodingServiceRecoversRandomLoss(t *testing.T) {
	w := newWorld(t, 3, netem.Bernoulli{P: 0.05})
	f, err := w.d.RegisterFlow(fixedSpec(w.src, w.dst, 400*time.Millisecond, jqos.ServiceCoding))
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	sendCBR(w, f, n, 5*time.Millisecond, 0)
	w.d.Run(20 * time.Second)
	m := f.Metrics()
	if m.Sent != n {
		t.Fatalf("sent = %d", m.Sent)
	}
	// ~5% dropped on the direct path; recovery must bring delivery to
	// (near) 100%. Allow a whisker for losses at the very end of the run.
	if m.Delivered < n-4 {
		t.Errorf("delivered = %d of %d (recovered %d)", m.Delivered, n, m.Recovered)
	}
	if m.Recovered == 0 {
		t.Error("no recoveries despite 5% loss")
	}
	if m.ByService[jqos.ServiceCoding] == 0 {
		t.Error("no deliveries attributed to coding")
	}
}

// TestOversizePayloadOnCodingFlow: Flow.Send has no size limit, and a
// payload the coded header's 16-bit shard length cannot describe used to
// lose its protection silently (65 534 B) or panic DC1 inside Run
// (65 536 B). Such packets travel their direct path unprotected; the flow's
// ordinary packets around them are still coded.
func TestOversizePayloadOnCodingFlow(t *testing.T) {
	w := newWorld(t, 3, nil)
	f, err := w.d.RegisterFlow(fixedSpec(w.src, w.dst, 400*time.Millisecond, jqos.ServiceCoding))
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{100, 65534, 65535, 65536, 100000, 100, 100, 100, 100, 100}
	for i, n := range sizes {
		n := n
		w.d.Sim().At(time.Duration(i)*5*time.Millisecond, func() { f.Send(make([]byte, n)) })
	}
	w.d.Run(5 * time.Second)
	if m := f.Metrics(); m.Delivered != uint64(len(sizes)) {
		t.Fatalf("delivered = %d of %d", m.Delivered, len(sizes))
	}
	for i, del := range w.deliveries {
		if len(del.Packet.Payload) != sizes[i] {
			t.Errorf("delivery %d carries %d bytes, want %d", i, len(del.Packet.Payload), sizes[i])
		}
	}
	enc := w.d.DC(w.dc1).Encoder().Stats()
	if enc.Oversize != 4 || enc.DataPackets != 6 || enc.InCoded+enc.CrossCoded == 0 {
		t.Errorf("encoder stats: %+v", enc)
	}
}

func TestCodingServiceRecoversOutage(t *testing.T) {
	// Cross-stream coding needs concurrent streams (Algorithm 1 discards
	// single-stream batches), so — exactly like the paper's Skype case
	// study — three background flows share the overlay with the flow of
	// interest while its direct path suffers a 300 ms outage.
	outage := &netem.OutageSchedule{}
	outage.AddOutage(500*time.Millisecond, 300*time.Millisecond)
	w := newWorld(t, 4, outage)
	f, err := w.d.RegisterFlow(fixedSpec(w.src, w.dst, 400*time.Millisecond, jqos.ServiceCoding))
	if err != nil {
		t.Fatal(err)
	}
	const n = 300 // 1.5 s of traffic at 5 ms spacing, outage in the middle
	sendCBR(w, f, n, 5*time.Millisecond, 0)
	for b := 0; b < 3; b++ {
		bs := w.d.AddHost(w.dc1, 5*time.Millisecond)
		bd := w.d.AddHost(w.dc2, 8*time.Millisecond)
		w.d.SetDirectPath(bs, bd, netem.FixedDelay(50*time.Millisecond), nil)
		bg, err := w.d.RegisterFlow(fixedSpec(bs, bd, 400*time.Millisecond, jqos.ServiceCoding))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			i := i
			w.d.Sim().At(time.Duration(i)*5*time.Millisecond, func() {
				bg.Send([]byte("background"))
			})
		}
	}
	w.d.Run(20 * time.Second)
	m := f.Metrics()
	// The outage swallows ~60 consecutive packets; cooperative recovery
	// with the background receivers must restore nearly all of them.
	if m.Delivered < n-4 {
		t.Errorf("delivered = %d of %d (recovered %d)", m.Delivered, n, m.Recovered)
	}
	if m.Recovered < 40 {
		t.Errorf("recovered = %d, expected most of the outage window", m.Recovered)
	}
}

func TestCrossStreamRecoveryAcrossFlows(t *testing.T) {
	// Four sender/receiver pairs share DC1/DC2; only pair 0's path
	// loses. Cooperative recovery must lean on the other receivers.
	d := jqos.NewDeployment(5)
	dc1 := d.AddDC("us-east", dataset.RegionUSEast)
	dc2 := d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	cfg := jqos.DefaultConfig()
	_ = cfg
	var flows []*jqos.Flow
	var metrics []*jqos.FlowMetrics
	for i := 0; i < 4; i++ {
		src := d.AddHost(dc1, 5*time.Millisecond)
		dst := d.AddHost(dc2, 8*time.Millisecond)
		var loss netem.LossModel
		if i == 0 {
			o := &netem.OutageSchedule{}
			o.AddOutage(300*time.Millisecond, 200*time.Millisecond)
			loss = o
		}
		d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), loss)
		f, err := d.RegisterFlow(fixedSpec(src, dst, 500*time.Millisecond, jqos.ServiceCoding))
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
		metrics = append(metrics, f.Metrics())
		for p := 0; p < 200; p++ {
			p := p
			f := f
			d.Sim().At(time.Duration(p)*5*time.Millisecond, func() {
				f.Send([]byte(fmt.Sprintf("flow%d-pkt%d", i, p)))
			})
		}
	}
	d.Run(20 * time.Second)
	m0 := metrics[0]
	if m0.Delivered < 196 {
		t.Errorf("pair 0 delivered %d of 200 (recovered %d)", m0.Delivered, m0.Recovered)
	}
	if m0.Recovered < 20 {
		t.Errorf("pair 0 recovered only %d", m0.Recovered)
	}
	// Other pairs lost nothing.
	for i := 1; i < 4; i++ {
		if metrics[i].Delivered != 200 {
			t.Errorf("pair %d delivered %d", i, metrics[i].Delivered)
		}
	}
	// Helpers must have answered cooperative requests.
	rec := d.DC(dc2).Recoverer().Stats()
	if rec.CoopRecovered == 0 || rec.CoopReqsSent == 0 {
		t.Errorf("no cooperative activity: %+v", rec)
	}
}

func TestCachingServiceRecovery(t *testing.T) {
	w := newWorld(t, 6, netem.Bernoulli{P: 0.08})
	f, err := w.d.RegisterFlow(fixedSpec(w.src, w.dst, 400*time.Millisecond, jqos.ServiceCaching))
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	sendCBR(w, f, n, 5*time.Millisecond, 0)
	w.d.Run(20 * time.Second)
	m := f.Metrics()
	if m.Delivered < n-4 {
		t.Errorf("delivered = %d of %d", m.Delivered, n)
	}
	if m.ByService[jqos.ServiceCaching] == 0 {
		t.Error("no deliveries via caching")
	}
	st := w.d.DC(w.dc2).Cache().Stats()
	if st.Puts == 0 || st.Hits == 0 {
		t.Errorf("cache never used: %+v", st)
	}
	// Recovery latency: pull takes ~2δ past detection; all within budget.
	if m.OnTime < m.Delivered*95/100 {
		t.Errorf("on-time %d of %d", m.OnTime, m.Delivered)
	}
}

func TestForwardingMultipath(t *testing.T) {
	// 30% random loss on the direct path; the overlay copy keeps
	// delivery complete without NACK-based recovery.
	w := newWorld(t, 7, netem.Bernoulli{P: 0.30})
	f, err := w.d.RegisterFlow(fixedSpec(w.src, w.dst, 400*time.Millisecond, jqos.ServiceForwarding))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	sendCBR(w, f, n, 5*time.Millisecond, 0)
	w.d.Run(10 * time.Second)
	m := f.Metrics()
	if m.Delivered != n {
		t.Errorf("delivered = %d of %d", m.Delivered, n)
	}
	if m.ByService[jqos.ServiceForwarding] == 0 {
		t.Error("no deliveries attributed to forwarding")
	}
	// The direct copies that survived arrive first (50 ms vs 53 ms) and
	// count as internet deliveries.
	if m.ByService[jqos.ServiceInternet] == 0 {
		t.Error("direct path never won")
	}
}

func TestForwardingPathSwitch(t *testing.T) {
	// Path switching sends nothing on the direct path at all.
	w := newWorld(t, 8, nil)
	f, err := w.d.RegisterFlow(jqos.FlowSpec{Src: w.src, Dst: w.dst, Budget: 400 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true, PathSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	direct := 0
	w.d.Network().Tap = func(from, to jqos.NodeID, _ int) {
		if from == w.src && to == w.dst {
			direct++
		}
	}
	sendCBR(w, f, 50, 5*time.Millisecond, 0)
	w.d.Run(5 * time.Second)
	m := f.Metrics()
	if m.Delivered != 50 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	if m.ByService[jqos.ServiceInternet] != 0 {
		t.Error("direct deliveries despite path switch")
	}
	if direct != 0 {
		t.Errorf("direct path carried %d packets", direct)
	}
	// Overlay latency ≈ 5+40+8 = 53 ms.
	if med := m.Latency.Median(); med < 52 || med > 58 {
		t.Errorf("overlay latency = %vms", med)
	}
}

func TestServiceUpgradeOnBudgetViolation(t *testing.T) {
	// Direct path is slower than the budget; coding can't fix latency,
	// so the upgrade loop must walk the flow up to forwarding, which
	// rides the faster overlay.
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 500 * time.Millisecond
	d := jqos.NewDeploymentWithConfig(10, cfg)
	dc1 := d.AddDC("us-east", dataset.RegionUSEast)
	dc2 := d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 30*time.Millisecond)
	src := d.AddHost(dc1, 3*time.Millisecond)
	dst := d.AddHost(dc2, 4*time.Millisecond)
	// Registration-time estimate says 60 ms, so coding looks fine for a
	// 100 ms budget — but the real path has congestion spikes.
	d.SetDirectPath(src, dst, netem.FixedDelay(60*time.Millisecond), nil)
	rec := &recorder{}
	f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: 100 * time.Millisecond, OnEvent: rec.onEvent})
	if err != nil {
		t.Fatal(err)
	}
	if f.Service() != jqos.ServiceCoding {
		t.Fatalf("initial service = %v", f.Service())
	}
	// Degrade the live path: 150 ms fixed — every delivery busts the
	// budget.
	d.Network().Connect(src, dst,
		netem.NewLink(d.Sim(), netem.FixedDelay(150*time.Millisecond), nil))
	for i := 0; i < 600; i++ {
		i := i
		d.Sim().At(time.Duration(i)*10*time.Millisecond, func() {
			f.Send([]byte("tick"))
		})
	}
	d.Run(10 * time.Second)
	if len(rec.upgrades()) == 0 {
		t.Fatalf("flow never upgraded; service=%v onTime=%d/%d",
			f.Service(), f.Metrics().OnTime, f.Metrics().Delivered)
	}
	if f.Service() != jqos.ServiceForwarding {
		t.Errorf("final service = %v, want forwarding", f.Service())
	}
}

func TestCloudMulticast(t *testing.T) {
	// One sender, three members, forwarding service through the group.
	d := jqos.NewDeployment(11)
	dc1 := d.AddDC("us-east", dataset.RegionUSEast)
	dc2 := d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	var members []jqos.NodeID
	got := map[jqos.NodeID]int{}
	for i := 0; i < 3; i++ {
		m := d.AddHost(dc2, 8*time.Millisecond)
		members = append(members, m)
		d.Host(m).SetDeliveryHandler(func(del core.Delivery) { got[m]++ })
	}
	group := d.AllocGroupID()
	// AddGroup attaches the group to the control plane, which routes the
	// group address toward its home DC from everywhere.
	d.AddGroup(dc2, group, members...)
	f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Group: group, Members: members, Budget: 400 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true, PathSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		i := i
		d.Sim().At(time.Duration(i)*10*time.Millisecond, func() { f.Send([]byte("frame")) })
	}
	d.Run(5 * time.Second)
	for _, m := range members {
		if got[m] != 20 {
			t.Errorf("member %v got %d of 20", m, got[m])
		}
	}
}

func TestHybridMulticastCacheRepair(t *testing.T) {
	// Sender unicasts to each member directly (one lossy member) and
	// caches one copy at the members' DC; the lossy member repairs by
	// pulling (Figure 3d).
	d := jqos.NewDeployment(12)
	dc1 := d.AddDC("us-east", dataset.RegionUSEast)
	dc2 := d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	m1 := d.AddHost(dc2, 8*time.Millisecond)
	m2 := d.AddHost(dc2, 9*time.Millisecond)
	d.SetDirectPath(src, m1, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 0.2})
	d.SetDirectPath(src, m2, netem.FixedDelay(50*time.Millisecond), nil)
	group := d.AllocGroupID()
	d.AddGroup(dc2, group, m1, m2)
	f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Group: group, Members: []jqos.NodeID{m1, m2}, Budget: 400 * time.Millisecond,
		Service: jqos.ServiceCaching, ServiceFixed: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		i := i
		d.Sim().At(time.Duration(i)*5*time.Millisecond, func() { f.Send([]byte("frame")) })
	}
	d.Run(20 * time.Second)
	m := f.Metrics()
	// Both members combined: 400 expected deliveries.
	if m.Delivered < 396 {
		t.Errorf("delivered = %d of 400 (recovered %d)", m.Delivered, m.Recovered)
	}
	if m.ByService[jqos.ServiceCaching] == 0 {
		t.Error("no cache repairs")
	}
}

func TestMobilityRendezvous(t *testing.T) {
	// The receiver is offline (100% direct loss) while the sender
	// transmits; packets accumulate in the DC cache; on reconnect the
	// receiver drains the flow (Figure 3e).
	cfg := jqos.DefaultConfig()
	cfg.CacheTTL = time.Hour
	d := jqos.NewDeploymentWithConfig(13, cfg)
	dc1 := d.AddDC("us-east", dataset.RegionUSEast)
	dc2 := d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 1})
	var got []jqos.Seq
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		got = append(got, del.Packet.ID.Seq)
	})
	f, err := d.RegisterFlow(fixedSpec(src, dst, time.Hour, jqos.ServiceCaching))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		i := i
		d.Sim().At(time.Duration(i)*10*time.Millisecond, func() { f.Send([]byte("news")) })
	}
	d.Run(2 * time.Second)
	if len(got) != 0 {
		t.Fatalf("offline receiver got %d packets", len(got))
	}
	// Reconnect: drain everything after seq 0.
	d.Host(dst).PullFlow(f.ID(), 0)
	d.Run(2 * time.Second)
	if len(got) != 30 {
		t.Fatalf("drained %d of 30", len(got))
	}
	for i, seq := range got {
		if seq != jqos.Seq(i+1) {
			t.Fatalf("drain order: got[%d] = %d", i, seq)
		}
	}
}

// TestDeliveryHandlerReentry: what a delivery handler may do from inside a
// delivery. A mobility drain is thirty cache answers in flight at once;
// the handler closes the flow on the tenth (the rest arrive for a closed
// flow and must be refused, not resurrect its receiver), or pulls again on
// the first (the second drain's answers are duplicates of the first's).
func TestDeliveryHandlerReentry(t *testing.T) {
	for name, c := range map[string]struct {
		react func(d *jqos.Deployment, dst jqos.NodeID, f *jqos.Flow, seq jqos.Seq)
		want  int
	}{
		"close": {func(d *jqos.Deployment, dst jqos.NodeID, f *jqos.Flow, seq jqos.Seq) {
			if seq == 10 {
				f.Close()
			}
		}, 10},
		"pull": {func(d *jqos.Deployment, dst jqos.NodeID, f *jqos.Flow, seq jqos.Seq) {
			if seq == 1 {
				d.Host(dst).PullFlow(f.ID(), 0)
			}
		}, 30},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := jqos.DefaultConfig()
			cfg.CacheTTL = time.Hour
			d := jqos.NewDeploymentWithConfig(13, cfg)
			dc1 := d.AddDC("us-east", dataset.RegionUSEast)
			dc2 := d.AddDC("eu-west", dataset.RegionEU)
			d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
			src := d.AddHost(dc1, 5*time.Millisecond)
			dst := d.AddHost(dc2, 8*time.Millisecond)
			d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 1})
			f, err := d.RegisterFlow(fixedSpec(src, dst, time.Hour, jqos.ServiceCaching))
			if err != nil {
				t.Fatal(err)
			}
			var got []jqos.Seq
			d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
				got = append(got, del.Packet.ID.Seq)
				c.react(d, dst, f, del.Packet.ID.Seq)
			})
			for i := 0; i < 30; i++ {
				d.Sim().At(time.Duration(i)*10*time.Millisecond, func() { f.Send([]byte("news")) })
			}
			d.Run(2 * time.Second)
			d.Host(dst).PullFlow(f.ID(), 0)
			d.Run(2 * time.Second)
			if len(got) != c.want {
				t.Fatalf("delivered %v, want seqs 1..%d once each", got, c.want)
			}
			for i, seq := range got {
				if seq != jqos.Seq(i+1) {
					t.Fatalf("delivery order: got[%d] = %d", i, seq)
				}
			}
			if name == "close" && d.Host(dst).ReceiverCount() != 0 {
				t.Errorf("closed flow left %d receivers on its destination", d.Host(dst).ReceiverCount())
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64, float64) {
		w := newWorld(t, 99, netem.Bernoulli{P: 0.05})
		f, _ := w.d.RegisterFlow(fixedSpec(w.src, w.dst, 400*time.Millisecond, jqos.ServiceCoding))
		sendCBR(w, f, 200, 5*time.Millisecond, 0)
		w.d.Run(20 * time.Second)
		return f.Metrics().Delivered, f.Metrics().Recovered, f.Metrics().Latency.Mean()
	}
	d1, r1, l1 := run()
	d2, r2, l2 := run()
	if d1 != d2 || r1 != r2 || l1 != l2 {
		t.Errorf("runs diverged: (%d,%d,%v) vs (%d,%d,%v)", d1, r1, l1, d2, r2, l2)
	}
}

func TestEgressAccountingOrdersServices(t *testing.T) {
	// For identical traffic, cloud egress must order coding < caching <
	// forwarding (the premise of judicious selection).
	egress := func(svc jqos.Service) uint64 {
		w := newWorld(t, 20, nil)
		f, _ := w.d.RegisterFlow(fixedSpec(w.src, w.dst, 500*time.Millisecond, svc))
		sendCBR(w, f, 300, 5*time.Millisecond, 0)
		w.d.Run(10 * time.Second)
		return w.d.TotalEgressBytes()
	}
	coding := egress(jqos.ServiceCoding)
	caching := egress(jqos.ServiceCaching)
	fwd := egress(jqos.ServiceForwarding)
	if !(coding < caching && caching < fwd) {
		t.Errorf("egress ordering violated: coding=%d caching=%d fwd=%d", coding, caching, fwd)
	}
	if w := newWorld(t, 21, nil); w.d.CloudCost() != 0 {
		t.Error("cost nonzero before traffic")
	}
}

func TestRegisterValidation(t *testing.T) {
	w := newWorld(t, 22, nil)
	if _, err := w.d.RegisterFlow(jqos.FlowSpec{Src: 999, Dst: w.dst, Budget: time.Second}); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := w.d.RegisterFlow(jqos.FlowSpec{Src: w.src, Group: 50, Budget: time.Second}); err == nil {
		t.Error("empty multicast accepted")
	}
}

func TestHostAndDCAccessors(t *testing.T) {
	w := newWorld(t, 23, nil)
	if w.d.Host(w.src).ID() != w.src || w.d.Host(w.src).DC() != w.dc1 {
		t.Error("host accessors")
	}
	if w.d.DC(w.dc1).ID() != w.dc1 {
		t.Error("DC accessor")
	}
	defer func() {
		if recover() == nil {
			t.Error("DC() on host ID did not panic")
		}
	}()
	w.d.DC(w.src)
}

// TestAddHostOntoNonDCPanics: a home that is not a DC is refused before
// the host takes an ID, so the failed call leaves no host, network node
// or home behind, and the next host gets the ID it would have had.
func TestAddHostOntoNonDCPanics(t *testing.T) {
	w := newWorld(t, 24, nil)
	next := w.dst + 1
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddHost onto a host did not panic")
			}
		}()
		w.d.AddHost(w.src, time.Millisecond)
	}()
	if ids := w.d.HostIDs(); len(ids) != 2 {
		t.Errorf("hosts after the failed AddHost: %v", ids)
	}
	if w.d.Network().NodeHandler(next) != nil {
		t.Error("the failed AddHost left a network node")
	}
	if _, ok := w.d.Routing().Home(next); ok {
		t.Error("the failed AddHost left a home")
	}
	if got := w.d.AddHost(w.dc1, time.Millisecond); got != next {
		t.Errorf("next host got ID %v, want %v: the failed AddHost took one", got, next)
	}
}
