package jqos_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"jqos"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/telemetry"
)

// backpressureConfig is the shared-saturated-link scheduler+feedback
// config: 1 MB/s links, DRR 8:1, 64 kB class queues with a low
// watermark band, feedback optionally on.
func backpressureConfig(capacity int64, withFeedback bool) jqos.Config {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.LinkCapacity = capacity
	cfg.Scheduler = jqos.SchedulerConfig{
		Weights: map[jqos.Service]int{
			jqos.ServiceForwarding: 8,
			jqos.ServiceCaching:    1,
		},
		QueueBytes:    64 << 10,
		LowWatermark:  0.125,
		HighWatermark: 0.5,
	}
	cfg.Feedback.Enabled = withFeedback
	return cfg
}

// congWatcher records congestion signals and egress drops.
type congWatcher struct {
	signals []jqos.CongestionSignal
	drops   int
}

func (w *congWatcher) onEvent(_ *jqos.Flow, e telemetry.Event) {
	switch e.Kind {
	case telemetry.KindCongestionSignal:
		w.signals = append(w.signals, jqos.CongestionSignal{
			LinkA: e.LinkA, LinkB: e.LinkB, Class: e.Class,
			State: jqos.CongestionState(e.Reason), QueuedBytes: e.V1,
		})
	case telemetry.KindEgressDrop:
		w.drops++
	}
}

// buildBackpressure wires the acceptance scenario: one saturated link,
// two greedy Rate-contracted forwarding flows, one interactive
// forwarding flow in the same class.
func buildBackpressure(t *testing.T, seed int64, withFeedback bool) (
	d *jqos.Deployment, dc1, dc2 jqos.NodeID, greedy []*jqos.Flow, inter *jqos.Flow) {
	t.Helper()
	const capacity = 1_000_000
	d = jqos.NewDeploymentWithConfig(seed, backpressureConfig(capacity, withFeedback))
	dc1 = d.AddDC("a", dataset.RegionUSEast)
	dc2 = d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
	d.Network().LinkBetween(dc1, dc2).Rate = capacity
	d.Network().LinkBetween(dc2, dc1).Rate = capacity
	for i := 0; i < 2; i++ {
		gs := d.AddHost(dc1, 5*time.Millisecond)
		gd := d.AddHost(dc2, 8*time.Millisecond)
		gf, err := d.RegisterFlow(jqos.FlowSpec{
			Src: gs, Dst: gd, Budget: 500 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Rate: 600_000, Burst: 16 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		greedy = append(greedy, gf)
	}
	is := d.AddHost(dc1, 5*time.Millisecond)
	id := d.AddHost(dc2, 8*time.Millisecond)
	var err error
	inter, err = d.RegisterFlow(jqos.FlowSpec{
		Src: is, Dst: id, Budget: 80 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, dc1, dc2, greedy, inter
}

func loadBackpressure(d *jqos.Deployment, greedy []*jqos.Flow, inter *jqos.Flow, span time.Duration) {
	for i := 0; i < int(span/time.Millisecond); i++ {
		at := time.Duration(i) * time.Millisecond
		d.Sim().At(at, func() {
			greedy[0].Send(make([]byte, 1000))
			greedy[1].Send(make([]byte, 1000))
		})
		if i%5 == 0 {
			d.Sim().At(at, func() { inter.Send(make([]byte, 200)) })
		}
	}
}

// TestBackpressureProtectsSharedLink is the acceptance check: on one
// saturated link whose forwarding class is oversubscribed by two
// individually-honorable contracts, congestion feedback holds the
// interactive budget at ≥95% and cuts the class's egress drops ≥10×
// versus the scheduler-only run.
func TestBackpressureProtectsSharedLink(t *testing.T) {
	span := 3 * time.Second

	dOff, o1, o2, gOff, iOff := buildBackpressure(t, 71, false)
	loadBackpressure(dOff, gOff, iOff, span)
	dOff.Run(span + 8*time.Second)

	dOn, n1, n2, gOn, iOn := buildBackpressure(t, 71, true)
	loadBackpressure(dOn, gOn, iOn, span)
	dOn.Run(span + 8*time.Second)

	var offDrops, onDrops uint64
	if st, ok := dOff.Snapshot().Queue(o1, o2); ok {
		offDrops = st.PerClass[jqos.ServiceForwarding].DroppedPackets
	}
	if st, ok := dOn.Snapshot().Queue(n1, n2); ok {
		onDrops = st.PerClass[jqos.ServiceForwarding].DroppedPackets
	}
	mOff, mOn := iOff.Metrics(), iOn.Metrics()
	if mOn.Sent == 0 {
		t.Fatal("no interactive traffic")
	}
	if frac := float64(mOn.OnTime) / float64(mOn.Sent); frac < 0.95 {
		t.Errorf("feedback run on-time %.2f (%d/%d), want ≥0.95", frac, mOn.OnTime, mOn.Sent)
	}
	if frac := float64(mOff.OnTime) / float64(mOff.Sent); frac > 0.5 {
		t.Errorf("scheduler-only run on-time %.2f — class not actually oversubscribed", frac)
	}
	if offDrops == 0 {
		t.Fatal("scheduler-only run saw no forwarding-class drops")
	}
	if onDrops*10 > offDrops {
		t.Errorf("class drops %d with feedback vs %d without — not a 10× reduction", onDrops, offDrops)
	}
	// The pressure moved to the ingress: pacers cut (visible as paced
	// bytes and admission drops on the greedy flows), and the plane's
	// counters account the signal traffic.
	var paced uint64
	for _, gf := range gOn {
		paced += gf.Metrics().PacedBytes
	}
	if paced == 0 {
		t.Error("no bytes accounted as paced under cuts")
	}
	fb := dOn.Snapshot().Feedback
	if fb.Transitions == 0 || fb.Batches == 0 || fb.RateCuts == 0 || fb.FlowSignals == 0 {
		t.Errorf("feedback plane idle: %+v", fb)
	}
	if fb.RateRecoveries == 0 {
		t.Errorf("pacers never recovered: %+v", fb)
	}
	if fb.SubscribedFlows != 3 {
		t.Errorf("subscribed flows = %d, want 3", fb.SubscribedFlows)
	}
	// Feedback disabled: the snapshot's feedback section is all zeros.
	if got := dOff.Snapshot().Feedback; got != (telemetry.FeedbackSnapshot{}) {
		t.Errorf("disabled feedback reports %+v", got)
	}
	// Teardown empties the registry.
	iOn.Close()
	for _, gf := range gOn {
		gf.Close()
	}
	if fb := dOn.Snapshot().Feedback; fb.SubscribedFlows != 0 {
		t.Errorf("registry holds %d flows after close", fb.SubscribedFlows)
	}
}

// TestFeedbackSignalsCrossTheWire puts the congested queue one hop AWAY
// from the ingress: flows enter at dc1 but the bottleneck is dc2's
// egress to dc3, so the Hot signal must travel dc2→dc1 as a
// TypeCongestion control message before the ingress pacers can react.
func TestFeedbackSignalsCrossTheWire(t *testing.T) {
	cfg := backpressureConfig(0, true) // capacities set per link below
	d := jqos.NewDeploymentWithConfig(72, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionUSWest)
	dc3 := d.AddDC("c", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 10*time.Millisecond)
	d.ConnectDCs(dc2, dc3, 10*time.Millisecond)
	d.Link(dc1, dc2).SetCapacity(10_000_000) // wide first hop
	d.Link(dc2, dc3).SetCapacity(1_000_000)  // bottleneck second hop
	d.Network().LinkBetween(dc2, dc3).Rate = 1_000_000
	d.Network().LinkBetween(dc3, dc2).Rate = 1_000_000

	watch := &congWatcher{}
	gs := d.AddHost(dc1, 5*time.Millisecond)
	gd := d.AddHost(dc3, 8*time.Millisecond)
	paced, err := d.RegisterFlow(jqos.FlowSpec{
		Src: gs, Dst: gd, Budget: 500 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Rate: 600_000, Burst: 16 << 10,
		OnEvent: watch.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An uncontracted same-class flow supplies the rest of the pressure.
	bs := d.AddHost(dc1, 5*time.Millisecond)
	bd := d.AddHost(dc3, 8*time.Millisecond)
	bulk, err := d.RegisterFlow(jqos.FlowSpec{
		Src: bs, Dst: bd, Budget: 500 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	span := 2 * time.Second
	for i := 0; i < int(span/time.Millisecond); i++ {
		at := time.Duration(i) * time.Millisecond
		d.Sim().At(at, func() {
			paced.Send(make([]byte, 1000))
			bulk.Send(make([]byte, 1000))
		})
	}
	d.Run(span + 8*time.Second)

	if len(watch.signals) == 0 {
		t.Fatal("paced flow heard no congestion signals")
	}
	sawHot := false
	for _, sig := range watch.signals {
		if sig.LinkA != dc2 || sig.LinkB != dc3 {
			t.Fatalf("signal for link %v→%v, want %v→%v", sig.LinkA, sig.LinkB, dc2, dc3)
		}
		if sig.State == jqos.CongestionHot {
			sawHot = true
			if sig.QueuedBytes == 0 {
				t.Error("hot signal with zero depth")
			}
		}
	}
	if !sawHot {
		t.Error("no Hot signal delivered")
	}
	fb := d.Snapshot().Feedback
	if fb.SignalsSent == 0 {
		t.Errorf("no signals crossed the wire (remote ingress): %+v", fb)
	}
	if fb.RateCuts == 0 || paced.Metrics().PacedBytes == 0 {
		t.Errorf("remote signal did not pace the ingress: cuts=%d paced=%d",
			fb.RateCuts, paced.Metrics().PacedBytes)
	}
}

// TestFeedbackSubscriptionFollowsReroute reroutes a flow mid-run and
// checks the feedback subscription is repaired: congestion signals for
// the NEW path's links reach the flow after the failover.
func TestFeedbackSubscriptionFollowsReroute(t *testing.T) {
	cfg := backpressureConfig(500_000, true)
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	d := jqos.NewDeploymentWithConfig(73, cfg)
	dc1 := d.AddDC("dc1", dataset.RegionUSEast)
	dc2 := d.AddDC("dc2", dataset.RegionUSWest)
	dc3 := d.AddDC("dc3", dataset.RegionEU)
	dc4 := d.AddDC("dc4", dataset.RegionAsia)
	d.ConnectDCs(dc1, dc2, 15*time.Millisecond)
	d.ConnectDCs(dc2, dc4, 15*time.Millisecond)
	d.ConnectDCs(dc1, dc3, 25*time.Millisecond)
	d.ConnectDCs(dc3, dc4, 25*time.Millisecond)
	for _, pair := range [][2]jqos.NodeID{{dc1, dc2}, {dc2, dc4}, {dc1, dc3}, {dc3, dc4}} {
		d.Network().LinkBetween(pair[0], pair[1]).Rate = 500_000
		d.Network().LinkBetween(pair[1], pair[0]).Rate = 500_000
	}
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc4, 8*time.Millisecond)

	watch := &congWatcher{}
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 500 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		OnEvent: watch.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 800 kB/s offered against 500 kB/s links: the forwarding queue on
	// the flow's current first hop runs hot throughout.
	span := 4 * time.Second
	failAt := 1500 * time.Millisecond
	for i := 0; i < int(span/time.Millisecond); i++ {
		at := time.Duration(i) * time.Millisecond
		if i%5 != 0 {
			d.Sim().At(at, func() { f.Send(make([]byte, 1000)) })
		}
	}
	d.Sim().At(failAt, func() { d.Link(dc1, dc2).Disconnect() })
	d.Run(span + 10*time.Second)

	var beforeVia2, afterVia3 bool
	for _, sig := range watch.signals {
		switch {
		case sig.LinkA == dc1 && sig.LinkB == dc2:
			beforeVia2 = true
		case sig.LinkA == dc1 && sig.LinkB == dc3:
			afterVia3 = true
		}
	}
	if !beforeVia2 {
		t.Error("no signals for the primary path's first hop before the failure")
	}
	if !afterVia3 {
		t.Error("no signals for the alternate path after the reroute — subscription not repaired")
	}
	if fb := d.Snapshot().Feedback; fb.SubscribedFlows != 1 {
		t.Errorf("subscribed flows = %d, want 1", fb.SubscribedFlows)
	}
}

// TestSchedulerAwareAdmission: RegisterFlow sizes Rate/Burst contracts
// against the class's weighted share of the path's bottleneck capacity
// and the class queue cap, rejecting unhonorable contracts with the
// envelope they broke.
func TestSchedulerAwareAdmission(t *testing.T) {
	build := func(capacity int64) (*jqos.Deployment, jqos.NodeID, jqos.NodeID) {
		d := jqos.NewDeploymentWithConfig(74, backpressureConfig(capacity, false))
		dc1 := d.AddDC("a", dataset.RegionUSEast)
		dc2 := d.AddDC("b", dataset.RegionEU)
		d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
		return d, dc1, dc2
	}
	const capacity = 1_000_000
	// Weights 8:1 (+1 for the unlisted coding class; the Internet queue
	// idles and does not count): forwarding is guaranteed 8/10, caching
	// 1/10 of the bottleneck.
	fwdShare := int64(capacity * 8 / 10)
	cchShare := int64(capacity * 1 / 10)

	d, dc1, dc2 := build(capacity)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)

	// reject registers spec and requires an error naming want — the
	// envelope the contract broke.
	reject := func(what string, spec jqos.FlowSpec, want string) {
		t.Helper()
		_, err := d.RegisterFlow(spec)
		if err == nil {
			t.Fatalf("%s accepted", what)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", what, err, want)
		}
	}
	// An over-share contract is rejected.
	reject("over-share forwarding contract", jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 500 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Rate: 900_000, Burst: 16 << 10,
	}, fmt.Sprintf("weighted share (%d B/s)", fwdShare))
	// The caching class's share is far smaller — the same Rate that a
	// forwarding contract may hold is rejected for caching.
	reject("over-share caching contract", jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 500 * time.Millisecond,
		Service: jqos.ServiceCaching, ServiceFixed: true,
		Rate: 200_000, Burst: 16 << 10,
	}, fmt.Sprintf("weighted share (%d B/s)", cchShare))
	// A burst larger than the class queue cap is rejected: it would
	// tail-drop even when conformant.
	reject("over-cap burst", jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 500 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Rate: 100_000, Burst: 100_000,
	}, fmt.Sprintf("egress queue cap (%d B)", 64<<10))
	// A within-envelope contract registers unchanged.
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 500 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Rate: 500_000, Burst: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sp := f.Spec(); sp.Rate != 500_000 || sp.Burst != 16<<10 {
		t.Errorf("conforming contract rewritten: %d/%d", sp.Rate, sp.Burst)
	}
	f.Close()

	// Uncapacitated links constrain nothing: the same over-share
	// contract registers as-is.
	d2, u1, u2 := build(0)
	src2 := d2.AddHost(u1, 5*time.Millisecond)
	dst2 := d2.AddHost(u2, 8*time.Millisecond)
	f, err = d2.RegisterFlow(jqos.FlowSpec{
		Src: src2, Dst: dst2, Budget: 500 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Rate: 900_000, Burst: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Spec().Rate; got != 900_000 {
		t.Errorf("uncapacitated path rewrote Rate to %d", got)
	}
	f.Close()
}

// rerouteRecorder records the path after each reroute event.
type rerouteRecorder struct {
	paths [][]jqos.NodeID
}

func (r *rerouteRecorder) onEvent(f *jqos.Flow, e telemetry.Event) {
	if e.Kind == telemetry.KindReroute {
		r.paths = append(r.paths, f.Path())
	}
}

// TestRepinOnHealReturnsPreferredPath: a pinned flow that failed over
// onto the surviving alternate returns to its registration-time path
// once the pinned link heals — with FlowSpec.RepinOnHeal. Without the
// knob it stays parked on the survivor (the historic behavior).
func TestRepinOnHealReturnsPreferredPath(t *testing.T) {
	run := func(repin bool) (final []jqos.NodeID, rec *rerouteRecorder, dcs [4]jqos.NodeID) {
		cfg := jqos.DefaultConfig()
		cfg.UpgradeInterval = 0
		cfg.Monitor.ProbeInterval = 100 * time.Millisecond
		d, dcs, src, dst := buildDiamond(t, 75, cfg)
		rec = &rerouteRecorder{}
		f, err := d.RegisterFlow(jqos.FlowSpec{
			Src: src, Dst: dst, Budget: 300 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Path:        jqos.PathPolicy{Kind: jqos.PathPinned, Alternate: 0},
			RepinOnHeal: repin,
			OnEvent:     rec.onEvent,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1200; i++ {
			at := time.Duration(i) * 5 * time.Millisecond
			d.Sim().At(at, func() { f.Send([]byte("x")) })
		}
		d.Sim().At(1500*time.Millisecond, func() { d.Link(dcs[0], dcs[1]).Disconnect() })
		d.Sim().At(3500*time.Millisecond, func() { d.Link(dcs[0], dcs[1]).Reconnect() })
		d.Run(12 * time.Second)
		return f.Path(), rec, dcs
	}

	final, rec, dcs := run(true)
	primary := []jqos.NodeID{dcs[0], dcs[1], dcs[3]}
	backup := []jqos.NodeID{dcs[0], dcs[2], dcs[3]}
	if !slices.Equal(final, primary) {
		t.Errorf("RepinOnHeal flow ended on %v, want the healed primary %v", final, primary)
	}
	// The observer heard both moves: failover onto the backup, then the
	// return to the preferred path.
	var sawBackup, sawReturn bool
	for _, p := range rec.paths {
		if slices.Equal(p, backup) {
			sawBackup = true
		}
		if sawBackup && slices.Equal(p, primary) {
			sawReturn = true
		}
	}
	if !sawBackup || !sawReturn {
		t.Errorf("reroute sequence %v missing failover and/or return", rec.paths)
	}

	final, _, dcs = run(false)
	if !slices.Equal(final, backup) {
		t.Errorf("default flow ended on %v, want to stay parked on the survivor %v", final, backup)
	}
}

// TestRepinOnHealValidation: the knob needs a pinned policy.
func TestRepinOnHealValidation(t *testing.T) {
	d := jqos.NewDeployment(75)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	if _, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		RepinOnHeal: true,
	}); err == nil {
		t.Fatal("RepinOnHeal accepted with PathFastest")
	}
}

// costWatcher records cost-violation events.
type costWatcher struct {
	violations int
	svc        jqos.Service
	price      float64
}

func (w *costWatcher) onEvent(_ *jqos.Flow, e telemetry.Event) {
	if e.Kind == telemetry.KindCostViolation {
		w.violations++
		w.svc, w.price = e.Class, float64(e.V1)/1e6
	}
}

// TestCostViolationForcesDowngrade: a flow that settled on caching
// while loss was low is forced off it when rising observed loss prices
// caching's pull-response egress past the spec's ceiling — the
// adaptation loop re-checks the CURRENT service each tick, not just
// transitions.
func TestCostViolationForcesDowngrade(t *testing.T) {
	const ceiling = 0.10 // $/GB: caching ≈0.087 at zero loss, ≈0.104 at 20% observed
	d := jqos.NewDeployment(76)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	// 40% direct-path loss: the observed-loss estimate climbs after
	// registration (which priced at loss 0) and prices caching at
	// ≈0.122 $/GB — past the ceiling.
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 0.4})

	watch := &costWatcher{}
	// Budget 70 ms: caching predicts ≈66 ms (fits), coding ≈79 ms
	// (doesn't), so selection lands on caching; the ceiling admits it at
	// the zero-loss registration price.
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 70 * time.Millisecond,
		CostCeilingPerGB: ceiling,
		OnEvent:          watch.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Service() != jqos.ServiceCaching {
		t.Fatalf("selection picked %v, want caching (the test's premise)", f.Service())
	}

	for i := 0; i < 1500; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		d.Sim().At(at, func() { f.Send(make([]byte, 1000)) })
	}
	d.Run(60 * time.Second)

	if watch.violations == 0 {
		t.Fatal("no cost violation surfaced despite 40% loss on a capped caching flow")
	}
	if watch.svc != jqos.ServiceCaching || watch.price <= ceiling {
		t.Errorf("violation reported %v at $%.4f/GB, want caching above $%.2f", watch.svc, watch.price, ceiling)
	}
	if f.Service() != jqos.ServiceCoding {
		t.Errorf("flow still on %v, want forced down to coding (loss-independent ≈$0.093/GB)", f.Service())
	}
	var forced bool
	for _, ch := range f.Changes() {
		if ch.Reason == jqos.ReasonCostViolation && ch.From == jqos.ServiceCaching && ch.To == jqos.ServiceCoding {
			forced = true
		}
		if ch.To == jqos.ServiceForwarding {
			t.Errorf("upgrade bought forwarding past the ceiling: %+v", ch)
		}
	}
	if !forced {
		t.Errorf("no cost-violation transition recorded: %+v", f.Changes())
	}

	// A fixed-service flow cannot move, but the telemetry still fires.
	watchFixed := &costWatcher{}
	src2 := d.AddHost(dc1, 5*time.Millisecond)
	dst2 := d.AddHost(dc2, 8*time.Millisecond)
	d.SetDirectPath(src2, dst2, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 0.4})
	ff, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src2, Dst: dst2, Budget: 70 * time.Millisecond,
		Service: jqos.ServiceCaching, ServiceFixed: true,
		CostCeilingPerGB: ceiling,
		OnEvent:          watchFixed.onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := d.Now()
	for i := 0; i < 1500; i++ {
		at := base + time.Duration(i)*10*time.Millisecond
		d.Sim().At(at, func() { ff.Send(make([]byte, 1000)) })
	}
	d.Run(60 * time.Second)
	if watchFixed.violations == 0 {
		t.Error("fixed flow's cost violation not surfaced")
	}
	if ff.Service() != jqos.ServiceCaching {
		t.Errorf("fixed flow moved to %v", ff.Service())
	}
}

// TestContractResizedOnServiceChange: scheduler-aware admission is not
// a registration-only check — when the adaptation loop moves a
// contracted flow to a class with a smaller guaranteed share, the
// bucket's refill rate clamps down to the new envelope (and Spec()
// keeps the registration intent).
func TestContractResizedOnServiceChange(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.LinkCapacity = 1_000_000
	// Caching is the wide class here (8/10 of the link = 800 kB/s);
	// coding gets 1/10 = 100 kB/s.
	cfg.Scheduler = jqos.SchedulerConfig{
		Weights: map[jqos.Service]int{jqos.ServiceCaching: 8},
	}
	d := jqos.NewDeploymentWithConfig(78, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	// 40% direct loss drives the observed-loss estimate up, pricing
	// caching past the ceiling — the forced downgrade to coding is the
	// service change under test.
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 0.4})

	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 70 * time.Millisecond,
		CostCeilingPerGB: 0.10,
		Rate:             300_000, Burst: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Service() != jqos.ServiceCaching {
		t.Fatalf("selection picked %v, want caching", f.Service())
	}
	if got := f.AdmissionRate(); got != 300_000 {
		t.Fatalf("registration admission rate = %d, want the contract", got)
	}

	for i := 0; i < 1500; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		d.Sim().At(at, func() { f.Send(make([]byte, 1000)) })
	}
	d.Run(60 * time.Second)

	if f.Service() != jqos.ServiceCoding {
		t.Fatalf("flow on %v, want forced onto coding", f.Service())
	}
	// Coding's share is 100 kB/s: the 300 kB/s contract clamped down.
	if got := f.AdmissionRate(); got != 100_000 {
		t.Errorf("admission rate after the move = %d, want the coding share 100000", got)
	}
	// The registration intent is preserved for inspection.
	if sp := f.Spec(); sp.Rate != 300_000 {
		t.Errorf("Spec().Rate rewritten to %d", sp.Rate)
	}
}

// TestStandingHotKeepsCutting: watermark transitions are edges, so a
// queue that stays Hot after one multiplicative cut must be
// re-announced (level-triggered refresh) until the aggregate paced
// rate actually fits — three 600 kB/s contracts halved ONCE still
// oversubscribe the 800 kB/s class share, and without refreshes the
// link would tail-drop forever on a single, final signal.
func TestStandingHotKeepsCutting(t *testing.T) {
	const capacity = 1_000_000
	d := jqos.NewDeploymentWithConfig(79, backpressureConfig(capacity, true))
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
	d.Network().LinkBetween(dc1, dc2).Rate = capacity
	d.Network().LinkBetween(dc2, dc1).Rate = capacity
	var greedy []*jqos.Flow
	for i := 0; i < 3; i++ {
		gs := d.AddHost(dc1, 5*time.Millisecond)
		gd := d.AddHost(dc2, 8*time.Millisecond)
		gf, err := d.RegisterFlow(jqos.FlowSpec{
			Src: gs, Dst: gd, Budget: 500 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Rate: 600_000, Burst: 16 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		greedy = append(greedy, gf)
	}
	span := 4 * time.Second
	for i := 0; i < int(span/time.Millisecond); i++ {
		at := time.Duration(i) * time.Millisecond
		d.Sim().At(at, func() {
			for _, gf := range greedy {
				gf.Send(make([]byte, 1000))
			}
		})
	}
	// Sample the class drops at mid-run and at the end: after the
	// refresh-driven cuts converge, the drop counter must stop moving.
	var midDrops uint64
	d.Sim().At(span/2, func() {
		if st, ok := d.Snapshot().Queue(dc1, dc2); ok {
			midDrops = st.PerClass[jqos.ServiceForwarding].DroppedPackets
		}
	})
	d.Run(span + 8*time.Second)

	snap := d.Snapshot()
	fb := snap.Feedback
	if fb.HotRefreshes == 0 {
		t.Fatalf("standing-hot queue never re-announced: %+v", fb)
	}
	// Each pacer must have been cut MORE than once (one halving leaves
	// 900 kB/s against an 800 kB/s share).
	if fb.RateCuts < 6 {
		t.Errorf("rate cuts = %d, want ≥2 per flow", fb.RateCuts)
	}
	st, ok := snap.Queue(dc1, dc2)
	if !ok {
		t.Fatal("no sched stats")
	}
	endDrops := st.PerClass[jqos.ServiceForwarding].DroppedPackets
	// The second half of the run must be drop-free (or nearly): the
	// refresh loop kept cutting until the class actually fit.
	if late := endDrops - midDrops; late > midDrops/10+5 {
		t.Errorf("drops kept accumulating after convergence: %d in the first half, %d after", midDrops, late)
	}
}
