package jqos_test

import (
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/telemetry"
)

// buildSharedLink wires the scheduler test topology: two DCs, one link,
// two bulk caching flows and one interactive forwarding flow, no direct
// Internet paths (all delivery rides the overlay).
type sharedLinkWorld struct {
	d          *jqos.Deployment
	dc1, dc2   jqos.NodeID
	inter      *jqos.Flow
	bulks      []*jqos.Flow
	interDst   jqos.NodeID
	deliveries int
}

func buildSharedLink(t *testing.T, seed int64, cfg jqos.Config, linkRate int64) *sharedLinkWorld {
	t.Helper()
	w := &sharedLinkWorld{}
	w.d = jqos.NewDeploymentWithConfig(seed, cfg)
	w.dc1 = w.d.AddDC("a", dataset.RegionUSEast)
	w.dc2 = w.d.AddDC("b", dataset.RegionEU)
	w.d.ConnectDCs(w.dc1, w.dc2, 20*time.Millisecond)
	if linkRate > 0 {
		w.d.Network().LinkBetween(w.dc1, w.dc2).Rate = linkRate
		w.d.Network().LinkBetween(w.dc2, w.dc1).Rate = linkRate
	}
	for i := 0; i < 2; i++ {
		bs := w.d.AddHost(w.dc1, 5*time.Millisecond)
		bd := w.d.AddHost(w.dc2, 8*time.Millisecond)
		bf, err := w.d.RegisterFlow(jqos.FlowSpec{
			Src: bs, Dst: bd, Budget: 500 * time.Millisecond,
			Service: jqos.ServiceCaching, ServiceFixed: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.bulks = append(w.bulks, bf)
	}
	is := w.d.AddHost(w.dc1, 5*time.Millisecond)
	w.interDst = w.d.AddHost(w.dc2, 8*time.Millisecond)
	inter, err := w.d.RegisterFlow(jqos.FlowSpec{
		Src: is, Dst: w.interDst, Budget: 100 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.inter = inter
	w.d.Host(w.interDst).SetDeliveryHandler(func(core.Delivery) { w.deliveries++ })
	return w
}

// loadSharedLink schedules span worth of traffic: bulk 2×1000 B/ms,
// interactive 200 B every 5 ms.
func loadSharedLink(w *sharedLinkWorld, span time.Duration) {
	for i := 0; i < int(span/time.Millisecond); i++ {
		at := time.Duration(i) * time.Millisecond
		w.d.Sim().At(at, func() {
			w.bulks[0].Send(make([]byte, 1000))
			w.bulks[1].Send(make([]byte, 1000))
		})
		if i%5 == 0 {
			w.d.Sim().At(at, func() { w.inter.Send(make([]byte, 200)) })
		}
	}
}

func schedTestConfig(weights map[jqos.Service]int, capacity int64) jqos.Config {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.LinkCapacity = capacity
	if weights != nil {
		cfg.Scheduler = jqos.SchedulerConfig{Weights: weights, QueueBytes: 64 << 10}
	}
	return cfg
}

var fairWeights = map[jqos.Service]int{
	jqos.ServiceForwarding: 8,
	jqos.ServiceCaching:    1,
}

// TestSchedulerDisabledReportsNoStats: with nil weights (the default),
// no scheduler exists and the snapshot has no queue row — the legacy
// send path runs unchanged (every pre-existing test covers its
// behavior).
func TestSchedulerDisabledReportsNoStats(t *testing.T) {
	w := buildSharedLink(t, 60, schedTestConfig(nil, 0), 0)
	loadSharedLink(w, 200*time.Millisecond)
	w.d.Run(2 * time.Second)
	if _, ok := w.d.Snapshot().Queue(w.dc1, w.dc2); ok {
		t.Fatal("snapshot grew a queue row with scheduling disabled")
	}
	if w.inter.Metrics().Delivered == 0 {
		t.Fatal("legacy path delivered nothing")
	}
}

// TestSchedulerPassThroughMatchesLegacy: on an uncapacitated link the
// scheduler drains inline, so an identical workload must produce
// identical delivery metrics with scheduling on and off — the
// pass-through preserves ordering packet for packet.
func TestSchedulerPassThroughMatchesLegacy(t *testing.T) {
	span := 300 * time.Millisecond
	off := buildSharedLink(t, 61, schedTestConfig(nil, 0), 0)
	loadSharedLink(off, span)
	off.d.Run(3 * time.Second)

	on := buildSharedLink(t, 61, schedTestConfig(fairWeights, 0), 0)
	loadSharedLink(on, span)
	on.d.Run(3 * time.Second)

	mo, mn := off.inter.Metrics(), on.inter.Metrics()
	if mo.Sent != mn.Sent || mo.Delivered != mn.Delivered || mo.OnTime != mn.OnTime {
		t.Fatalf("pass-through diverged: off sent/del/ontime %d/%d/%d, on %d/%d/%d",
			mo.Sent, mo.Delivered, mo.OnTime, mn.Sent, mn.Delivered, mn.OnTime)
	}
	if lo, ln := mo.Latency.Mean(), mn.Latency.Mean(); lo != ln {
		t.Fatalf("pass-through latency diverged: %.4f vs %.4f ms", lo, ln)
	}
	// The inline-drained scheduler still counted everything it moved.
	st, ok := on.d.Snapshot().Queue(on.dc1, on.dc2)
	if !ok {
		t.Fatal("no sched stats on the enabled run")
	}
	if st.QueuedPackets != 0 {
		t.Fatalf("inline drain left %d packets queued", st.QueuedPackets)
	}
	var dropped uint64
	for _, c := range st.PerClass {
		dropped += c.DroppedPackets
	}
	if dropped != 0 {
		t.Fatalf("uncapacitated pass-through dropped %d packets", dropped)
	}
}

// TestWFQProtectsInteractiveBudget is the deployment-level acceptance
// check: 2× bulk saturation of the one shared link; the interactive
// budget survives with the scheduler and dies with the FIFO.
func TestWFQProtectsInteractiveBudget(t *testing.T) {
	const capacity = 1_000_000
	span := 1500 * time.Millisecond

	fifo := buildSharedLink(t, 62, schedTestConfig(nil, capacity), capacity)
	loadSharedLink(fifo, span)
	fifo.d.Run(10 * time.Second)

	wfq := buildSharedLink(t, 62, schedTestConfig(fairWeights, capacity), capacity)
	loadSharedLink(wfq, span)
	wfq.d.Run(10 * time.Second)

	mf, mw := fifo.inter.Metrics(), wfq.inter.Metrics()
	if mw.Sent == 0 || mf.Sent == 0 {
		t.Fatal("no interactive traffic")
	}
	if frac := float64(mw.OnTime) / float64(mw.Sent); frac < 0.95 {
		t.Errorf("scheduled run on-time fraction %.2f (%d/%d), want ≥0.95", frac, mw.OnTime, mw.Sent)
	}
	if frac := float64(mf.OnTime) / float64(mf.Sent); frac > 0.5 {
		t.Errorf("FIFO run on-time fraction %.2f (%d/%d) — link not actually contended", frac, mf.OnTime, mf.Sent)
	}
	// The protection came from the bulk class paying: tail-drops in its
	// queue, surfaced on the bulk flows, never on the interactive one.
	if mw.EgressDropped != 0 {
		t.Errorf("interactive flow lost %d packets to the scheduler", mw.EgressDropped)
	}
	var bulkDrops uint64
	for _, bf := range wfq.bulks {
		bulkDrops += bf.Metrics().EgressDropped
	}
	if bulkDrops == 0 {
		t.Error("bulk flows report no egress drops under 2× saturation")
	}
}

// egressWatcher records egress-drop events.
type egressWatcher struct {
	drops int
	bytes int
	class jqos.Service
}

func (w *egressWatcher) onEvent(_ *jqos.Flow, e telemetry.Event) {
	if e.Kind == telemetry.KindEgressDrop {
		w.drops++
		w.bytes += int(e.V1)
		w.class = e.Class
	}
}

// TestEgressDropSurfacedToObserver: scheduler tail-drops reach the
// flow's observer and metrics, and SchedStats conserves packets
// (enqueued + dropped = offered; enqueued = dequeued once drained).
func TestEgressDropSurfacedToObserver(t *testing.T) {
	const capacity = 500_000
	cfg := schedTestConfig(fairWeights, capacity)
	cfg.Scheduler.QueueBytes = 16 << 10 // tight cap: drops come fast
	w := buildSharedLink(t, 63, cfg, capacity)
	watch := &egressWatcher{}
	// Re-register bulk 0 with an observer (cheaper than plumbing an
	// option through the builder): close the old flow first.
	spec := w.bulks[0].Spec()
	w.bulks[0].Close()
	spec.OnEvent = watch.onEvent
	bf, err := w.d.RegisterFlow(spec)
	if err != nil {
		t.Fatal(err)
	}
	w.bulks[0] = bf

	loadSharedLink(w, 500*time.Millisecond)
	w.d.Run(5 * time.Second)

	m := bf.Metrics()
	if m.EgressDropped == 0 {
		t.Fatal("no egress drops under 4× class saturation")
	}
	if uint64(watch.drops) != m.EgressDropped {
		t.Errorf("observer heard %d drops, metrics counted %d", watch.drops, m.EgressDropped)
	}
	if watch.class != jqos.ServiceCaching {
		t.Errorf("drops attributed to class %v, want caching", watch.class)
	}
	st, ok := w.d.Snapshot().Queue(w.dc1, w.dc2)
	if !ok {
		t.Fatal("no sched stats")
	}
	if st.QueuedPackets != 0 || st.QueuedBytes != 0 {
		t.Fatalf("backlog %d pkts/%d bytes after drain", st.QueuedPackets, st.QueuedBytes)
	}
	for cls, c := range st.PerClass {
		if c.EnqueuedPackets != c.DequeuedPackets {
			t.Errorf("class %d: enqueued %d != dequeued %d after drain",
				cls, c.EnqueuedPackets, c.DequeuedPackets)
		}
	}
}

// TestDequeueSideMeteringBoundsLinkLoad: the load meters feed on
// dequeue, so even at 2× offered load the measured link rate is the
// paced egress — utilization saturates at 1.0 instead of reading
// phantom demand, and the lifetime byte totals match what the
// scheduler released.
func TestDequeueSideMeteringBoundsLinkLoad(t *testing.T) {
	const capacity = 1_000_000
	w := buildSharedLink(t, 64, schedTestConfig(fairWeights, capacity), capacity)
	span := 1500 * time.Millisecond
	loadSharedLink(w, span)

	var midRate, midUtil float64
	w.d.Sim().At(span-100*time.Millisecond, func() {
		if ll, ok := w.d.Snapshot().Link(w.dc1, w.dc2); ok {
			midRate, midUtil = ll.AB.Rate, ll.Utilization
		}
	})
	w.d.Run(10 * time.Second)

	if midRate == 0 {
		t.Fatal("mid-run link load never sampled")
	}
	// Paced egress: the meter must see ≈capacity, not the 2× offer.
	// (Small overshoot allowed: the window straddles the pump's packet
	// boundaries.)
	if midRate > 1.1*capacity {
		t.Errorf("dequeue-side rate %.0f B/s exceeds capacity %d — metering moved back to enqueue?", midRate, capacity)
	}
	if midUtil < 0.8 {
		t.Errorf("utilization %.2f under full saturation, want ≈1", midUtil)
	}
	// Lifetime conservation: bytes the meters recorded dc1→dc2 equal
	// bytes the scheduler dequeued (both count exactly the data plane;
	// probes bypass both).
	snap := w.d.Snapshot()
	ll, ok := snap.Link(w.dc1, w.dc2)
	if !ok {
		t.Fatal("no link load")
	}
	st, ok := snap.Queue(w.dc1, w.dc2)
	if !ok {
		t.Fatal("no sched stats")
	}
	var dequeued uint64
	for _, c := range st.PerClass {
		dequeued += c.DequeuedBytes
	}
	if ll.AB.Bytes != dequeued {
		t.Errorf("meters recorded %d bytes, scheduler released %d", ll.AB.Bytes, dequeued)
	}
}
