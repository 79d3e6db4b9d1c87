package jqos_test

import (
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/wire"
)

// Failure-injection tests: malformed datagrams, truncated messages, and
// hostile inputs must be dropped and counted, never panic or corrupt state.

func TestDCNodeSurvivesGarbage(t *testing.T) {
	w := newWorld(t, 50, nil)
	net := w.d.Network()
	// Garbage bytes, truncated header, bad magic.
	for _, payload := range [][]byte{
		{},
		{1, 2, 3},
		make([]byte, wire.HeaderLen-1),
		func() []byte { b := make([]byte, wire.HeaderLen); b[0] = 0xFF; return b }(),
	} {
		net.Send(w.src, w.dc1, payload)
	}
	// A valid header with a truncated coded body.
	hdr := wire.Header{Type: wire.TypeCoded, Service: jqos.ServiceCoding, Src: w.src, Dst: w.dc1}
	net.Send(w.src, w.dc1, wire.AppendMessage(nil, &hdr, []byte{1, 2}))
	// A coop response with a truncated reference.
	hdr.Type = wire.TypeCoopResp
	net.Send(w.src, w.dc1, wire.AppendMessage(nil, &hdr, []byte{9}))
	// An unknown message type addressed to the DC itself.
	hdr.Type = wire.MsgType(210)
	net.Send(w.src, w.dc1, wire.AppendMessage(nil, &hdr, nil))
	w.d.Run(time.Second)
	if drops := w.d.DC(w.dc1).Dropped(); drops < 6 {
		t.Errorf("DC dropped %d malformed datagrams, want ≥6", drops)
	}
	snap := w.d.Snapshot()
	want := w.d.DC(w.dc1).Dropped()
	if got := snap.Totals.NodeDropped; got != want {
		t.Errorf("snapshot node drops %d, want the DC's %d", got, want)
	}
	// The DC still works afterwards.
	f, err := w.d.RegisterFlow(fixedSpec(w.src, w.dst, 300*time.Millisecond, jqos.ServiceForwarding))
	if err != nil {
		t.Fatal(err)
	}
	f.Send([]byte("still alive"))
	w.d.Run(time.Second)
	if f.Metrics().Delivered != 1 {
		t.Error("DC wedged after garbage input")
	}
}

func TestHostSurvivesGarbage(t *testing.T) {
	w := newWorld(t, 51, nil)
	net := w.d.Network()
	net.Send(w.src, w.dst, []byte{0xDE, 0xAD})
	hdr := wire.Header{Type: wire.TypeCoded, Src: w.dc2, Dst: w.dst}
	net.Send(w.src, w.dst, wire.AppendMessage(nil, &hdr, []byte{1}))
	hdr.Type = wire.TypeCoopReq
	net.Send(w.src, w.dst, wire.AppendMessage(nil, &hdr, []byte{2, 3}))
	hdr.Type = wire.MsgType(200)
	net.Send(w.src, w.dst, wire.AppendMessage(nil, &hdr, nil))
	w.d.Run(time.Second)
	if drops := w.d.Host(w.dst).Dropped(); drops < 4 {
		t.Errorf("host dropped %d malformed datagrams, want ≥4", drops)
	}
	if got, want := w.d.Snapshot().Totals.NodeDropped, w.d.Host(w.dst).Dropped(); got != want {
		t.Errorf("snapshot node drops %d, want the host's %d", got, want)
	}
}

func TestForgedRecoveryForUnknownFlow(t *testing.T) {
	// A TypeRecovered for a flow the host never registered must create
	// state lazily and deliver exactly once, never panic.
	w := newWorld(t, 52, nil)
	hdr := wire.Header{Type: wire.TypeRecovered, Service: jqos.ServiceCoding,
		Flow: 999, Seq: 5, Src: w.dc2, Dst: w.dst}
	w.d.Network().Send(w.dc2, w.dst, wire.AppendMessage(nil, &hdr, []byte("forged")))
	w.d.Network().Send(w.dc2, w.dst, wire.AppendMessage(nil, &hdr, []byte("forged")))
	w.d.Run(time.Second)
	if got := len(w.deliveries); got != 1 {
		t.Errorf("forged recovery delivered %d times", got)
	}
}

func TestForgedServiceNotCounted(t *testing.T) {
	// A forged header naming no service still delivers, but counts under
	// no service in ByService (and must not index past it).
	w := newWorld(t, 52, nil)
	f, err := w.d.RegisterFlow(fixedSpec(w.src, w.dst, time.Second, jqos.ServiceCoding))
	if err != nil {
		t.Fatal(err)
	}
	hdr := wire.Header{Type: wire.TypeRecovered, Service: 200,
		Flow: f.ID(), Seq: 5, Src: w.dc2, Dst: w.dst}
	w.d.Network().Send(w.dc2, w.dst, wire.AppendMessage(nil, &hdr, []byte("forged")))
	w.d.Run(time.Second)
	m := f.Metrics()
	var byService uint64
	for _, n := range m.ByService {
		byService += n
	}
	if m.Delivered != 1 || byService != 0 {
		t.Errorf("delivered %d, ByService sum %d; want 1 and 0", m.Delivered, byService)
	}
}

func TestRecoveryTrafficRelayedAcrossDCs(t *testing.T) {
	// A cooperative helper attached to a *different* DC than the
	// recovering DC2: its CoopResp must relay dc1→dc2 through the
	// forwarders (the transmit fallback path).
	d := jqos.NewDeployment(53)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	// Primary pair: src near dc1, dst near dc2 (lossy).
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	outage := &netem.OutageSchedule{}
	outage.AddOutage(200*time.Millisecond, 200*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), outage)
	f, err := d.RegisterFlow(fixedSpec(src, dst, time.Hour, jqos.ServiceCoding))
	if err != nil {
		t.Fatal(err)
	}
	var recovered int
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		if del.Recovered {
			recovered++
		}
	})
	// Helper pairs whose receivers sit near dc1 — so when dc2 runs
	// cooperative recovery it must reach helpers through dc1.
	for i := 0; i < 3; i++ {
		bs := d.AddHost(dc1, 5*time.Millisecond)
		// Helper receivers attached to dc1, but their flows still
		// egress at dst's DC2 for coding... their own direct paths:
		bd := d.AddHost(dc2, 8*time.Millisecond)
		d.SetDirectPath(bs, bd, netem.FixedDelay(50*time.Millisecond), nil)
		bg, err := d.RegisterFlow(fixedSpec(bs, bd, time.Hour, jqos.ServiceCoding))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 200; k++ {
			at := time.Duration(i)*3*time.Millisecond + time.Duration(k)*5*time.Millisecond
			d.Sim().At(at, func() { bg.Send(make([]byte, 200)) })
		}
	}
	for k := 0; k < 200; k++ {
		at := time.Duration(k) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send(make([]byte, 200)) })
	}
	d.Run(10 * time.Second)
	if recovered < 20 {
		t.Errorf("cross-DC recovery produced only %d recoveries", recovered)
	}
}

func TestAccessDelayOptionShapesUplink(t *testing.T) {
	d := jqos.NewDeployment(54)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond,
		jqos.WithAccessDelay(netem.FixedDelay(30*time.Millisecond)))
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), nil)
	f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: time.Hour,
		Service: jqos.ServiceForwarding, ServiceFixed: true, PathSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	var at []time.Duration
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) { at = append(at, del.At-del.Packet.Sent) })
	f.Send([]byte("x"))
	d.Run(time.Second)
	// Overlay path: 5 + 40(+jitter) + 30 (custom access delay) ≈ 75 ms.
	if len(at) != 1 || at[0] < 75*time.Millisecond || at[0] > 77*time.Millisecond {
		t.Errorf("delivery latency = %v, want ~75ms", at)
	}
}

func TestSharedFateThroughDeployment(t *testing.T) {
	// With the entire loss budget on a shared first mile, losses must be
	// unrecoverable: the cloud copy dies with the direct copy.
	d := jqos.NewDeployment(55)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	shared := netem.NewSharedFate(netem.Bernoulli{P: 0.1})
	src := d.AddHost(dc1, 5*time.Millisecond, jqos.WithAccessLossModel(shared))
	dst := d.AddHost(dc2, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), shared)
	f, err := d.RegisterFlow(fixedSpec(src, dst, time.Hour, jqos.ServiceCaching))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 500; k++ {
		at := time.Duration(k) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send(make([]byte, 100)) })
	}
	d.Run(10 * time.Second)
	m := f.Metrics()
	if m.Recovered > 5 {
		t.Errorf("recovered %d despite shared-fate loss (cache should never have the copy)", m.Recovered)
	}
	if m.LossRate() < 0.05 {
		t.Errorf("loss rate %.3f — shared fate not applied", m.LossRate())
	}
}

func TestUnsolicitedReceiverStateBounded(t *testing.T) {
	// A sender forging fresh flow IDs ≥ nextFlow creates lazy receiver
	// state (the mid-join contract) — but an LRU cap must bound it, or a
	// forged-ID flood grows the per-host map without any teardown path.
	w := newWorld(t, 54, nil)
	for i := 0; i < 200; i++ {
		hdr := wire.Header{Type: wire.TypeRecovered, Service: jqos.ServiceCoding,
			Flow: core.FlowID(10_000 + i), Seq: 1, Src: w.dc2, Dst: w.dst}
		w.d.Network().Send(w.dc2, w.dst, wire.AppendMessage(nil, &hdr, []byte("x")))
		w.d.Run(10 * time.Millisecond)
	}
	w.d.Run(time.Second)
	h := w.d.Host(w.dst)
	if got := h.UnsolicitedReceivers(); got > 32 {
		t.Fatalf("unsolicited receivers = %d after 200 forged flows, want ≤ 32", got)
	}
	if got := h.ReceiverCount(); got > 40 {
		t.Fatalf("receiver count = %d after forged flood, want bounded near the cap", got)
	}
	// Deliveries still happened — the cap bounds state, not the lazy
	// delivery contract.
	if len(w.deliveries) != 200 {
		t.Errorf("forged flood delivered %d of 200", len(w.deliveries))
	}
}

func TestUnsolicitedReceiverLRUKeepsActive(t *testing.T) {
	// A repeatedly-used unsolicited receiver must survive a flood of
	// one-shot forged IDs: the cap evicts least-recently-used state, so
	// the active external flow keeps its dedup history (no replays).
	w := newWorld(t, 55, nil)
	send := func(flow core.FlowID, seq core.Seq) {
		hdr := wire.Header{Type: wire.TypeRecovered, Service: jqos.ServiceCoding,
			Flow: flow, Seq: seq, Src: w.dc2, Dst: w.dst}
		w.d.Network().Send(w.dc2, w.dst, wire.AppendMessage(nil, &hdr, []byte("y")))
		w.d.Run(10 * time.Millisecond)
	}
	const active core.FlowID = 5_000
	send(active, 1)
	for i := 0; i < 100; i++ {
		send(core.FlowID(20_000+i), 1)
		send(active, core.Seq(2+i)) // keep the active flow recently used
	}
	// Replay an old sequence number of the active flow: its receiver must
	// still exist (never evicted) and deduplicate the replay.
	w.d.Run(time.Second)
	before := len(w.deliveries)
	send(active, 1)
	w.d.Run(time.Second)
	if got := len(w.deliveries); got != before {
		t.Errorf("replay on LRU-kept receiver delivered (receiver was evicted)")
	}
}

func TestUnsolicitedReceiverPromotedWhenFlowGoesLive(t *testing.T) {
	// A forged ID that a later registration legitimately allocates: a
	// host that met the ID pre-allocation (and is not one of the flow's
	// destinations, so registration cannot reset it) must promote its
	// receiver out of the unsolicited LRU on next contact — otherwise a
	// forged-ID flood could evict LIVE flow state, and Flow.Close could
	// never free it.
	w := newWorld(t, 56, nil)
	third := w.d.AddHost(w.dc2, 6*time.Millisecond)
	hdr := wire.Header{Type: wire.TypeRecovered, Service: jqos.ServiceCoding,
		Flow: 1, Seq: 1, Src: w.dc2, Dst: third}
	w.d.Network().Send(w.dc2, third, wire.AppendMessage(nil, &hdr, []byte("early")))
	w.d.Run(time.Second)
	h := w.d.Host(third)
	if got := h.UnsolicitedReceivers(); got != 1 {
		t.Fatalf("pre-allocation receiver not unsolicited: %d", got)
	}
	f, err := w.d.RegisterFlow(jqos.FlowSpec{Src: w.src, Dst: w.dst, Budget: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != 1 {
		t.Fatalf("flow allocated ID %d, test assumes 1", f.ID())
	}
	// A live-flow packet reaches the third host (mid-join style).
	hdr.Seq = 2
	w.d.Network().Send(w.dc2, third, wire.AppendMessage(nil, &hdr, []byte("late")))
	w.d.Run(time.Second)
	if got := h.UnsolicitedReceivers(); got != 0 {
		t.Errorf("live flow still listed unsolicited (%d) — evictable mid-stream", got)
	}
	if got := h.ReceiverCount(); got != 1 {
		t.Fatalf("third host holds %d receivers, want 1", got)
	}
	// Promotion indexed the receiver for teardown: Close frees it.
	f.Close()
	if got := h.ReceiverCount(); got != 0 {
		t.Errorf("promoted receiver leaked across Close (%d left)", got)
	}
}
