package jqos_test

import (
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/routing"
)

// runHealthyReroute drives the make-before-break scenario on the
// diamond: a flow streams dc1→dc4 over the 30 ms primary (via dc2), and
// mid-stream the dc2—dc4 link's congestion weight inflates ×8 — a
// healthy path change (the link stays up at its real 15 ms), so there is
// no detection gap to excuse losses. The inflation is the nasty kind:
// dc1 moves its dc4 traffic to the 50 ms branch via dc3, AND dc2's own
// best route to dc4 flips to back through dc1 — so any in-flight packet
// re-resolved against dc2's NEW table bounces backward and arrives late
// and out of order. The epoch overlay instead finishes those packets on
// the table they departed under, for the 200 ms drain window. With
// inPlace set the test retires the old epoch itself in the same instant
// as the reweight — an in-place table swap, the hazard the drain window
// exists to remove.
//
// Returns the in-order arrival count, total deliveries, and how many
// packets dc2 resolved against the retired epoch.
func runHealthyReroute(t *testing.T, inPlace bool) (delivered int, inOrder bool, oldEpoch uint64) {
	t.Helper()
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	d, dcs, src, dst := buildDiamond(t, 92, cfg)
	f, err := d.RegisterFlow(fixedSpec(src, dst, time.Second, jqos.ServiceForwarding))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []core.Seq
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		seqs = append(seqs, del.Packet.ID.Seq)
	})
	const n = 1000 // 2 s of traffic at 2 ms spacing
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte("hitless")) })
	}
	// Mid-stream: report dc2—dc4 near saturation. The M/M/1 inflation
	// prices it at ~8× latency, which moves both dc1's and dc2's tables
	// in one recompute — while the physical link keeps delivering.
	d.Sim().At(time.Second, func() {
		d.Routing().SetLinkUtilizations([]routing.UtilizationReport{{A: dcs[1], B: dcs[3], Util: 0.95}})
		if inPlace {
			d.Routing().RetireEpoch(d.DC(dcs[0]).Forwarder().Epoch())
		}
	})
	d.Run(10 * time.Second)

	// The reroute must actually have happened, and must have caught
	// packets in flight (otherwise the run proves nothing).
	if via, ok := d.DC(dcs[0]).Forwarder().Route(dcs[3]); !ok || via != dcs[2] {
		t.Fatalf("dc1→dc4 via %v %v, want dc3 (inflated primary)", via, ok)
	}
	st := d.Snapshot().Routing
	if st.CongestionReroutes == 0 {
		t.Fatalf("utilization report never rerouted: %+v", st)
	}
	if st.EpochAdvances == 0 {
		t.Fatalf("reroute advanced no table epoch: %+v", st)
	}
	// The in-place control's own retire comes on top of the scheduled one.
	if !inPlace && st.EpochRetires != st.EpochAdvances {
		t.Fatalf("drain windows leaked: %d advances, %d retires", st.EpochAdvances, st.EpochRetires)
	}
	inOrder = true
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			inOrder = false
			break
		}
	}
	return len(seqs), inOrder, d.DC(dcs[1]).Forwarder().Stats().OldEpochResolves
}

// TestMakeBeforeBreakHealthyRerouteHitless: with the drain window, a
// mid-flow reroute on a healthy path change is hitless — zero packet
// loss, zero reordering — and the old-epoch counter proves in-flight
// traffic really was resolved against the retired table rather than the
// swap landing between packets by luck.
func TestMakeBeforeBreakHealthyRerouteHitless(t *testing.T) {
	delivered, inOrder, oldEpoch := runHealthyReroute(t, false)
	if delivered != 1000 {
		t.Errorf("delivered %d of 1000 — reroute lost packets", delivered)
	}
	if !inOrder {
		t.Error("deliveries reordered across the reroute")
	}
	if oldEpoch == 0 {
		t.Error("no packet resolved against the old epoch — the swap never caught traffic in flight")
	}
}

// TestInPlaceSwapIsNotHitless is the control: with the old epoch retired
// the instant the tables change, the very same scenario must show a hit
// (loss or reordering from packets re-resolved mid-path). If this starts
// passing cleanly, the scenario stopped exercising the hazard and the
// hitless test above is vacuous.
func TestInPlaceSwapIsNotHitless(t *testing.T) {
	delivered, inOrder, oldEpoch := runHealthyReroute(t, true)
	if oldEpoch != 0 {
		t.Errorf("in-place swap resolved %d packets against an old epoch", oldEpoch)
	}
	if delivered == 1000 && inOrder {
		t.Error("in-place swap delivered everything in order — scenario no longer creates a hazard")
	}
}
