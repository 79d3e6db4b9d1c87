// Congestion: load-aware traffic engineering on the overlay. Two bulk
// flows saturate one of two equal-latency overlay branches; the per-link
// rate meters report the utilization, the routing controller inflates the
// hot branch's weight (M/M/1-style above the knee), and a later
// interactive flow is steered onto the idle branch — its tight budget
// survives the bulk load. One bulk flow also carries a token-bucket
// admission contract, so its excess never reaches the cloud at all.
//
//	go run ./examples/congestion
package main

import (
	"fmt"
	"time"

	"jqos"
	"jqos/internal/worlds"
)

func main() {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.LinkCapacity = 1_000_000 // 1 MB/s accounting capacity per inter-DC link

	// A square overlay: two equal 40 ms branches between dc1 and dc4.
	d, dcs := worlds.Diamond(7, cfg, 20*time.Millisecond, 20*time.Millisecond)
	dc1, dc2, dc3, dc4 := dcs[0], dcs[1], dcs[2], dcs[3]

	// Both bulk flows are pinned to the primary branch (via dc2) and
	// stream 1000-byte payloads at 1 ms spacing for 5 s, ~1 MB/s offered
	// each.
	mkBulk := func(rate, burst int64) *jqos.Flow {
		src, dst := worlds.HostPair(d, dc1, dc4)
		f, err := d.RegisterFlow(jqos.FlowSpec{
			Src: src, Dst: dst, Budget: 500 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Path: jqos.PathPolicy{Kind: jqos.PathPinned, Alternate: 0},
			Rate: rate, Burst: burst,
		})
		if err != nil {
			panic(err)
		}
		return f
	}
	// Bulk flow 1 has no admission contract — it will saturate the branch.
	// Bulk flow 2 has a 200 kB/s token-bucket contract: its excess is
	// dropped at the ingress — judicious use of the overlay enforced per
	// flow.
	bulk1, bulk2 := mkBulk(0, 0), mkBulk(200_000, 10_000)
	worlds.CBR(d, bulk1, 1000, time.Millisecond, 0, 5*time.Second)
	worlds.CBR(d, bulk2, 1000, time.Millisecond, 0, 5*time.Second)

	// Let the bulk load build and the telemetry react.
	d.Run(2500 * time.Millisecond)

	snap := d.Snapshot()
	hot, _ := snap.Link(dc1, dc2)
	cool, _ := snap.Link(dc1, dc3)
	fmt.Printf("after 2.5s of bulk:\n")
	fmt.Printf("  dc1–dc2 (hot):  %.0f kB/s, utilization %.2f\n", hot.AB.Rate/1000, hot.Utilization)
	fmt.Printf("  dc1–dc3 (idle): %.0f kB/s, utilization %.2f\n", cool.AB.Rate/1000, cool.Utilization)
	l := d.Routing().Graph().Link(dc1, dc2)
	fmt.Printf("  hot-link weight inflation: ×%.1f\n", l.Congest)
	st := snap.Routing
	fmt.Printf("  congestion reroutes: %d (of %d accepted load reports)\n",
		st.CongestionReroutes, st.UtilizationUpdates)
	fmt.Printf("  bulk2 admission: %d dropped at ingress (contract %d B/s)\n",
		bulk2.Metrics().AdmissionDropped, bulk2.Spec().Rate)

	// Now an interactive flow with a tight budget registers: selection
	// and routing see the inflated weight and place it on the idle
	// branch.
	is, id := worlds.HostPair(d, dc1, dc4)
	inter, err := d.RegisterFlow(jqos.FlowSpec{
		Src: is, Dst: id, Budget: 100 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ninteractive flow: service %v, path %v (dc3 is the idle branch)\n",
		inter.Service(), inter.Path())

	rec := worlds.Record(d, id, 0, 0) // worst latency only
	worlds.CBR(d, inter, 11, 5*time.Millisecond, 2500*time.Millisecond, 4500*time.Millisecond)
	d.Run(10 * time.Second)

	m := inter.Metrics()
	fmt.Printf("interactive delivered %d/%d on time, worst latency %.1f ms (budget 100 ms)\n",
		m.OnTime, m.Sent, float64(rec.Worst)/float64(time.Millisecond))
	fmt.Printf("\ntotals: bulk1 sent %d, bulk2 sent %d (%d cloud copies dropped by contract)\n",
		bulk1.Metrics().Sent, bulk2.Metrics().Sent, bulk2.Metrics().AdmissionDropped)

	// Short-lived flows are closed, freeing pins, watches, and receiver
	// state.
	inter.Close()
	bulk1.Close()
	bulk2.Close()
}
