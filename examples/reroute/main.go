// Reroute: a forwarding flow crosses a sparse 4-DC overlay (a diamond —
// no direct link between the sender's and receiver's DCs). Mid-flow, the
// primary inter-DC link dies. The routing control plane's link monitor
// detects the probe losses, marks the link down, recomputes paths, and
// pushes new next-hop tables — packets shift to the alternate path with
// no sender involvement, and shift back when the link heals.
//
//	go run ./examples/reroute
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
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond

	// Diamond overlay: primary dc1→dc2→dc4 (30 ms), backup dc1→dc3→dc4
	// (50 ms). dc1 and dc4 have NO direct link — the seed's full-mesh
	// assumption would have refused this deployment outright.
	dep, dcs := worlds.Diamond(7, cfg, 15*time.Millisecond, 25*time.Millisecond)
	dc1, dc2, dc4 := dcs[0], dcs[1], dcs[3]
	src, dst := worlds.HostPair(dep, dc1, dc4)

	for i, p := range dep.Routing().Paths(dc1, dc4, 2) {
		kind := "primary "
		if i > 0 {
			kind = "alternate"
		}
		fmt.Printf("%s path dc1→dc4: %v  (%v one-way)\n", kind, p.Nodes, p.Cost)
	}

	// Register purely against routed overlay latency (no direct Internet
	// path exists between src and dst).
	flow, err := dep.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("selected service: %v\n\n", flow.Service())

	// 6 s of CBR traffic, with delivery latency bucketed per 250 ms of
	// send time so the reroute is visible as a latency step; the dc2—dc4
	// link dies at 2 s and heals at 4 s.
	const span, bucket, spacing = 6 * time.Second, 250 * time.Millisecond, 5 * time.Millisecond
	rec := worlds.Record(dep, dst, span, bucket)
	worlds.CBR(dep, flow, 20, spacing, 0, span)
	dep.Sim().At(2*time.Second, func() {
		fmt.Println("t=2.000s  dc2—dc4 link fails (blackhole)")
		dep.Link(dc2, dc4).Disconnect()
	})
	dep.Sim().At(4*time.Second, func() {
		fmt.Println("t=4.000s  dc2—dc4 link repaired")
		dep.Link(dc2, dc4).Set(15*time.Millisecond, 0)
	})
	dep.Run(15 * time.Second)

	fmt.Println("\nmean delivery latency by send time:")
	for b, n := range rec.Counts {
		from := time.Duration(b) * bucket
		if n == 0 {
			fmt.Printf("  %5.2fs  (all lost — failure detection window)\n", from.Seconds())
			continue
		}
		mean := rec.Sums[b] / time.Duration(n)
		bar := ""
		for i := time.Duration(0); i < mean; i += 4 * time.Millisecond {
			bar += "#"
		}
		fmt.Printf("  %5.2fs  %6.1fms  %-18s (%d/%d delivered)\n",
			from.Seconds(), float64(mean)/float64(time.Millisecond), bar, n, int(bucket/spacing))
	}

	m := flow.Metrics()
	st := dep.Snapshot().Routing
	h, _ := dep.Link(dc2, dc4).Health()
	fmt.Printf("\ndelivered:   %d of %d (%.1f%% lost in the detection gap)\n",
		m.Delivered, m.Sent, 100*m.LossRate())
	fmt.Printf("on budget:   %d/%d (300ms)\n", m.OnTime, m.Delivered)
	fmt.Printf("control:     %d recomputes, %d route pushes, %d reroutes\n",
		st.Recomputes, st.Pushes, st.Reroutes)
	fmt.Printf("link dc2—dc4: state=%v rtt=%v probes=%d lost=%d\n",
		h.State, h.RTT.Round(time.Millisecond), h.ProbesSent, h.ProbesLost)
	fmt.Printf("failures=%d recoveries=%d\n", st.LinkFailures, st.LinkRecoveries)
}
