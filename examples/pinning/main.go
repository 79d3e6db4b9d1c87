// Pinning: per-flow path policies over the overlay's k-alternate paths.
//
// The overlay has two routes between dc1 and dc3: a fast two-hop detour
// (15+15 ms via dc2 — two billable egress events) and a slower single
// link (45 ms — one egress event). A latency-critical forwarding flow
// rides the fastest path (the default policy), while a coding flow pins
// its parity stream to the cheapest path: coding ships only α·c of the
// traffic, so spending the extra 15 ms to halve its egress bill is the
// judicious trade. When the cheap link dies mid-run, the controller
// notifies the pinned flow, which re-resolves onto the survivor — the
// flows' event subscriber prints the lifecycle as it happens.
//
//	go run ./examples/pinning
package main

import (
	"fmt"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/telemetry"
	"jqos/internal/worlds"
)

// printer logs flow lifecycle events as they happen. A reroute event
// names only the new path's ends, so it remembers each flow's last path
// to print the whole change.
type printer struct {
	last map[jqos.FlowID][]jqos.NodeID
}

func (p *printer) onEvent(f *jqos.Flow, e telemetry.Event) {
	switch e.Kind {
	case telemetry.KindReroute:
		next := f.Path()
		fmt.Printf("[%6.2fs] flow %d rerouted: %v → %v\n",
			e.At.Seconds(), f.ID(), p.last[f.ID()], next)
		p.last[f.ID()] = next
	case telemetry.KindServiceChange:
		fmt.Printf("[%6.2fs] flow %d service %v → %v (%v)\n",
			e.At.Seconds(), f.ID(), jqos.Service(e.V1), e.Class, jqos.ServiceChangeReason(e.Reason))
	}
}

func main() {
	cfg := jqos.DefaultConfig()
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	dep := jqos.NewDeploymentWithConfig(42, cfg)

	dc1 := dep.AddDC("us-east", dataset.RegionUSEast)
	dc2 := dep.AddDC("us-central", dataset.RegionUSWest)
	dc3 := dep.AddDC("us-west", dataset.RegionUSWest)
	dep.ConnectDCs(dc1, dc2, 15*time.Millisecond)
	dep.ConnectDCs(dc2, dc3, 15*time.Millisecond)
	dep.ConnectDCs(dc1, dc3, 45*time.Millisecond) // fewer hops, more latency

	ev := &printer{last: make(map[jqos.FlowID][]jqos.NodeID)}

	// Flow 1 — latency-critical forwarding on the FASTEST path (default
	// policy): every packet crosses dc2, paying two inter-DC egresses.
	fsrc, fdst := worlds.HostPair(dep, dc1, dc3)
	fast, err := dep.RegisterFlow(jqos.FlowSpec{
		Src: fsrc, Dst: fdst,
		Budget:  100 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		OnEvent: ev.onEvent,
	})
	if err != nil {
		panic(err)
	}

	// Flow 2 — coding with parity pinned to the CHEAPEST path: the
	// direct Internet path carries the stream; only the small parity
	// stream crosses the cloud, over the single-egress link.
	csrc, cdst := worlds.HostPair(dep, dc1, dc3)
	dep.SetDirectPath(csrc, cdst,
		netem.NormalJitter{Base: 60 * time.Millisecond, Sigma: 2 * time.Millisecond, Floor: 50 * time.Millisecond},
		&netem.GilbertElliott{PGoodToBad: 0.004, PBadToGood: 0.4, LossBad: 1})
	cheap, err := dep.RegisterFlow(jqos.FlowSpec{
		Src: csrc, Dst: cdst,
		Budget:  300 * time.Millisecond,
		Service: jqos.ServiceCoding, ServiceFixed: true,
		Path:    jqos.PathPolicy{Kind: jqos.PathCheapest},
		OnEvent: ev.onEvent,
	})
	if err != nil {
		panic(err)
	}

	ev.last[fast.ID()], ev.last[cheap.ID()] = fast.Path(), cheap.Path()
	fmt.Printf("forwarding flow %d path (fastest):  %v\n", fast.ID(), fast.Path())
	fmt.Printf("coding flow %d path (cheapest):     %v\n\n", cheap.ID(), cheap.Path())

	// 1500 packets each, 300 B every 5 ms.
	worlds.CBR(dep, fast, 300, 5*time.Millisecond, 0, 7500*time.Millisecond)
	worlds.CBR(dep, cheap, 300, 5*time.Millisecond, 0, 7500*time.Millisecond)
	// Mid-run, the cheap single link fails; the monitor detects it and
	// the controller tells the pinned flow to re-resolve (onto the
	// two-hop path, now both fastest and cheapest). It heals later and
	// stays healed — re-pinning back is a future policy knob.
	dep.Sim().At(3*time.Second, func() {
		fmt.Printf("[%6.2fs] --- cutting the dc1—dc3 link ---\n", dep.Now().Seconds())
		dep.Link(dc1, dc3).Disconnect()
	})
	dep.Sim().At(5*time.Second, func() { dep.Link(dc1, dc3).Reconnect() })
	dep.Run(20 * time.Second)

	report := func(name string, f *jqos.Flow) {
		m := f.Metrics()
		fmt.Printf("\n%s (flow %d, %v):\n", name, f.ID(), f.Service())
		fmt.Printf("  delivered: %d/%d (%d recovered)\n", m.Delivered, m.Sent, m.Recovered)
		fmt.Printf("  latency:   p50 %.1f ms, p99 %.1f ms\n", m.Latency.Median(), m.Latency.Quantile(0.99))
		fmt.Printf("  path now:  %v\n", f.Path())
	}
	report("forwarding-on-fastest", fast)
	report("coding-on-cheapest", cheap)

	fmt.Printf("\nper-DC egress (the cost the path policy controls):\n")
	for _, dc := range []core.NodeID{dc1, dc2, dc3} {
		st := dep.DC(dc).Forwarder().Stats()
		fmt.Printf("  %v: %8d bytes egress, %d copies forwarded (%d flow-pinned)\n",
			dc, dep.EgressBytes(dc), st.Copies, st.FlowPinned)
	}
	fmt.Printf("total cloud cost: $%.6f\n", dep.CloudCost())
}
