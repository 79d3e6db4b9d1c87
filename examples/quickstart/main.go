// Quickstart: build a two-DC emulated deployment, register a flow with a
// latency budget, stream packets over a lossy transatlantic path, and watch
// J-QoS pick the cheapest service and repair the losses. This is the world
// internal/worlds builds for every other example (worlds.Paper plus helper
// flows), written out by hand on purpose: it is the tutorial of the raw API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"jqos"
	"jqos/internal/dataset"
	"jqos/internal/netem"
)

func main() {
	dep := jqos.NewDeployment(42)

	// Cloud overlay: two DCs joined by a tight 40 ms inter-DC path.
	dc1 := dep.AddDC("us-east", dataset.RegionUSEast)
	dc2 := dep.AddDC("eu-west", dataset.RegionEU)
	dep.ConnectDCs(dc1, dc2, 40*time.Millisecond)

	// Endpoints: a sender near DC1, a receiver near DC2.
	src := dep.AddHost(dc1, 5*time.Millisecond)
	dst := dep.AddHost(dc2, 8*time.Millisecond)

	// The best-effort Internet path between them: ~50 ms one way with
	// bursty loss (a Gilbert-Elliott channel averaging ~1% loss).
	dep.SetDirectPath(src, dst,
		netem.NormalJitter{Base: 50 * time.Millisecond, Sigma: 2 * time.Millisecond, Floor: 40 * time.Millisecond},
		&netem.GilbertElliott{PGoodToBad: 0.004, PBadToGood: 0.4, LossBad: 1})

	// Three background flows share the overlay so cross-stream coding
	// has streams to mix (k=6 by default).
	for i := 0; i < 3; i++ {
		bs := dep.AddHost(dc1, 5*time.Millisecond)
		bd := dep.AddHost(dc2, 8*time.Millisecond)
		dep.SetDirectPath(bs, bd, netem.FixedDelay(50*time.Millisecond), nil)
		bg, err := dep.RegisterFlow(jqos.FlowSpec{
			Src: bs, Dst: bd, Budget: 300 * time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		for k := 0; k < 2000; k++ {
			at := time.Duration(k) * 5 * time.Millisecond
			dep.Sim().At(at, func() { bg.Send(make([]byte, 300)) })
		}
		defer bg.Close()
	}

	// Register with a 300 ms delivery budget: selection picks the
	// cheapest service that fits (coding, at these latencies). FlowSpec
	// could additionally join a cost-capped tenant, pin an overlay path,
	// or subscribe to its events.
	flow, err := dep.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("selected service: %v (budget 300ms)\n", flow.Service())

	// Stream 2000 packets at 200 pps.
	const packets = 2000
	for k := 0; k < packets; k++ {
		at := time.Duration(k) * 5 * time.Millisecond
		dep.Sim().At(at, func() { flow.Send([]byte("quickstart payload: hello judicious QoS")) })
	}

	dep.Run(30 * time.Second)

	m := flow.Metrics()
	fmt.Printf("sent:        %d\n", m.Sent)
	fmt.Printf("delivered:   %d (%.2f%% loss after recovery)\n", m.Delivered, 100*m.LossRate())
	fmt.Printf("recovered:   %d via the cloud\n", m.Recovered)
	fmt.Printf("on budget:   %d/%d\n", m.OnTime, m.Delivered)
	fmt.Printf("latency:     p50 %.1f ms, p99 %.1f ms\n", m.Latency.Median(), m.Latency.Quantile(0.99))
	fmt.Printf("cloud cost:  $%.6f of egress for the whole run\n", dep.CloudCost())
	rec := dep.DC(dc2).Recoverer().Stats()
	fmt.Printf("DC2:         %d NACKs, %d cooperative recoveries, %d in-stream serves\n",
		rec.NACKs, rec.CoopRecovered, rec.InStreamServed)

	// Tear the flow down: unpins it from the routing controller and frees
	// the receiver-side recovery state — the discipline short-lived flows
	// must follow.
	flow.Close()
}
