// Fairshare: per-class weighted fair queueing at DC egress. One inter-DC
// link is saturated 2× over by two bulk flows (caching class) while an
// interactive flow (forwarding class) shares it — the case where routing
// around congestion is impossible (there is no other path) and per-flow
// admission does not help (the bulk flows are within any sane contract;
// the LINK is simply oversubscribed). Config.Scheduler's deficit-round-
// robin queues let the interactive class preempt bulk inside the link:
// its budget holds, and the bulk excess is dropped from the tail of its
// own class queue, surfaced to the flows as egress-drop events.
//
//	go run ./examples/fairshare
package main

import (
	"fmt"
	"strings"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/telemetry"
)

// dropWatcher counts egress tail-drops the scheduler surfaces.
type dropWatcher struct {
	drops int
	bytes int
}

func (w *dropWatcher) onEvent(_ *jqos.Flow, e telemetry.Event) {
	if e.Kind == telemetry.KindEgressDrop {
		w.drops++
		w.bytes += int(e.V1)
	}
}

func main() {
	const capacity = 1_000_000 // 1 MB/s shared link
	run := func(weights map[jqos.Service]int) (onTime, sent uint64, worst time.Duration, drops *dropWatcher) {
		cfg := jqos.DefaultConfig()
		cfg.UpgradeInterval = 0
		cfg.LinkCapacity = capacity
		if weights != nil {
			cfg.Scheduler = jqos.SchedulerConfig{Weights: weights, QueueBytes: 64 << 10}
		}
		d := jqos.NewDeploymentWithConfig(11, cfg)
		dc1 := d.AddDC("us-east", dataset.RegionUSEast)
		dc2 := d.AddDC("eu-west", dataset.RegionEU)
		d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
		// The emulated link serializes at the accounting capacity, so the
		// FIFO run queues for real.
		d.Network().LinkBetween(dc1, dc2).Rate = capacity
		d.Network().LinkBetween(dc2, dc1).Rate = capacity

		drops = &dropWatcher{}
		var bulks []*jqos.Flow
		for i := 0; i < 2; i++ {
			bs := d.AddHost(dc1, 5*time.Millisecond)
			bd := d.AddHost(dc2, 8*time.Millisecond)
			bf, err := d.RegisterFlow(jqos.FlowSpec{
				Src: bs, Dst: bd, Budget: 500 * time.Millisecond,
				Service: jqos.ServiceCaching, ServiceFixed: true,
				OnEvent: drops.onEvent,
			})
			check(err)
			bulks = append(bulks, bf)
		}
		is := d.AddHost(dc1, 5*time.Millisecond)
		id := d.AddHost(dc2, 8*time.Millisecond)
		inter, err := d.RegisterFlow(jqos.FlowSpec{
			Src: is, Dst: id, Budget: 100 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
		})
		check(err)
		d.Host(id).SetDeliveryHandler(func(del core.Delivery) {
			if lat := del.At - del.Packet.Sent; lat > worst {
				worst = lat
			}
		})

		// 4 s of load: bulk 2×1 MB/s, interactive 40 kB/s.
		for i := 0; i < 4000; i++ {
			at := time.Duration(i) * time.Millisecond
			d.Sim().At(at, func() {
				bulks[0].Send(make([]byte, 1000))
				bulks[1].Send(make([]byte, 1000))
			})
			if i%5 == 0 {
				d.Sim().At(at, func() { inter.Send(make([]byte, 200)) })
			}
		}
		d.Run(15 * time.Second) // generous drain for the FIFO backlog

		// One unified exit report — the snapshot rolls up what the old
		// SchedStats printf block polled per subsystem.
		fmt.Print(indent(d.Snapshot().Summary()))
		m := inter.Metrics()
		onTime, sent = m.OnTime, m.Sent
		inter.Close()
		for _, bf := range bulks {
			bf.Close()
		}
		return onTime, sent, worst, drops
	}

	fmt.Println("scheduler OFF (legacy FIFO):")
	onTime, sent, worst, _ := run(nil)
	fmt.Printf("  interactive: %d/%d on time, worst latency %.1f ms (budget 100 ms)\n\n",
		onTime, sent, float64(worst)/float64(time.Millisecond))

	fmt.Println("scheduler ON (DRR, forwarding:caching = 8:1):")
	onTime, sent, worst, drops := run(map[jqos.Service]int{
		jqos.ServiceForwarding: 8,
		jqos.ServiceCaching:    1,
	})
	fmt.Printf("  interactive: %d/%d on time, worst latency %.1f ms (budget 100 ms)\n",
		onTime, sent, float64(worst)/float64(time.Millisecond))
	fmt.Printf("  bulk flows heard OnEgressDrop %d times (%d kB dropped from the tail)\n",
		drops.drops, drops.bytes/1000)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// indent shifts the snapshot summary under the run's heading.
func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}
