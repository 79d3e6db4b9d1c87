// Backpressure: ECN-style congestion feedback from egress queues to
// ingress flows. One 1 MB/s inter-DC link; two greedy forwarding-class
// flows whose admission contracts are individually honorable but
// together oversubscribe the class's weighted share; one interactive
// flow in the same class with an 80 ms budget. With the PR 4 scheduler
// alone, the shared class queue sits pinned at its byte cap: the
// standing backlog eats the interactive budget and the cap tail-drops
// steadily — interactive packets included. With Config.Feedback the
// queue's watermark transitions reach the ingress within the signal
// interval, the greedy flows' AIMD pacers cut toward the class share
// (and recover additively once the queue cools), and the queue
// oscillates in the watermark band instead: the budget holds and the
// class's egress drops all but vanish, the excess dying at the ingress
// as admission drops that cost neither queue space nor billable egress.
//
//	go run ./examples/backpressure
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

// signalWatcher counts congestion signals heard by a flow.
type signalWatcher struct {
	signals int
	hot     int
}

func (w *signalWatcher) onEvent(_ *jqos.Flow, e telemetry.Event) {
	if e.Kind != telemetry.KindCongestionSignal {
		return
	}
	w.signals++
	if e.Reason == uint8(jqos.CongestionHot) {
		w.hot++
	}
}

func main() {
	const (
		capacity = 1_000_000
		budget   = 80 * time.Millisecond
	)
	run := func(withFeedback bool) {
		cfg := jqos.DefaultConfig()
		cfg.UpgradeInterval = 0
		cfg.LinkCapacity = capacity
		cfg.Scheduler = jqos.SchedulerConfig{
			Weights: map[jqos.Service]int{
				jqos.ServiceForwarding: 8,
				jqos.ServiceCaching:    1,
			},
			QueueBytes:    64 << 10,
			LowWatermark:  0.125, // Hot at 32 kB, cool at 8 kB
			HighWatermark: 0.5,
		}
		cfg.Feedback.Enabled = withFeedback
		d := jqos.NewDeploymentWithConfig(11, cfg)
		dc1 := d.AddDC("us-east", dataset.RegionUSEast)
		dc2 := d.AddDC("eu-west", dataset.RegionEU)
		d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
		d.Network().LinkBetween(dc1, dc2).Rate = capacity
		d.Network().LinkBetween(dc2, dc1).Rate = capacity

		watch := &signalWatcher{}
		var greedy []*jqos.Flow
		for i := 0; i < 2; i++ {
			gs := d.AddHost(dc1, 5*time.Millisecond)
			gd := d.AddHost(dc2, 8*time.Millisecond)
			gf, err := d.RegisterFlow(jqos.FlowSpec{
				Src: gs, Dst: gd, Budget: 500 * time.Millisecond,
				Service: jqos.ServiceForwarding, ServiceFixed: true,
				Rate: 600_000, Burst: 16 << 10, // within the class share and queue cap
				OnEvent: watch.onEvent,
			})
			check(err)
			greedy = append(greedy, gf)
		}
		is := d.AddHost(dc1, 5*time.Millisecond)
		id := d.AddHost(dc2, 8*time.Millisecond)
		inter, err := d.RegisterFlow(jqos.FlowSpec{
			Src: is, Dst: id, Budget: budget,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
		})
		check(err)
		var worst time.Duration
		d.Host(id).SetDeliveryHandler(func(del core.Delivery) {
			if lat := del.At - del.Packet.Sent; lat > worst {
				worst = lat
			}
		})

		// 4 s of load: greedy 2×~1 MB/s offered (contracted to 600 kB/s
		// each), interactive 40 kB/s.
		for i := 0; i < 4000; i++ {
			at := time.Duration(i) * time.Millisecond
			d.Sim().At(at, func() {
				greedy[0].Send(make([]byte, 1000))
				greedy[1].Send(make([]byte, 1000))
			})
			if i%5 == 0 {
				d.Sim().At(at, func() { inter.Send(make([]byte, 200)) })
			}
		}
		d.Run(15 * time.Second)

		// One unified exit report — the snapshot rolls up what the old
		// per-subsystem printf blocks (FlowMetrics, SchedStats,
		// FeedbackStats) polled one call at a time.
		fmt.Printf("  interactive worst latency %.1f ms (budget %v); flows heard %d signals (%d hot)\n",
			float64(worst)/float64(time.Millisecond), budget, watch.signals, watch.hot)
		fmt.Print(indent(d.Snapshot().Summary()))
		inter.Close()
		for _, gf := range greedy {
			gf.Close()
		}
	}

	fmt.Println("feedback OFF (PR 4 scheduler only):")
	run(false)
	fmt.Println()
	fmt.Println("feedback ON (watermarks → AIMD pacing):")
	run(true)
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
