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
	"jqos/internal/telemetry"
	"jqos/internal/worlds"
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
	const budget = 80 * time.Millisecond
	run := func(withFeedback bool) {
		cfg := worlds.ContendedConfig()
		cfg.UpgradeInterval = 0
		cfg.Scheduler.LowWatermark = 0.125 // Hot at 32 kB, cool at 8 kB
		cfg.Scheduler.HighWatermark = 0.5
		cfg.Feedback.Enabled = withFeedback

		// 4 s of load: greedy 2×~1 MB/s offered (contracted to 600 kB/s
		// each, within the class share and queue cap), interactive 40 kB/s.
		watch := &signalWatcher{}
		w, err := worlds.NewContended(11, cfg, jqos.FlowSpec{
			Service: jqos.ServiceForwarding,
			Rate:    600_000, Burst: 16 << 10,
			OnEvent: watch.onEvent,
		}, budget, 4*time.Second)
		if err != nil {
			panic(err)
		}
		w.D.Run(15 * time.Second)

		// One exit report: the snapshot's summary of flows, egress
		// queues and the feedback plane, shifted under the run's heading.
		fmt.Printf("  interactive worst latency %.1f ms (budget %v); flows heard %d signals (%d hot)\n",
			float64(w.Latency.Worst)/float64(time.Millisecond), budget, watch.signals, watch.hot)
		summary := strings.TrimRight(w.D.Snapshot().Summary(), "\n")
		fmt.Println("  " + strings.ReplaceAll(summary, "\n", "\n  "))
		w.Inter.Close()
		for _, gf := range w.Bulks {
			gf.Close()
		}
	}

	fmt.Println("feedback OFF (PR 4 scheduler only):")
	run(false)
	fmt.Println()
	fmt.Println("feedback ON (watermarks → AIMD pacing):")
	run(true)
}
