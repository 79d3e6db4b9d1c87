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
	"jqos/internal/telemetry"
	"jqos/internal/worlds"
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
	run := func(scheduled bool) (onTime, sent uint64, worst time.Duration, drops *dropWatcher) {
		// One 1 MB/s link; the emulated link serializes at the accounting
		// capacity, so the FIFO run queues for real.
		cfg := worlds.ContendedConfig()
		cfg.UpgradeInterval = 0
		if !scheduled {
			cfg.Scheduler = jqos.SchedulerConfig{}
		}
		// 4 s of load: bulk 2×1 MB/s, interactive 40 kB/s.
		drops = &dropWatcher{}
		w, err := worlds.NewContended(11, cfg, jqos.FlowSpec{
			Service: jqos.ServiceCaching, OnEvent: drops.onEvent,
		}, 100*time.Millisecond, 4*time.Second)
		if err != nil {
			panic(err)
		}
		w.D.Run(15 * time.Second) // generous drain for the FIFO backlog

		// One unified exit report — the snapshot rolls up what the old
		// SchedStats printf block polled per subsystem — shifted under the
		// run's heading.
		summary := strings.TrimRight(w.D.Snapshot().Summary(), "\n")
		fmt.Println("  " + strings.ReplaceAll(summary, "\n", "\n  "))
		m := w.Inter.Metrics()
		w.Inter.Close()
		for _, bf := range w.Bulks {
			bf.Close()
		}
		return m.OnTime, m.Sent, w.Latency.Worst, drops
	}

	fmt.Println("scheduler OFF (legacy FIFO):")
	onTime, sent, worst, _ := run(false)
	fmt.Printf("  interactive: %d/%d on time, worst latency %.1f ms (budget 100 ms)\n\n",
		onTime, sent, float64(worst)/float64(time.Millisecond))

	fmt.Println("scheduler ON (DRR, forwarding:caching = 8:1):")
	onTime, sent, worst, drops := run(true)
	fmt.Printf("  interactive: %d/%d on time, worst latency %.1f ms (budget 100 ms)\n",
		onTime, sent, float64(worst)/float64(time.Millisecond))
	fmt.Printf("  bulk flows heard OnEgressDrop %d times (%d kB dropped from the tail)\n",
		drops.drops, drops.bytes/1000)
}
