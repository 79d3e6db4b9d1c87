package experiments

import (
	"time"

	"jqos"
	"jqos/internal/stats"
	"jqos/internal/telemetry"
	"jqos/internal/worlds"
)

func init() {
	register(Experiment{
		ID:    "fairshare",
		Title: "Per-class weighted fair queueing protects interactive latency inside a saturated link",
		Run:   runFairshare,
	})
}

// runFairshare demonstrates intra-link scheduling — the case PR 3's
// admission and congestion-aware rerouting cannot help: ONE inter-DC
// link, shared by an interactive flow (forwarding class) and two bulk
// flows (caching class) that together offer 2× the link capacity. There
// is no alternate path to spread to and no per-flow contract to police,
// so with the legacy FIFO the bulk backlog queues ahead of every
// interactive packet and the budget dies. With Config.Scheduler's DRR
// the interactive class preempts bulk inside the link: its queue stays
// empty, its budget holds, and the bulk classes absorb the loss as
// tail-drops surfaced as egress-drop events.
func runFairshare(o Options) (Result, error) {
	span := 6 * time.Second
	if o.Quick {
		span = 3 * time.Second
	}
	const budget = 100 * time.Millisecond

	type outcome struct {
		latency  stats.Series
		sent     uint64
		onTime   uint64
		worst    time.Duration
		dropped  uint64 // bulk egress tail-drops
		sched    telemetry.QueueSnapshot
		schedOK  bool
		linkUtil float64
	}

	run := func(name string, scheduled bool) (outcome, error) {
		var out outcome
		// One 1 MB/s shared inter-DC link. The emulated link serializes at
		// the same rate the accounting capacity declares, so the legacy
		// FIFO run queues for real.
		cfg := worlds.ContendedConfig()
		cfg.UpgradeInterval = 0
		if !scheduled {
			cfg.Scheduler = jqos.SchedulerConfig{}
		}
		// Two bulk senders, caching class, no direct Internet path: all
		// their bytes cross dc1→dc2. Together they offer ~2 MB/s. The
		// interactive flow is forwarding class, overlay-only delivery.
		w, err := worlds.NewContended(o.Seed, cfg, jqos.FlowSpec{Service: jqos.ServiceCaching}, budget, span)
		if err != nil {
			return out, err
		}
		// Sample the shared link's utilization mid-run (dequeue-side
		// metering: never above capacity even at 2× offered load).
		w.D.Sim().At(span/2, func() {
			if ll, ok := w.D.Snapshot().Link(w.DC1, w.DC2); ok {
				out.linkUtil = ll.Utilization
			}
		})
		// Generous drain: the FIFO run's link backlog is span-sized.
		w.D.Run(2*span + 5*time.Second)

		m := w.Inter.Metrics()
		out.sent, out.onTime = m.Sent, m.OnTime
		for _, bf := range w.Bulks {
			out.dropped += bf.Metrics().EgressDropped
		}
		out.sched, out.schedOK = w.D.Snapshot().Queue(w.DC1, w.DC2)
		out.worst, out.latency = w.Latency.Worst, w.Latency.Series(name)
		// The scheduled run is the experiment's featured configuration:
		// persist its final snapshot (open flows included) before teardown.
		if scheduled {
			if err := o.saveSnapshot("fairshare", w.D); err != nil {
				return out, err
			}
		}
		w.Inter.Close()
		for _, bf := range w.Bulks {
			bf.Close()
		}
		return out, nil
	}

	fifo, err := run("interactive latency, legacy FIFO (ms)", false)
	if err != nil {
		return Result{}, err
	}
	wfq, err := run("interactive latency, DRR 8:1 (ms)", true)
	if err != nil {
		return Result{}, err
	}

	fig := stats.Figure{
		ID:     "fairshare",
		Title:  "DRR egress scheduling keeps an interactive budget inside a 2×-saturated link",
		XLabel: "send time (s)",
		YLabel: "mean delivery latency (ms)",
	}
	fig.AddSeries(wfq.latency)
	fig.AddSeries(fifo.latency)
	fig.AddNote("one 1 MB/s inter-DC link; 2 bulk flows offer 2 MB/s (caching class); interactive 40 kB/s (forwarding class), budget %v", budget)
	fig.AddNote("scheduler ON:  interactive %d/%d on time (worst %.1f ms); bulk egress tail-drops %d; link util %.2f",
		wfq.onTime, wfq.sent, float64(wfq.worst)/float64(time.Millisecond), wfq.dropped, wfq.linkUtil)
	fig.AddNote("scheduler OFF: interactive %d/%d on time (worst %.1f ms) — FIFO queueing eats the budget; link util %.2f",
		fifo.onTime, fifo.sent, float64(fifo.worst)/float64(time.Millisecond), fifo.linkUtil)
	if wfq.schedOK {
		fwd := wfq.sched.PerClass[jqos.ServiceForwarding]
		cch := wfq.sched.PerClass[jqos.ServiceCaching]
		fig.AddNote("dc1→dc2 scheduler: forwarding %d pkts out / %d dropped; caching %d out / %d dropped; %d deficit rounds",
			fwd.DequeuedPackets, fwd.DroppedPackets, cch.DequeuedPackets, cch.DroppedPackets, wfq.sched.Rounds)
	}
	return Result{Figures: []stats.Figure{fig}}, nil
}
