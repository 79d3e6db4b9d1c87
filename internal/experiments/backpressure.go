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
		ID:    "backpressure",
		Title: "Congestion feedback paces greedy senders before the egress queue drops",
		Run:   runBackpressure,
	})
}

// runBackpressure demonstrates the congestion-feedback plane — the case
// PR 4's scheduler alone cannot fix: the contention is INSIDE one
// class. One 1 MB/s inter-DC link; two greedy forwarding-class flows,
// each with an individually honorable 600 kB/s admission contract,
// together oversubscribe the forwarding class's share, so with the
// scheduler alone their shared class queue sits pinned at its byte cap
// — every arrival (the interactive flow's packets included) risks a
// tail-drop, and the standing backlog eats the interactive budget.
// With Config.Feedback the queue's watermark transitions reach the
// ingress within ~10 ms, the greedy flows' AIMD pacers cut toward the
// class share and recover additively, and the queue oscillates in the
// watermark band: the interactive budget holds and the class's egress
// drops all but vanish — losses move to the ingress (admission drops),
// where they cost neither queue space nor billable egress.
func runBackpressure(o Options) (Result, error) {
	span := 6 * time.Second
	if o.Quick {
		span = 3 * time.Second
	}
	const (
		budget = 80 * time.Millisecond
		rate   = 600_000 // per-greedy-flow admission contract
	)

	type outcome struct {
		latency    stats.Series
		sent       uint64
		onTime     uint64
		worst      time.Duration
		classDrops uint64 // forwarding-class egress tail-drops
		admDrops   uint64 // greedy ingress admission drops
		pacedKB    uint64
		fb         telemetry.FeedbackSnapshot
	}

	run := func(name string, withFeedback bool) (outcome, error) {
		var out outcome
		cfg := worlds.ContendedConfig() // one 1 MB/s shared inter-DC link
		cfg.UpgradeInterval = 0
		// A low watermark band keeps the paced queue shallow: Hot
		// fires at 32 kB (~36 ms of link time), well before the cap.
		cfg.Scheduler.LowWatermark = 0.125
		cfg.Scheduler.HighWatermark = 0.5
		cfg.Feedback.Enabled = withFeedback

		// Two greedy forwarding-class flows with Rate contracts. Each
		// contract fits the class's weighted share (8/10 of 1 MB/s =
		// 800 kB/s), so scheduler-aware admission accepts both — but
		// their sum oversubscribes the class. Burst stays under the
		// class queue cap (64 kB), or scheduler-aware admission would
		// reject the contract.
		w, err := worlds.NewContended(o.Seed, cfg, jqos.FlowSpec{
			Service: jqos.ServiceForwarding,
			Rate:    rate, Burst: 16 << 10,
		}, budget, span)
		if err != nil {
			return out, err
		}
		w.D.Run(2*span + 5*time.Second)

		m := w.Inter.Metrics()
		out.sent, out.onTime = m.Sent, m.OnTime
		snap := w.D.Snapshot()
		if st, ok := snap.Queue(w.DC1, w.DC2); ok {
			out.classDrops = st.PerClass[jqos.ServiceForwarding].DroppedPackets
		}
		for _, gf := range w.Bulks {
			gm := gf.Metrics()
			out.admDrops += gm.AdmissionDropped
			out.pacedKB += gm.PacedBytes / 1000
		}
		out.fb = snap.Feedback
		out.worst, out.latency = w.Latency.Worst, w.Latency.Series(name)
		// The feedback run is the experiment's featured configuration:
		// persist its final snapshot (open flows included) before teardown.
		if withFeedback {
			if err := o.saveSnapshot("backpressure", w.D); err != nil {
				return out, err
			}
		}
		w.Inter.Close()
		for _, gf := range w.Bulks {
			gf.Close()
		}
		return out, nil
	}

	off, err := run("interactive latency, scheduler only (ms)", false)
	if err != nil {
		return Result{}, err
	}
	on, err := run("interactive latency, scheduler + feedback (ms)", true)
	if err != nil {
		return Result{}, err
	}

	fig := stats.Figure{
		ID:     "backpressure",
		Title:  "ECN-style backpressure holds an interactive budget with near-zero egress drops",
		XLabel: "send time (s)",
		YLabel: "mean delivery latency (ms)",
	}
	fig.AddSeries(on.latency)
	fig.AddSeries(off.latency)
	fig.AddNote("one 1 MB/s link; 2 greedy forwarding flows (600 kB/s contracts each) + interactive 40 kB/s, budget %v", budget)
	fig.AddNote("feedback ON:  interactive %d/%d on time (worst %.1f ms); forwarding-class egress drops %d; greedy admission drops %d; %d kB paced under cuts",
		on.onTime, on.sent, float64(on.worst)/float64(time.Millisecond), on.classDrops, on.admDrops, on.pacedKB)
	fig.AddNote("feedback OFF: interactive %d/%d on time (worst %.1f ms); forwarding-class egress drops %d — the class queue sat at its cap",
		off.onTime, off.sent, float64(off.worst)/float64(time.Millisecond), off.classDrops)
	fig.AddNote("signal plane: %d watermark flips in %d batches; %d rate cuts, %d recoveries; %d flow signals",
		on.fb.Transitions, on.fb.Batches, on.fb.RateCuts, on.fb.RateRecoveries, on.fb.FlowSignals)
	return Result{Figures: []stats.Figure{fig}}, nil
}
