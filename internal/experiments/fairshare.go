package experiments

import (
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/stats"
	"jqos/internal/telemetry"
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
	const (
		capacity = 1_000_000 // 1 MB/s shared inter-DC link
		budget   = 100 * time.Millisecond
		bucket   = 200 * time.Millisecond
	)

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

	run := func(name string, weights map[jqos.Service]int) (outcome, error) {
		var out outcome
		cfg := jqos.DefaultConfig()
		cfg.UpgradeInterval = 0
		cfg.LinkCapacity = capacity
		if weights != nil {
			cfg.Scheduler = jqos.SchedulerConfig{
				Weights:    weights,
				QueueBytes: 64 << 10, // ~64 ms of link time per class queue
			}
		}
		d := jqos.NewDeploymentWithConfig(o.Seed, cfg)
		dc1 := d.AddDC("us-east", dataset.RegionUSEast)
		dc2 := d.AddDC("eu-west", dataset.RegionEU)
		d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
		// The emulated link serializes at the same rate the accounting
		// capacity declares, so the legacy FIFO run queues for real.
		d.Network().LinkBetween(dc1, dc2).Rate = capacity
		d.Network().LinkBetween(dc2, dc1).Rate = capacity

		// Two bulk senders, caching class, no direct Internet path: all
		// their bytes cross dc1→dc2. Together they offer ~2 MB/s.
		var bulks []*jqos.Flow
		for i := 0; i < 2; i++ {
			bs := d.AddHost(dc1, 5*time.Millisecond)
			bd := d.AddHost(dc2, 8*time.Millisecond)
			bf, err := d.RegisterFlow(jqos.FlowSpec{
				Src: bs, Dst: bd, Budget: 500 * time.Millisecond,
				Service: jqos.ServiceCaching, ServiceFixed: true,
			})
			if err != nil {
				return out, err
			}
			bulks = append(bulks, bf)
		}
		// Interactive flow, forwarding class, overlay-only delivery.
		is := d.AddHost(dc1, 5*time.Millisecond)
		id := d.AddHost(dc2, 8*time.Millisecond)
		inter, err := d.RegisterFlow(jqos.FlowSpec{
			Src: is, Dst: id, Budget: budget,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
		})
		if err != nil {
			return out, err
		}

		nBuckets := int(span / bucket)
		sums := make([]time.Duration, nBuckets)
		counts := make([]int, nBuckets)
		d.Host(id).SetDeliveryHandler(func(del core.Delivery) {
			lat := del.At - del.Packet.Sent
			if lat > out.worst {
				out.worst = lat
			}
			if b := int(del.Packet.Sent / bucket); b >= 0 && b < nBuckets {
				sums[b] += lat
				counts[b]++
			}
		})

		for i := 0; i < int(span/time.Millisecond); i++ {
			at := time.Duration(i) * time.Millisecond
			d.Sim().At(at, func() {
				bulks[0].Send(make([]byte, 1000))
				bulks[1].Send(make([]byte, 1000))
			})
			if i%5 == 0 {
				d.Sim().At(at, func() { inter.Send(make([]byte, 200)) })
			}
		}
		// Sample the shared link's utilization mid-run (dequeue-side
		// metering: never above capacity even at 2× offered load).
		d.Sim().At(span/2, func() {
			if ll, ok := d.Snapshot().Link(dc1, dc2); ok {
				out.linkUtil = ll.Utilization
			}
		})
		// Generous drain: the FIFO run's link backlog is span-sized.
		d.Run(2*span + 5*time.Second)

		m := inter.Metrics()
		out.sent, out.onTime = m.Sent, m.OnTime
		for _, bf := range bulks {
			out.dropped += bf.Metrics().EgressDropped
		}
		out.sched, out.schedOK = d.Snapshot().Queue(dc1, dc2)
		out.latency = stats.Series{Name: name}
		for b := 0; b < nBuckets; b++ {
			if counts[b] > 0 {
				mean := sums[b] / time.Duration(counts[b])
				out.latency.Append((time.Duration(b) * bucket).Seconds(),
					float64(mean)/float64(time.Millisecond))
			}
		}
		// The scheduled run is the experiment's featured configuration:
		// persist its final snapshot (open flows included) before teardown.
		if weights != nil {
			if err := o.saveSnapshot("fairshare", d); err != nil {
				return out, err
			}
		}
		inter.Close()
		for _, bf := range bulks {
			bf.Close()
		}
		return out, nil
	}

	fifo, err := run("interactive latency, legacy FIFO (ms)", nil)
	if err != nil {
		return Result{}, err
	}
	wfq, err := run("interactive latency, DRR 8:1 (ms)", map[jqos.Service]int{
		jqos.ServiceForwarding: 8,
		jqos.ServiceCaching:    1,
	})
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
