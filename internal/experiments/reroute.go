package experiments

import (
	"time"

	"jqos"
	"jqos/internal/stats"
	"jqos/internal/worlds"
)

func init() {
	register(Experiment{
		ID:    "reroute",
		Title: "Delivery latency across a mid-flow inter-DC link failure (routing control plane)",
		Run:   runReroute,
	})
}

// runReroute streams a forwarding flow over a sparse diamond overlay
// (primary 2-hop path 30 ms, alternate 50 ms; no direct sender↔receiver
// DC link), kills the primary's second link mid-flow, and measures
// per-bucket delivery latency and delivered fraction as the link-health
// monitor detects the failure and the controller re-pushes routes. This
// is the scenario the seed's full-mesh overlay could not express at all.
func runReroute(o Options) (Result, error) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 100 * time.Millisecond
	d, dcs := worlds.Diamond(o.Seed, cfg, 15*time.Millisecond, 25*time.Millisecond)
	dc1, dc2, dc4 := dcs[0], dcs[1], dcs[3]
	src, dst := worlds.HostPair(d, dc1, dc4)

	span := 6 * time.Second
	spacing := 5 * time.Millisecond
	if o.Quick {
		span = 4 * time.Second
	}
	failAt := span / 3
	healAt := 2 * span / 3

	flow, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
	})
	if err != nil {
		return Result{}, err
	}

	const bucket = 200 * time.Millisecond
	rec := worlds.Record(d, dst, span, bucket)
	worlds.CBR(d, flow, 200, spacing, 0, span)
	d.Sim().At(failAt, func() { d.Link(dc2, dc4).Disconnect() })
	d.Sim().At(healAt, func() { d.Link(dc2, dc4).Set(15*time.Millisecond, 0) })
	d.Run(span + 5*time.Second)

	latency := rec.Series("mean delivery latency (ms)")
	delivered := stats.Series{Name: "delivered (%)"}
	perBucket := int(bucket / spacing)
	for b, n := range rec.Counts {
		// Percent, so the outage dip shares an axis with the ms series.
		delivered.Append((time.Duration(b) * bucket).Seconds(), 100*float64(n)/float64(perBucket))
	}

	fig := stats.Figure{
		ID:     "reroute",
		Title:  "Forwarding-service latency across an inter-DC link failure",
		XLabel: "send time (s)",
		YLabel: "ms / %",
	}
	fig.AddSeries(latency)
	fig.AddSeries(delivered)
	st := d.Snapshot().Routing
	h, _ := d.Link(dc2, dc4).Health()
	m := flow.Metrics()
	fig.AddNote("link dc2—dc4 fails at %.1fs, heals at %.1fs; probe interval %v",
		failAt.Seconds(), healAt.Seconds(), cfg.Monitor.ProbeInterval)
	fig.AddNote("control plane: %d recomputes, %d reroutes, %d failures, %d recoveries",
		st.Recomputes, st.Reroutes, st.LinkFailures, st.LinkRecoveries)
	fig.AddNote("delivered %d/%d (%.1f%% lost in the detection gap), %d/%d within the 300ms budget",
		m.Delivered, m.Sent, 100*m.LossRate(), m.OnTime, m.Delivered)
	fig.AddNote("final link health: state=%v, %d probes (%d lost)", h.State, h.ProbesSent, h.ProbesLost)
	return Result{Figures: []stats.Figure{fig}}, nil
}
