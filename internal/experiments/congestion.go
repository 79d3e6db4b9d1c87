package experiments

import (
	"time"

	"jqos"
	"jqos/internal/stats"
	"jqos/internal/worlds"
)

func init() {
	register(Experiment{
		ID:    "congestion",
		Title: "Interactive latency under bulk load with load-aware routing and admission (traffic engineering)",
		Run:   runCongestion,
	})
}

// runCongestion demonstrates the load-aware traffic-engineering layer:
// two equal-latency overlay branches; two bulk flows (one with a
// token-bucket admission contract) saturate the primary; the per-link
// meters report utilization, the controller inflates the hot branch's
// weight past the knee, and an interactive flow registered mid-run is
// steered onto the idle branch — its tight budget survives. The figure
// tracks the hot link's utilization over time plus the interactive
// flow's per-bucket latency.
func runCongestion(o Options) (Result, error) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.LinkCapacity = 1_000_000 // 1 MB/s accounting capacity per link
	d, dcs := worlds.Diamond(o.Seed, cfg, 20*time.Millisecond, 20*time.Millisecond)
	dc1, dc2, dc3, dc4 := dcs[0], dcs[1], dcs[2], dcs[3]

	span := 6 * time.Second
	if o.Quick {
		span = 4 * time.Second
	}
	interAt := span / 3

	// Bulk pair: pinned to the primary branch so they keep loading it
	// after the shared tables move away. The second carries a 200 kB/s
	// admission contract — its excess never leaves the ingress.
	mkBulk := func(rate int64) (*jqos.Flow, error) {
		bs, bd := worlds.HostPair(d, dc1, dc4)
		return d.RegisterFlow(jqos.FlowSpec{
			Src: bs, Dst: bd, Budget: 500 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Path: jqos.PathPolicy{Kind: jqos.PathPinned, Alternate: 0},
			Rate: rate,
		})
	}
	bulk1, err := mkBulk(0)
	if err != nil {
		return Result{}, err
	}
	bulk2, err := mkBulk(200_000)
	if err != nil {
		return Result{}, err
	}
	worlds.CBR(d, bulk1, 1000, time.Millisecond, 0, span)
	worlds.CBR(d, bulk2, 1000, time.Millisecond, 0, span)

	// Sample the hot link's utilization and weight inflation over time.
	util := stats.Series{Name: "dc1–dc2 utilization (%)"}
	const sample = 200 * time.Millisecond
	for at := sample; at <= span; at += sample {
		at := at
		d.Sim().At(at, func() {
			if ll, ok := d.Snapshot().Link(dc1, dc2); ok {
				util.Append(at.Seconds(), 100*ll.Utilization)
			}
		})
	}

	// The interactive flow registers after the bulk load is established.
	// Snapshot the congestion state at that moment: after the run drains
	// the bulk is gone, utilization has decayed, and the weights have
	// (correctly) deflated again — the end-state numbers would hide the
	// very mechanism under test.
	var inter *jqos.Flow
	var regPath []jqos.NodeID
	var regCongest, regUtil float64
	var regStats int
	is, id := worlds.HostPair(d, dc1, dc4)
	rec := worlds.Record(d, id, span, 200*time.Millisecond)
	d.Sim().At(interAt, func() {
		f, ferr := d.RegisterFlow(jqos.FlowSpec{
			Src: is, Dst: id, Budget: 100 * time.Millisecond,
		})
		if ferr != nil {
			err = ferr
			return
		}
		inter = f
		regPath = f.Path()
		hot := d.Routing().Graph().Link(dc1, dc2)
		regCongest, regUtil = hot.Congest, hot.Util
		regStats = int(d.Snapshot().Routing.CongestionReroutes)
		worlds.CBR(d, f, 200, 5*time.Millisecond, interAt, span)
	})
	d.Run(span + 5*time.Second)
	if err != nil {
		return Result{}, err
	}

	latency := rec.Series("interactive mean latency (ms)")

	fig := stats.Figure{
		ID:     "congestion",
		Title:  "Load-aware spreading keeps an interactive budget under bulk load",
		XLabel: "time (s)",
		YLabel: "ms / %",
	}
	fig.AddSeries(latency)
	fig.AddSeries(util)
	st := d.Snapshot().Routing
	im := inter.Metrics()
	fig.AddNote("bulk saturates dc1–dc2–dc4 from t=0; interactive flow registers at %.1fs with a 100ms budget",
		interAt.Seconds())
	fig.AddNote("at registration: hot link weight ×%.1f at util %.2f, %d congestion reroutes so far "+
		"(run total %d, incl. post-bulk deflation; %d load reports accepted)",
		regCongest, regUtil, regStats, st.CongestionReroutes, st.UtilizationUpdates)
	fig.AddNote("interactive placed on %v (idle branch via node%d); delivered %d/%d within budget",
		regPath, dc3, im.OnTime, im.Sent)
	fig.AddNote("bulk2 contract 200kB/s: %d cloud copies dropped at ingress (bulk1 uncontracted: %d)",
		bulk2.Metrics().AdmissionDropped, bulk1.Metrics().AdmissionDropped)
	inter.Close()
	bulk1.Close()
	bulk2.Close()
	return Result{Figures: []stats.Figure{fig}}, nil
}
