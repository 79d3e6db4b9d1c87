package experiments

import (
	"math/rand"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/stats"
)

func init() {
	register(Experiment{ID: "8a", Title: "CCDF of per-path recovery success (CR-WAN deployment)", Run: runFig8a})
	register(Experiment{ID: "8b", Title: "Loss-episode contribution by class (CDF)", Run: runFig8b})
	register(Experiment{ID: "8c", Title: "CR-WAN vs on-path FEC recovery increase (CDF)", Run: runFig8c})
	register(Experiment{ID: "8d", Title: "Recovery time / RTT by region (CDF)", Run: runFig8d})
	register(Experiment{ID: "8e", Title: "Recovery increase: 2 vs 1 cross-stream coded packets (CDF)", Run: runFig8e})
}

// pathOutcome is the measured record of one PlanetLab-like path after a
// deployment run.
type pathOutcome struct {
	path dataset.PLPath

	sent          int
	directLost    int       // packets that never arrived on the direct path
	recoveredInT  int       // recovered with recovery delay ≤ 1×RTT
	recoveryRatio []float64 // recovery delay / RTT, per recovered packet
	episodes      []int     // direct-path loss episode lengths (packets)
	unrecovered   []int     // 0-based seq indices of losses never repaired in time
}

// successRate is the Fig 8a metric: lost packets recovered within one RTT.
func (p *pathOutcome) successRate() (float64, bool) {
	if p.directLost == 0 {
		return 0, false
	}
	return float64(p.recoveredInT) / float64(p.directLost), true
}

// fig8Params scales the deployment.
type fig8Params struct {
	paths       int
	onIntervals int
	onDur       time.Duration
	offDur      time.Duration
	spacing     time.Duration // packet spacing within ON (20 pps default)
	crossParity int
}

func fig8Defaults(quick bool) fig8Params {
	p := fig8Params{
		paths:       45,
		onIntervals: 4,
		onDur:       30 * time.Second,
		offDur:      10 * time.Second,
		spacing:     50 * time.Millisecond,
		crossParity: 2,
	}
	if quick {
		p.paths = 16
		p.onIntervals = 2
		p.onDur = 10 * time.Second
	}
	return p
}

// runFig8Deployment executes the CR-WAN deployment: paths grouped by
// region pair, each group one emulated 2-DC overlay with k concurrent
// flows (§6.2.1: r = 2/k, s = 1/5, loosely synchronized ON/OFF CBR).
func runFig8Deployment(seed int64, prm fig8Params) []*pathOutcome {
	paths := dataset.GeneratePlanetLab(seed, prm.paths)
	groups := map[string][]dataset.PLPath{}
	var order []string
	for _, p := range paths {
		key := p.PairName()
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], p)
	}
	var out []*pathOutcome
	for gi, key := range order {
		out = append(out, runFig8Group(seed+int64(gi)*101, prm, groups[key])...)
	}
	return out
}

// runFig8Group simulates one region-pair group sharing a DC1→DC2 overlay.
func runFig8Group(seed int64, prm fig8Params, group []dataset.PLPath) []*pathOutcome {
	cfg := jqos.DefaultConfig()
	cfg.Encoder.K = 6
	cfg.Encoder.CrossParity = prm.crossParity
	cfg.Encoder.InBlock = 5
	cfg.Encoder.InParity = 1
	cfg.UpgradeInterval = 0 // pin the coding service
	d := jqos.NewDeploymentWithConfig(seed, cfg)
	first := group[0]
	dc1 := d.AddDC("dc1-"+first.SrcRegion.String(), first.SrcRegion)
	dc2 := d.AddDC("dc2-"+first.DstRegion.String(), first.DstRegion)
	d.ConnectDCs(dc1, dc2, time.Duration(first.InterDC))

	rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
	horizon := time.Duration(prm.onIntervals) * (prm.onDur + prm.offDur)

	outs := make([]*pathOutcome, len(group))
	type runtimeState struct {
		sentAt    []core.Time
		direct    []bool
		recovered []core.Time // recovery delay per seq (−1 = none)
	}
	states := make([]*runtimeState, len(group))

	for i, p := range group {
		p := p
		po := &pathOutcome{path: p}
		outs[i] = po
		st := &runtimeState{}
		states[i] = st

		// The sender's first mile is shared by the direct packet and its
		// cloud copy: one decision kills both (shared fate).
		access := netem.NewSharedFate(netem.Bernoulli{P: p.AccessLoss})
		src := d.AddHost(dc1, time.Duration(p.DeltaS), jqos.WithAccessLossModel(access))
		// Receivers are PlanetLab-like: overloaded nodes straggle, so a
		// slice of their responses (cooperative replies included) carry
		// heavy-tail delays. This is what the second cross-stream coded
		// packet protects against (Figure 8e).
		dst := d.AddHost(dc2, time.Duration(p.DeltaR), jqos.WithAccessDelay(netem.HeavyTailJitter{
			Base:   time.Duration(p.DeltaR),
			Sigma:  time.Duration(p.DeltaR) / 10,
			PTail:  0.10,
			TailLo: 250 * time.Millisecond,
			Alpha:  1.5,
		}))
		loss := netem.Composite{
			access,
			netem.Bernoulli{P: p.Loss.PRandom},
			&netem.GilbertElliott{
				PGoodToBad: p.Loss.PBurstStart,
				PBadToGood: 1 / p.Loss.BurstMean,
				LossGood:   0,
				LossBad:    1,
			},
		}
		if p.Loss.HasOutages() {
			// The paper's campaign spans weeks; ours spans minutes.
			// Compress time so outage-prone paths see roughly the
			// per-sample outage exposure the deployment saw.
			const outageCompression = 25
			loss = append(loss, netem.RandomOutages(rng, horizon,
				p.Loss.OutagesPerHour/3600*outageCompression, p.Loss.OutageMin, p.Loss.OutageMax))
		}
		d.SetDirectPath(src, dst,
			netem.NormalJitter{Base: time.Duration(p.OneWay), Sigma: time.Duration(p.Jitter), Floor: time.Duration(p.OneWay) / 2},
			loss)
		flow, err := d.RegisterFlow(jqos.FlowSpec{
			Src: src, Dst: dst, Budget: time.Hour,
			Service: jqos.ServiceCoding, ServiceFixed: true,
		})
		if err != nil {
			panic("experiments: " + err.Error())
		}
		rtt := p.RTT()
		d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
			seq := int(del.Packet.ID.Seq) - 1
			if seq < 0 || seq >= len(st.direct) {
				return
			}
			if del.Recovered {
				if st.recovered[seq] < 0 {
					st.recovered[seq] = del.RecoveryDelay
					po.recoveryRatio = append(po.recoveryRatio,
						float64(del.RecoveryDelay)/float64(rtt))
				}
			} else {
				st.direct[seq] = true
			}
		})

		// ON/OFF CBR schedule, loosely synchronized across the group
		// (per-flow phase offsets).
		phase := time.Duration(i) * 7 * time.Millisecond
		total := int(prm.onDur / prm.spacing)
		for iv := 0; iv < prm.onIntervals; iv++ {
			base := time.Duration(iv)*(prm.onDur+prm.offDur) + phase
			for k := 0; k < total; k++ {
				at := base + time.Duration(k)*prm.spacing
				d.Sim().At(at, func() {
					flow.Send([]byte("cbr-probe-payload-200bytes-padding-padding-pad"))
					st.sentAt = append(st.sentAt, at)
					st.direct = append(st.direct, false)
					st.recovered = append(st.recovered, -1)
				})
			}
		}
	}

	d.Run(horizon + 10*time.Second)

	for i := range group {
		st, po := states[i], outs[i]
		rtt := po.path.RTT()
		po.sent = len(st.sentAt)
		run := 0
		for seq := 0; seq < po.sent; seq++ {
			if st.direct[seq] {
				if run > 0 {
					po.episodes = append(po.episodes, run)
					run = 0
				}
				continue
			}
			po.directLost++
			run++
			if st.recovered[seq] >= 0 {
				if st.recovered[seq] <= rtt {
					po.recoveredInT++
				} else {
					po.unrecovered = append(po.unrecovered, seq)
				}
			} else {
				po.unrecovered = append(po.unrecovered, seq)
			}
		}
		if run > 0 {
			po.episodes = append(po.episodes, run)
		}
	}
	return outs
}

func runFig8a(o Options) (Result, error) {
	outs := runFig8Deployment(o.Seed, fig8Defaults(o.Quick))
	var perPath stats.Sample
	totalLost, totalRec := 0, 0
	pathsOver80 := 0
	counted := 0
	for _, po := range outs {
		rate, ok := po.successRate()
		if !ok {
			continue
		}
		counted++
		perPath.Add(rate * 100)
		totalLost += po.directLost
		totalRec += po.recoveredInT
		if rate > 0.8 {
			pathsOver80++
		}
	}
	fig := stats.Figure{
		ID:     "fig8a",
		Title:  "Per-path recovery success rate",
		XLabel: "recovery success rate (%)",
		YLabel: "CCDF",
	}
	fig.AddSeries(perPath.CCDF("PlanetLab-like paths"))
	overall := 0.0
	if totalLost > 0 {
		overall = 100 * float64(totalRec) / float64(totalLost)
	}
	fig.AddNote("paper: CR-WAN recovers 78%% of lost packets; 82%% of paths recover >80%%")
	fig.AddNote("measured: overall recovery %.0f%% (%d/%d losses); %.0f%% of %d lossy paths >80%%",
		overall, totalRec, totalLost, 100*float64(pathsOver80)/float64(max(counted, 1)), counted)
	return Result{Figures: []stats.Figure{fig}}, nil
}

// classifyEpisode buckets an episode length per the paper: random (1),
// multi-packet (2–14), outage (>14).
func classifyEpisode(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 14:
		return 1
	default:
		return 2
	}
}

func runFig8b(o Options) (Result, error) {
	outs := runFig8Deployment(o.Seed, fig8Defaults(o.Quick))
	classes := [3]stats.Sample{}
	names := [3]string{"Random", "Multi", "Outage"}
	outagePaths, lossy := 0, 0
	for _, po := range outs {
		rate, ok := po.successRate()
		if !ok || rate <= 0.8 {
			continue // paper plots paths with >80% recovery
		}
		lossy++
		var byClass [3]int
		total := 0
		sawOutage := false
		for _, ep := range po.episodes {
			c := classifyEpisode(ep)
			byClass[c] += ep
			total += ep
			if c == 2 {
				sawOutage = true
			}
		}
		if sawOutage {
			outagePaths++
		}
		if total == 0 {
			continue
		}
		for c := 0; c < 3; c++ {
			classes[c].Add(100 * float64(byClass[c]) / float64(total))
		}
	}
	fig := stats.Figure{
		ID:     "fig8b",
		Title:  "Loss-episode contribution to loss rate (paths with >80% recovery)",
		XLabel: "loss rate contribution (%)",
		YLabel: "CDF",
	}
	for c := 0; c < 3; c++ {
		fig.AddSeries(classes[c].CDF(names[c]))
	}
	fig.AddNote("paper: all three classes present; 45%% of paths see 1–3 s outages")
	if lossy > 0 {
		fig.AddNote("measured: %.0f%% of plotted paths experienced outages", 100*float64(outagePaths)/float64(lossy))
	}
	return Result{Figures: []stats.Figure{fig}}, nil
}

// fecWhatIf estimates an on-path FEC scheme's recovery rate for a path:
// blocks of 5 data packets followed by `parity` parity packets, all subject
// to the path's own loss process (the paper's probe-replay analysis).
func fecWhatIf(seed int64, p dataset.PLPath, parity int, blocks int, spacing time.Duration) float64 {
	rng := rand.New(rand.NewSource(seed))
	loss := netem.Composite{
		netem.Bernoulli{P: p.Loss.PRandom},
		&netem.GilbertElliott{
			PGoodToBad: p.Loss.PBurstStart,
			PBadToGood: 1 / p.Loss.BurstMean,
			LossGood:   0,
			LossBad:    1,
		},
	}
	horizon := time.Duration(blocks*(5+parity)) * spacing
	if p.Loss.HasOutages() {
		loss = append(loss, netem.RandomOutages(rng, horizon,
			p.Loss.OutagesPerHour/3600, p.Loss.OutageMin, p.Loss.OutageMax))
	}
	now := core.Time(0)
	lost, recovered := 0, 0
	for b := 0; b < blocks; b++ {
		dataLost, paritySurvived := 0, 0
		for i := 0; i < 5; i++ {
			if loss.Lose(now, rng) {
				dataLost++
			}
			now += core.Time(spacing)
		}
		for i := 0; i < parity; i++ {
			if !loss.Lose(now, rng) {
				paritySurvived++
			}
			now += core.Time(spacing)
		}
		lost += dataLost
		if dataLost > 0 && dataLost <= paritySurvived {
			recovered += dataLost
		}
	}
	if lost == 0 {
		return 1
	}
	return float64(recovered) / float64(lost)
}

func runFig8c(o Options) (Result, error) {
	prm := fig8Defaults(o.Quick)
	outs := runFig8Deployment(o.Seed, prm)
	blocks := 40000
	if o.Quick {
		blocks = 5000
	}
	levels := []struct {
		name   string
		parity int
	}{{"20%", 1}, {"40%", 2}, {"100%", 5}}
	fig := stats.Figure{
		ID:     "fig8c",
		Title:  "Recovery-rate increase: CR-WAN vs on-path FEC",
		XLabel: "percentage increase in recovery",
		YLabel: "CDF",
		LogX:   true,
	}
	beaten := map[string]int{}
	lossy := 0
	for li, lv := range levels {
		var inc stats.Sample
		for pi, po := range outs {
			cr, ok := po.successRate()
			if !ok {
				continue
			}
			if li == 0 {
				lossy++
			}
			fec := fecWhatIf(o.Seed+int64(pi)*13+int64(li), po.path, lv.parity, blocks, prm.spacing)
			if fec < 0.005 {
				fec = 0.005 // avoid division blow-up on all-outage paths
			}
			pct := (cr - fec) / fec * 100
			if pct < 1 {
				pct = 1 // log-x floor (the paper's axis starts at 10¹)
			}
			inc.Add(pct)
			if cr > fec {
				beaten[lv.name]++
			}
		}
		fig.AddSeries(inc.CDF(lv.name))
	}
	fig.AddNote("paper: even vs 100%% overhead FEC, 90%% of paths have episodes only CR-WAN recovers")
	for _, lv := range levels {
		fig.AddNote("measured: CR-WAN beats %s-overhead FEC on %d paths", lv.name, beaten[lv.name])
	}
	return Result{Figures: []stats.Figure{fig}}, nil
}

func runFig8d(o Options) (Result, error) {
	outs := runFig8Deployment(o.Seed, fig8Defaults(o.Quick))
	groups := map[string]*stats.Sample{
		"US-EU": {}, "US-OC": {}, "EU-OC": {}, "Agg": {},
	}
	for _, po := range outs {
		g := po.path.RegionGroup()
		for _, ratio := range po.recoveryRatio {
			groups["Agg"].Add(ratio)
			if s, ok := groups[g]; ok {
				s.Add(ratio)
			}
		}
	}
	fig := stats.Figure{
		ID:     "fig8d",
		Title:  "Packet recovery time as a fraction of direct-path RTT",
		XLabel: "recovery time / RTT",
		YLabel: "CDF",
	}
	for _, name := range []string{"US-EU", "US-OC", "EU-OC", "Agg"} {
		if groups[name].Len() > 0 {
			fig.AddSeries(groups[name].CDF(name))
		}
	}
	agg := groups["Agg"]
	fig.AddNote("paper: 95%% of packets recovered within 0.5×RTT")
	if agg.Len() > 0 {
		fig.AddNote("measured: %.0f%% of recoveries within 0.5×RTT (n=%d)",
			100*agg.FractionBelow(0.5), agg.Len())
	}
	return Result{Figures: []stats.Figure{fig}}, nil
}

func runFig8e(o Options) (Result, error) {
	prm1 := fig8Defaults(o.Quick)
	prm1.crossParity = 1
	prm2 := fig8Defaults(o.Quick)
	prm2.crossParity = 2
	one := runFig8Deployment(o.Seed, prm1)
	two := runFig8Deployment(o.Seed, prm2)
	var inc stats.Sample
	improved := 0
	counted := 0
	for i := range one {
		r1, ok1 := one[i].successRate()
		r2, ok2 := two[i].successRate()
		if !ok1 || !ok2 {
			continue
		}
		counted++
		if r1 < 0.01 {
			r1 = 0.01
		}
		pct := (r2 - r1) / r1 * 100
		if pct < 0 {
			pct = 0
		}
		inc.Add(pct)
		if pct > 10 {
			improved++
		}
	}
	fig := stats.Figure{
		ID:     "fig8e",
		Title:  "Recovery increase with 2 vs 1 cross-stream coded packets",
		XLabel: "percentage increase in recovery",
		YLabel: "CDF",
	}
	fig.AddSeries(inc.CDF("PlanetLab-like paths"))
	fig.AddNote("paper: 60%% of paths gain >10%% recovery from the second coded packet")
	if counted > 0 {
		fig.AddNote("measured: %.0f%% of %d paths gain >10%%", 100*float64(improved)/float64(counted), counted)
	}
	return Result{Figures: []stats.Figure{fig}}, nil
}
