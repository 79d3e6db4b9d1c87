package experiments

import (
	"math/rand"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/mobile"
	"jqos/internal/netem"
	"jqos/internal/overlay"
	"jqos/internal/stats"
	"jqos/internal/worlds"
)

func init() {
	register(Experiment{ID: "cost", Title: "Deployment cost: forwarding vs coding (§6.6)", Run: runCost})
	register(Experiment{ID: "k20", Title: "Coding overhead at k=20 concurrent streams (§6.6)", Run: runK20})
	register(Experiment{ID: "mobile", Title: "Mobile feasibility: uplink, energy, cloud RTT (§6.5)", Run: runMobile})
}

// runCost reproduces the §6.6 back-of-the-envelope: 150 concurrent Skype
// calls through a 2-node overlay, forwarding vs coding at r = 1/16.
func runCost(o Options) (Result, error) {
	m := overlay.DefaultCostModel
	users := stats.Series{Name: "forwarding $/h"}
	codingSeries := stats.Series{Name: "coding r=1/16 $/h"}
	for _, n := range []int{10, 50, 100, 150, 300, 600} {
		fwd, cod := m.DeploymentCost(n, 1.0/16)
		users.Append(float64(n), fwd)
		codingSeries.Append(float64(n), cod)
	}
	fig := stats.Figure{
		ID:     "cost",
		Title:  "Hourly bandwidth cost vs concurrent calls",
		XLabel: "concurrent calls",
		YLabel: "$/hour",
	}
	fig.AddSeries(users)
	fig.AddSeries(codingSeries)
	fwd150, cod150 := m.DeploymentCost(150, 1.0/16)
	fig.AddNote("paper: forwarding $17.60/h vs coding $1.10/h for 150 calls (16x)")
	fig.AddNote("cost model at r = 1/16: forwarding $%.2f/h vs coding $%.2f/h (%.0fx)", fwd150, cod150, fwd150/cod150)
	return Result{Figures: []stats.Figure{fig}}, nil
}

// runK20 reproduces the §6.6 Emulab check: 20 concurrent streams with
// r = 2/20 recover >92% of losses under the Google loss model at ~10%
// overhead.
func runK20(o Options) (Result, error) {
	cfg := jqos.DefaultConfig()
	cfg.Encoder.K = 20
	cfg.Encoder.CrossParity = 2
	cfg.Encoder.InBlock = 0
	cfg.Encoder.CrossQueues = 2
	cfg.Encoder.CrossTimeout = 150 * time.Millisecond // let k=20 batches fill
	cfg.UpgradeInterval = 0
	d, dc1, dc2 := worlds.Paper(o.Seed, cfg)

	packets := 2000
	if o.Quick {
		packets = 400
	}
	type state struct {
		direct    []bool
		recovered []bool
	}
	states := make([]*state, 20)
	for i := 0; i < 20; i++ {
		st := &state{direct: make([]bool, packets+1), recovered: make([]bool, packets+1)}
		states[i] = st
		src, dst := worlds.HostPair(d, dc1, dc2)
		d.SetDirectPath(src, dst,
			netem.NormalJitter{Base: 50 * time.Millisecond, Sigma: time.Millisecond, Floor: 40 * time.Millisecond},
			netem.NewGoogleBurst())
		f, err := d.RegisterFlow(jqos.FlowSpec{
			Src: src, Dst: dst, Budget: time.Hour,
			Service: jqos.ServiceCoding, ServiceFixed: true,
		})
		if err != nil {
			return Result{}, err
		}
		d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
			seq := int(del.Packet.ID.Seq)
			if seq < 1 || seq > packets {
				return
			}
			if del.Recovered {
				st.recovered[seq] = true
			} else {
				st.direct[seq] = true
			}
		})
		phase := time.Duration(i) * 2 * time.Millisecond
		worlds.CBR(d, f, 512, 40*time.Millisecond, phase, phase+time.Duration(packets)*40*time.Millisecond)
	}
	d.Run(time.Duration(packets)*40*time.Millisecond + 20*time.Second)

	lost, recovered := 0, 0
	for _, st := range states {
		for seq := 1; seq <= packets; seq++ {
			if !st.direct[seq] {
				lost++
				if st.recovered[seq] {
					recovered++
				}
			}
		}
	}
	encStats := d.DC(dc1).Encoder().Stats()
	pktOverhead := float64(encStats.CrossCoded) / float64(encStats.DataPackets)
	rate := 0.0
	if lost > 0 {
		rate = 100 * float64(recovered) / float64(lost)
	}
	var bar stats.Series
	bar.Name = "recovery %"
	bar.Append(20, rate)
	fig := stats.Figure{
		ID:     "k20",
		Title:  "k=20, r=2/20 under the Google loss model",
		XLabel: "concurrent streams",
		YLabel: "recovery (%)",
	}
	fig.AddSeries(bar)
	fig.AddNote("paper: >92%% of lost packets recovered at ~10%% coding overhead")
	fig.AddNote("measured: %.0f%% of %d losses recovered; packet overhead %.0f%% (bytes %.0f%%)",
		rate, lost, 100*pktOverhead, 100*encStats.Overhead())
	return Result{Figures: []stats.Figure{fig}}, nil
}

// runMobile reproduces the §6.5 feasibility checks.
func runMobile(o Options) (Result, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	n := 1000
	if o.Quick {
		n = 300
	}
	fig := stats.Figure{
		ID:     "mobile",
		Title:  "LTE RTT to cloud providers",
		XLabel: "RTT (ms)",
		YLabel: "CDF",
	}
	feasibleAt250 := 0
	samples := 0
	for _, p := range mobile.Providers {
		s := mobile.PingCloud(rng, p, n)
		fig.AddSeries(s.CDF(string(p)))
		for _, v := range s.Values() {
			samples++
			if mobile.RecoveryFeasible(v, 25*time.Millisecond, 250*time.Millisecond) {
				feasibleAt250++
			}
		}
	}
	// Uplink feasibility for duplicating an HD call.
	fits := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		if mobile.SampleUplink(rng).FitsDuplication(1.5) {
			fits++
		}
	}
	e := mobile.DefaultEnergy()
	plain := e.Drain(20*time.Minute, 1.5)
	dup := e.Drain(20*time.Minute, 3.0)
	fig.AddNote("paper: median RTT 50–60 ms, 50–100 ms through p90; duplication fits most uplinks; battery delta negligible")
	fig.AddNote("measured: recovery fits a 250 ms budget for %.0f%% of samples", 100*float64(feasibleAt250)/float64(samples))
	fig.AddNote("measured: duplicating 1.5 Mb/s fits %.0f%% of surveyed uplinks", 100*float64(fits)/trials)
	fig.AddNote("measured: 20-min call battery %.1f mAh vs %.1f mAh duplicated (+%.0f%%)",
		plain, dup, 100*(dup-plain)/plain)
	return Result{Figures: []stats.Figure{fig}}, nil
}
