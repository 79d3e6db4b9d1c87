package experiments

import (
	"math/rand"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/netem"
	"jqos/internal/stats"
	"jqos/internal/video"
	"jqos/internal/worlds"
)

func init() {
	register(Experiment{ID: "9a", Title: "Skype case study: PSNR CDFs under a 30 s outage", Run: runFig9a})
}

// videoScenario runs one conference call through a J-QoS deployment and
// scores per-frame PSNR.
type videoScenario struct {
	name string
	// service and options for the video flow.
	service    core.Service
	pathSwitch bool
	// mobileDelta inflates the receiver's δ (the CR-WAN-Mobile variant).
	mobileDelta bool
	// protect enables the 30 s outage on the direct path (all scenarios
	// use it; a lossless baseline is added separately).
	outage bool
}

type videoOutcome struct {
	psnr *stats.Sample
	// cloud accounting for the bandwidth-comparison headline
	cloudPackets uint64
	cloudBytes   uint64
	goodFrames   float64
}

func runVideoScenario(seed int64, sc videoScenario, quick bool) videoOutcome {
	vcfg := video.DefaultConfig()
	callDur := 5 * time.Minute
	outageAt := 2 * time.Minute
	outageDur := 30 * time.Second
	if quick {
		callDur = 80 * time.Second
		outageAt = 30 * time.Second
		outageDur = 15 * time.Second
	}

	cfg := jqos.DefaultConfig()
	// §6.3: in-stream coding disabled (Skype has its own FEC); cross-
	// stream r = 1/4 with k = 4 (the Skype flow + three background
	// flows).
	cfg.Encoder.InBlock = 0
	cfg.Encoder.K = 4
	cfg.Encoder.CrossParity = 1
	// Per-application tuning (§5): a video frame bursts 2–5 packets of
	// one flow at once, so enough queues must be open to hold a whole
	// frame, and the batch timer must span the fill time of a frame's
	// worth of batches.
	cfg.Encoder.CrossQueues = 6
	cfg.Encoder.CrossTimeout = 80 * time.Millisecond
	cfg.UpgradeInterval = 0
	d, dc1, dc2 := worlds.Paper(seed, cfg)

	src := d.AddHost(dc1, 5*time.Millisecond)
	deltaR := 8 * time.Millisecond
	if sc.mobileDelta {
		// Mobile receivers sit 50–100 ms RTT from the cloud (§6.5).
		deltaR = 35 * time.Millisecond
	}
	dst := d.AddHost(dc2, deltaR)

	var loss netem.LossModel
	if sc.outage {
		o := &netem.OutageSchedule{}
		o.AddOutage(outageAt, outageDur)
		loss = o
	}
	jitter := netem.DelayModel(netem.NormalJitter{
		Base: 50 * time.Millisecond, Sigma: 2 * time.Millisecond, Floor: 40 * time.Millisecond})
	if sc.mobileDelta {
		jitter = netem.NormalJitter{Base: 60 * time.Millisecond, Sigma: 8 * time.Millisecond, Floor: 45 * time.Millisecond}
	}
	d.SetDirectPath(src, dst, jitter, loss)

	flow, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: time.Hour,
		Service: sc.service, ServiceFixed: true,
		// The baseline scenario pins plain best-effort Internet, which
		// a fixed spec must opt into explicitly.
		AllowInternet: sc.service == core.ServiceInternet,
		PathSwitch:    sc.pathSwitch,
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}

	// Three ~200 Kb/s background UDP flows share the overlay so cross-
	// stream batches fill (paper's methodology).
	if sc.service == core.ServiceCoding {
		for b := 0; b < 3; b++ {
			bs, bd := worlds.HostPair(d, dc1, dc2)
			d.SetDirectPath(bs, bd, netem.FixedDelay(50*time.Millisecond), nil)
			bg, err := d.RegisterFlow(jqos.FlowSpec{
				Src: bs, Dst: bd, Budget: time.Hour,
				Service: jqos.ServiceCoding, ServiceFixed: true,
			})
			if err != nil {
				panic("experiments: " + err.Error())
			}
			// Background rate ≈ the video stream's packet rate, so each
			// cross-stream batch carries one video packet and three
			// background packets (k = 4, Skype share = 1/4).
			phase := time.Duration(b) * 3 * time.Millisecond
			worlds.CBR(d, bg, 300, 16*time.Millisecond, phase, phase+callDur)
		}
	}

	// Generate the call and map flow seqs onto (frame, packet) pairs.
	vrng := rand.New(rand.NewSource(seed ^ 0x77))
	frames := vcfg.GenerateFrames(vrng, callDur)
	scorer := video.NewScorer(vcfg, frames)
	frameOf := make(map[jqos.Seq]int)
	frameIval := time.Second / time.Duration(vcfg.FPS)
	for _, f := range frames {
		f := f
		// Real conferencing senders pace a frame's packets across the
		// frame interval (the paper's measured Skype inter-arrivals sit
		// under the 25 ms NACK timer).
		pace := frameIval / time.Duration(f.Packets+1)
		for p := 0; p < f.Packets; p++ {
			d.Sim().At(f.SendAt+time.Duration(p)*pace, func() {
				seq := flow.Send(make([]byte, vcfg.PacketSize))
				frameOf[seq] = f.ID
			})
		}
	}
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		if fid, ok := frameOf[del.Packet.ID.Seq]; ok {
			scorer.OnPacket(fid, del.Packet.Sent, del.At)
		}
	})

	// Cloud accounting, per the paper's method: the inter-DC leg is
	// shared by all coded flows (attributed by the video stream's share
	// of encoded data), while DC2 egress toward the video receiver is
	// attributed in full.
	var interPkts, interBytes, toRcvrPkts, toRcvrBytes uint64
	d.Network().Tap = func(from, to core.NodeID, size int) {
		switch {
		case from == dc1 && to == dc2:
			interPkts++
			interBytes += uint64(size)
		case from == dc2 && to == dst:
			toRcvrPkts++
			toRcvrBytes += uint64(size)
		}
	}

	d.Run(callDur + 20*time.Second)
	share := 1.0
	if sc.service == core.ServiceCoding {
		if enc := d.DC(dc1).Encoder().Stats(); enc.DataPackets > 0 {
			share = float64(flow.Metrics().Sent) / float64(enc.DataPackets)
		}
	}
	return videoOutcome{
		psnr:         scorer.PSNRs(rand.New(rand.NewSource(seed ^ 0x99))),
		cloudPackets: uint64(float64(interPkts)*share) + toRcvrPkts,
		cloudBytes:   uint64(float64(interBytes)*share) + toRcvrBytes,
		goodFrames:   scorer.GoodFrameFraction(),
	}
}

func runFig9a(o Options) (Result, error) {
	scenarios := []videoScenario{
		{name: "Internet", service: core.ServiceInternet, outage: true},
		{name: "Fwd", service: core.ServiceForwarding, outage: true},
		{name: "CR-WAN", service: core.ServiceCoding, outage: true},
		{name: "CR-WAN-Mobile", service: core.ServiceCoding, outage: true, mobileDelta: true},
	}
	fig := stats.Figure{
		ID:     "fig9a",
		Title:  "Skype QoE under a 30 s outage",
		XLabel: "PSNR (dB)",
		YLabel: "CDF",
	}
	outcomes := map[string]videoOutcome{}
	for _, sc := range scenarios {
		out := runVideoScenario(o.Seed, sc, o.Quick)
		outcomes[sc.name] = out
		fig.AddSeries(out.psnr.CDF(sc.name))
	}
	fig.AddNote("paper: forwarding preserves QoE through the outage; CR-WAN matches it; Internet degrades")
	fig.AddNote("measured good-frame fraction: Internet %.2f, Fwd %.2f, CR-WAN %.2f, Mobile %.2f",
		outcomes["Internet"].goodFrames, outcomes["Fwd"].goodFrames,
		outcomes["CR-WAN"].goodFrames, outcomes["CR-WAN-Mobile"].goodFrames)
	fwd, cr := outcomes["Fwd"], outcomes["CR-WAN"]
	if fwd.cloudPackets > 0 && fwd.cloudBytes > 0 {
		fig.AddNote("paper: CR-WAN used 13.4%% of the packets and 13.6%% of the bytes of forwarding")
		fig.AddNote("measured cloud usage, CR-WAN/forwarding (Skype-attributed): %.1f%% packets, %.1f%% bytes",
			100*float64(cr.cloudPackets)/float64(fwd.cloudPackets),
			100*float64(cr.cloudBytes)/float64(fwd.cloudBytes))
	}
	return Result{Figures: []stats.Figure{fig}}, nil
}
