// Videoconf reproduces the paper's Skype case study (§6.3) in miniature:
// a video call rides a path that suffers a 20-second outage, first with no
// protection, then with the forwarding service, then with CR-WAN coding.
//
//	go run ./examples/videoconf
package main

import (
	"fmt"
	"math/rand"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/netem"
	"jqos/internal/video"
	"jqos/internal/worlds"
)

func runCall(service jqos.Service, outage bool) (good float64, psnrP10 float64) {
	cfg := jqos.DefaultConfig()
	cfg.Encoder.InBlock = 0 // Skype brings its own FEC (s = 0)
	cfg.Encoder.K = 4
	cfg.Encoder.CrossParity = 1
	cfg.UpgradeInterval = 0
	dep, dc1, dc2 := worlds.Paper(7, cfg)
	src, dst := worlds.HostPair(dep, dc1, dc2)

	var loss netem.LossModel
	if outage {
		o := &netem.OutageSchedule{}
		o.AddOutage(30*time.Second, 20*time.Second)
		loss = o
	}
	dep.SetDirectPath(src, dst,
		netem.NormalJitter{Base: 50 * time.Millisecond, Sigma: 2 * time.Millisecond, Floor: 40 * time.Millisecond},
		loss)

	flow, err := dep.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: time.Hour,
		Service: service, ServiceFixed: true,
		// The baseline scenario pins plain best-effort Internet, which
		// a fixed spec must opt into explicitly.
		AllowInternet: service == jqos.ServiceInternet,
	})
	if err != nil {
		panic(err)
	}

	// Background flows feed the cross-stream batches (paper: three
	// ~200 Kb/s UDP flows coded with the Skype stream, r = 1/4).
	if service == jqos.ServiceCoding {
		for b := 0; b < 3; b++ {
			bs, bd := worlds.HostPair(dep, dc1, dc2)
			dep.SetDirectPath(bs, bd, netem.FixedDelay(50*time.Millisecond), nil)
			bg, err := dep.RegisterFlow(jqos.FlowSpec{
				Src: bs, Dst: bd, Budget: time.Hour,
				Service: jqos.ServiceCoding, ServiceFixed: true,
			})
			if err != nil {
				panic(err)
			}
			worlds.CBR(dep, bg, 300, 12*time.Millisecond, 0, 90*time.Second)
		}
	}

	// The call itself: 90 seconds of frames.
	vcfg := video.DefaultConfig()
	frames := vcfg.GenerateFrames(rand.New(rand.NewSource(1)), 90*time.Second)
	scorer := video.NewScorer(vcfg, frames)
	frameOf := map[jqos.Seq]int{}
	for _, f := range frames {
		f := f
		dep.Sim().At(f.SendAt, func() {
			for p := 0; p < f.Packets; p++ {
				frameOf[flow.Send(make([]byte, vcfg.PacketSize))] = f.ID
			}
		})
	}
	dep.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		if fid, ok := frameOf[del.Packet.ID.Seq]; ok {
			scorer.OnPacket(fid, del.Packet.Sent, del.At)
		}
	})

	dep.Run(120 * time.Second)
	psnr := scorer.PSNRs(rand.New(rand.NewSource(2)))
	return scorer.GoodFrameFraction(), psnr.Quantile(0.10)
}

func main() {
	fmt.Println("90 s call, 20 s outage in the middle — per-scenario QoE:")
	fmt.Printf("%-22s %12s %12s\n", "scenario", "good frames", "p10 PSNR")
	for _, sc := range []struct {
		name    string
		service jqos.Service
		outage  bool
	}{
		{"clean path (ref)", jqos.ServiceInternet, false},
		{"Internet + outage", jqos.ServiceInternet, true},
		{"Forwarding + outage", jqos.ServiceForwarding, true},
		{"CR-WAN + outage", jqos.ServiceCoding, true},
	} {
		good, p10 := runCall(sc.service, sc.outage)
		fmt.Printf("%-22s %11.1f%% %9.1f dB\n", sc.name, 100*good, p10)
	}
	fmt.Println("\nforwarding duplicates every packet over the cloud; CR-WAN ships")
	fmt.Println("only r=1/4 coded packets and repairs via cooperative recovery.")
}
