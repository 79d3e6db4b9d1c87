package jqos_test

import (
	"fmt"
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
)

// buildOutageWorld wires one protected flow plus three clean background
// flows through a 2-DC overlay, with an outage window on the primary path.
func buildOutageWorld(t *testing.T, seed int64, outageAt, outageDur time.Duration) (*jqos.Deployment, *jqos.Flow, *[]core.Delivery) {
	t.Helper()
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d := jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	o := &netem.OutageSchedule{}
	o.AddOutage(outageAt, outageDur)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), o)
	f, err := d.RegisterFlow(fixedSpec(src, dst, time.Hour, jqos.ServiceCoding))
	if err != nil {
		t.Fatal(err)
	}
	var dels []core.Delivery
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) { dels = append(dels, del) })
	for b := 0; b < 3; b++ {
		bs := d.AddHost(dc1, 5*time.Millisecond)
		bd := d.AddHost(dc2, 8*time.Millisecond)
		d.SetDirectPath(bs, bd, netem.FixedDelay(50*time.Millisecond), nil)
		bg, err := d.RegisterFlow(fixedSpec(bs, bd, time.Hour, jqos.ServiceCoding))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 1200; k++ {
			at := time.Duration(b)*3*time.Millisecond + time.Duration(k)*5*time.Millisecond
			d.Sim().At(at, func() { bg.Send(make([]byte, 300)) })
		}
	}
	return d, f, &dels
}

// TestSustainedRecoveryPumpPacing verifies the §4.4 "indefinite series of
// losses" behaviour: recoveries continue DURING a long outage (at roughly
// the parity arrival rate), rather than piling up for the outage's end.
func TestSustainedRecoveryPumpPacing(t *testing.T) {
	outageAt := 2 * time.Second
	outageDur := 2 * time.Second
	d, f, dels := buildOutageWorld(t, 31, outageAt, outageDur)
	for k := 0; k < 1200; k++ {
		at := time.Duration(k) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send([]byte(fmt.Sprintf("pkt-%d", k))) })
	}
	d.Run(20 * time.Second)

	m := f.Metrics()
	if m.Delivered < 1190 {
		t.Fatalf("delivered %d of 1200 (recovered %d)", m.Delivered, m.Recovered)
	}
	// ~400 packets fall inside the outage; most must arrive recovered.
	if m.Recovered < 300 {
		t.Fatalf("recovered only %d", m.Recovered)
	}
	// Pacing: recovered deliveries must be spread across the outage
	// window, not bunched after it ends. Count recoveries whose arrival
	// time lies strictly inside the outage.
	inside := 0
	for _, del := range *dels {
		if del.Recovered && del.At > outageAt && del.At < outageAt+outageDur {
			inside++
		}
	}
	if inside < 200 {
		t.Errorf("only %d recoveries landed during the outage — pump not sustaining", inside)
	}
	// And per-packet delivery latency during the outage stays bounded
	// (well under the outage length).
	var worst time.Duration
	for _, del := range *dels {
		if del.Recovered {
			if lat := del.At - del.Packet.Sent; lat > worst {
				worst = lat
			}
		}
	}
	if worst > 1500*time.Millisecond {
		t.Errorf("worst recovered delivery latency %v — packets waited for outage end", worst)
	}
}

// TestSingleStreamStallsDuringOutage is the concurrency ablation beside
// TestSustainedRecoveryPumpPacing: the same outage with no background
// flows. The pump runs here too; what is missing is other streams for
// cross-stream recovery to combine with, and in-outage recoveries
// collapse (the paper's point: coding needs concurrency).
func TestSingleStreamStallsDuringOutage(t *testing.T) {
	outageAt := 2 * time.Second
	outageDur := 2 * time.Second
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d := jqos.NewDeploymentWithConfig(31, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	o := &netem.OutageSchedule{}
	o.AddOutage(outageAt, outageDur)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), o)
	f, err := d.RegisterFlow(fixedSpec(src, dst, time.Hour, jqos.ServiceCoding))
	if err != nil {
		t.Fatal(err)
	}
	inside := 0
	d.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		if del.Recovered && del.At > outageAt && del.At < outageAt+outageDur {
			inside++
		}
	})
	// No background flows: cross-stream batches degenerate to k=1.
	for k := 0; k < 1200; k++ {
		at := time.Duration(k) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send(make([]byte, 300)) })
	}
	d.Run(20 * time.Second)
	if inside > 50 {
		t.Errorf("%d in-outage recoveries without concurrent streams — unexpectedly good", inside)
	}
}
