package jqos

import (
	"testing"
	"time"

	"jqos/internal/dataset"
	"jqos/internal/netem"
)

// The loss estimate (Flow.lossEst) is what the tenant cost loop prices
// caching's pull-response egress with: the windowed fraction of packets
// the direct path failed to deliver, whether recovery repaired them or an
// overlay copy delivered them anyway.

// TestObservedLossSeesRawLoss: the settled loss estimate must read the
// direct path's wire loss — what caching bills pull responses for —
// even while recovery repairs every packet (residual LossRate ~0).
func TestObservedLossSeesRawLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpgradeInterval = time.Second // settle the estimate often
	d := NewDeploymentWithConfig(77, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 0.2})
	f, err := d.RegisterFlow(FlowSpec{
		Src: src, Dst: dst, Budget: time.Second,
		Service: ServiceCaching, ServiceFixed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send(make([]byte, 200)) })
	}
	d.Run(15 * time.Second)
	m := f.Metrics()
	if m.LossRate() > 0.02 {
		t.Fatalf("recovery left residual loss %.3f — premise broken", m.LossRate())
	}
	if got := f.lossEst; got < 0.1 || got > 0.3 {
		t.Fatalf("observed loss = %.3f, want ~0.2 (raw wire loss, recovery notwithstanding)", got)
	}
}

// TestObservedLossNotMaskedByForwarding: on the forwarding service every
// packet is also duplicated over the overlay, so deliveries stay at 100%
// even on a lossy direct path — but the loss estimate must still read
// the wire loss (overlay-delivered copies are attributed to
// ServiceForwarding, not the direct path).
func TestObservedLossNotMaskedByForwarding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpgradeInterval = time.Second
	d := NewDeploymentWithConfig(79, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 0.3})
	f, err := d.RegisterFlow(FlowSpec{
		Src: src, Dst: dst, Budget: time.Second,
		Service: ServiceForwarding, ServiceFixed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		d.Sim().At(at, func() { f.Send(make([]byte, 200)) })
	}
	d.Run(15 * time.Second)
	m := f.Metrics()
	if m.LossRate() > 0.01 {
		t.Fatalf("forwarding left residual loss %.3f — premise broken", m.LossRate())
	}
	if got := f.lossEst; got < 0.2 || got > 0.4 {
		t.Fatalf("observed loss = %.3f, want ~0.3 (wire loss masked by forwarded copies)", got)
	}
}
