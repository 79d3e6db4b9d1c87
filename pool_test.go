//go:build !race

// The race detector's instrumentation allocates on its own (about 0.55
// more per packet on this world), so the count is pinned without it.

package jqos

import (
	"runtime"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/feedback"
	"jqos/internal/netem"
	"jqos/internal/wire"
)

// poolIdleBound is the most buffers a wire.Pool keeps (its doc's idle
// bound): 64 in each class up to 4 KiB, then 256 KiB worth per class.
const poolIdleBound = 508

// TestCodingSteadyStateAllocs: on a 2-DC coding world — eight flows of
// 64 B packets every 2 ms over lossy direct paths, so NACKs, resent parity
// and coop rounds run all along — a packet's whole trip allocates at most
// 0.15 times once the run is warm: a little recovery traffic the DCs build
// fresh. The sender's copies, the parity, NACKs and coop answers travel in
// buffers the deployment's pool hands out and their consumers hand back
// (1.08 per packet when the sender allocated its copies, 1.54 when every
// message was allocated). Once the deployment is idle, its pool holds no
// more than its bound.
func TestCodingSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, ServiceCoding, 0.15)
}

// TestCachingSteadyStateAllocs is the same world on the caching service:
// every cloud copy cached at DC2, every loss a NACK answered from the
// cache. Copies, NACKs and pull responses are all pooled, so a packet's
// trip allocates at most 0.10 times.
func TestCachingSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, ServiceCaching, 0.10)
}

func steadyStateAllocs(t *testing.T, svc Service, bound float64) {
	const (
		flows    = 8
		interval = 2 * time.Millisecond
		warm     = 3 * time.Second
		measured = 4 * time.Second
	)
	d := NewDeploymentWithConfig(1, DefaultConfig())
	a := d.AddDC("dc-a", dataset.RegionUSEast)
	b := d.AddDC("dc-b", dataset.RegionEU)
	d.ConnectDCs(a, b, 40*time.Millisecond)
	payload := make([]byte, 64)
	end := warm + measured
	sent := 0
	for i := 0; i < flows; i++ {
		src := d.AddHost(a, 5*time.Millisecond)
		dst := d.AddHost(b, 8*time.Millisecond)
		d.SetDirectPath(src, dst, netem.UniformJitter{Base: 50 * time.Millisecond, Jitter: 2 * time.Millisecond},
			netem.NewGilbertElliott(0.01, 3))
		f, err := d.RegisterFlow(FlowSpec{Src: src, Dst: dst, Budget: 200 * time.Millisecond,
			Service: svc, ServiceFixed: true})
		if err != nil {
			t.Fatal(err)
		}
		var send func()
		send = func() {
			f.Send(payload)
			sent++
			if next := d.Now() + interval; next < end {
				d.Sim().At(next, send)
			}
		}
		d.Sim().At(time.Duration(i)*time.Millisecond%interval, send)
	}
	d.Run(warm)
	before := sent
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	d.Run(measured)
	runtime.ReadMemStats(&ms)
	pkts := sent - before
	perPkt := float64(ms.Mallocs-mallocs) / float64(pkts)
	t.Logf("%d packets, %.4f allocations per packet", pkts, perPkt)
	if pkts < flows*int(measured/interval)-flows || perPkt > bound {
		t.Errorf("%d packets sent allocate %.4f times per packet, want at most %.2f", pkts, perPkt, bound)
	}

	d.RunUntilQuiet()
	t.Logf("idle pool holds %d buffers", d.pool.Len())
	if n := d.pool.Len(); n > poolIdleBound {
		t.Errorf("an idle deployment's pool holds %d buffers, more than its bound %d", n, poolIdleBound)
	}
}

// TestControlMessagesReturnToPool: probes and their acks are drawn from
// the deployment's pool and handed back by the DC that consumes them, and
// a probe the link refuses goes back at the sender, so a deployment with
// DCs and no flows holds probe-sized buffers once its probers have run.
func TestControlMessagesReturnToPool(t *testing.T) {
	for _, cut := range []bool{false, true} {
		d := NewDeploymentWithConfig(1, DefaultConfig())
		a := d.AddDC("dc-a", dataset.RegionUSEast)
		b := d.AddDC("dc-b", dataset.RegionEU)
		d.ConnectDCs(a, b, 40*time.Millisecond)
		if cut {
			d.Link(a, b).Disconnect() // boosts the probers too
		} else {
			d.NudgeFaultDetection()
		}
		d.Run(time.Second)
		if n := d.pool.Holds(wire.HeaderLen); n == 0 {
			t.Errorf("link cut %v: after a second of probing the pool holds no probe-sized buffer", cut)
		}
	}
}

// TestTailDroppedCopiesReturnToPool: a burst of cloud copies overruns an
// egress class queue that holds two of them, and the DC hands back every
// copy it tail-drops, so before any copy is delivered the pool holds one
// buffer of the data class per drop. Probing is off, so nothing else
// hands a buffer back in that window.
func TestTailDroppedCopiesReturnToPool(t *testing.T) {
	const burst, size = 20, 1000
	cfg := DefaultConfig()
	cfg.Monitor.ProbeInterval = 0
	cfg.LinkCapacity = 100_000
	cfg.Scheduler = SchedulerConfig{
		Weights:    map[Service]int{ServiceForwarding: 1},
		QueueBytes: 2 * (wire.HeaderLen + size),
	}
	d := NewDeploymentWithConfig(1, cfg)
	a := d.AddDC("dc-a", dataset.RegionUSEast)
	b := d.AddDC("dc-b", dataset.RegionEU)
	d.ConnectDCs(a, b, 40*time.Millisecond)
	src := d.AddHost(a, 5*time.Millisecond)
	dst := d.AddHost(b, 8*time.Millisecond) // no direct path: the cloud copy is the only one
	f, err := d.RegisterFlow(FlowSpec{Src: src, Dst: dst, Budget: time.Second,
		Service: ServiceForwarding, ServiceFixed: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := 0; i < burst; i++ {
		f.Send(payload)
	}
	d.Run(20 * time.Millisecond) // past the ingress, short of dc-b
	dropped := f.Metrics().EgressDropped
	if dropped == 0 {
		t.Fatal("the burst tail-dropped nothing; the class queue must overflow")
	}
	if n := d.pool.Holds(wire.HeaderLen + size); uint64(n) != dropped {
		t.Errorf("the pool holds %d data-class buffers after %d tail-drops, want one per drop", n, dropped)
	}
}

// TestRelayedCongestionSignalStaysInFlight: on the chain a–b–c, a signal
// from c to ingress a transits b. b relays the message without handing it
// back, a consumes it whole and hands it back, so once it has arrived the
// pool holds that one buffer. A relay that handed it back as well would
// leave it in the pool twice (and, under -tags poolcheck, scribble over
// the bytes a still has to read).
func TestRelayedCongestionSignalStaysInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Monitor.ProbeInterval = 0
	cfg.Scheduler = SchedulerConfig{Weights: map[Service]int{ServiceForwarding: 1}, QueueBytes: 64 << 10}
	cfg.Feedback.Enabled = true
	d := NewDeploymentWithConfig(1, cfg)
	a := d.AddDC("a", dataset.RegionUSEast)
	b := d.AddDC("b", dataset.RegionUSWest)
	c := d.AddDC("c", dataset.RegionEU)
	d.ConnectDCs(a, b, 10*time.Millisecond)
	d.ConnectDCs(b, c, 10*time.Millisecond)
	d.fb.sendSignal(a, &feedback.Transition{From: c, To: b, Class: ServiceForwarding, State: feedback.Hot, Depth: 1 << 10})
	d.Run(time.Second)
	if sent, dropped := d.fb.stats.SignalsSent, d.fb.stats.SignalsDropped; sent != 1 || dropped != 0 {
		t.Fatalf("signals sent %d, dropped %d; want 1 sent, none dropped", sent, dropped)
	}
	for _, id := range []core.NodeID{a, b, c} {
		if n := d.DC(id).Dropped(); n != 0 {
			t.Errorf("DC %v dropped %d datagrams, want 0: the signal arrived damaged", id, n)
		}
	}
	if n := d.pool.Holds(wire.HeaderLen + wire.CongestionLen); n != 1 {
		t.Errorf("the pool holds %d congestion-sized buffers after one relayed signal, want 1", n)
	}
}

// TestQuotaDroppedCloudCopyReturnsToPool: a cloud copy the tenant's quota
// refuses never leaves the sender, so the sender hands it back, and the
// next send draws it again: a flow its tenant throttles allocates nothing.
func TestQuotaDroppedCloudCopyReturnsToPool(t *testing.T) {
	d := NewDeploymentWithConfig(1, DefaultConfig())
	a := d.AddDC("dc-a", dataset.RegionUSEast)
	b := d.AddDC("dc-b", dataset.RegionEU)
	d.ConnectDCs(a, b, 40*time.Millisecond)
	src := d.AddHost(a, 5*time.Millisecond)
	dst := d.AddHost(b, 8*time.Millisecond) // no direct path: the cloud copy is the only one
	if err := d.RegisterTenant(TenantContract{ID: 1, Name: "throttled", Rate: 1, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := d.RegisterFlow(FlowSpec{Src: src, Dst: dst, Budget: time.Second,
		Service: ServiceCaching, ServiceFixed: true, Tenant: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4000) // past any burst the quota holds
	f.Send(payload)
	if n := d.Snapshot().Tenants[0].QuotaDropped; n != 1 {
		t.Fatalf("quota dropped %d copies, want 1", n)
	}
	if n := d.pool.Len(); n != 1 {
		t.Errorf("pool holds %d buffers after a dropped cloud copy, want 1", n)
	}
	if n := testing.AllocsPerRun(10, func() { f.Send(payload) }); n != 0 {
		t.Errorf("a send whose cloud copy the quota drops allocates %v times, want 0", n)
	}
}
