//go:build !race

// The race detector's instrumentation allocates on its own (about 0.55
// more per packet on this world), so the count is pinned without it.

package jqos

import (
	"runtime"
	"testing"
	"time"

	"jqos/internal/dataset"
	"jqos/internal/netem"
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
	if st, _ := d.TenantStats(1); st.QuotaDropped != 1 {
		t.Fatalf("quota dropped %d copies, want 1", st.QuotaDropped)
	}
	if n := d.pool.Len(); n != 1 {
		t.Errorf("pool holds %d buffers after a dropped cloud copy, want 1", n)
	}
	if n := testing.AllocsPerRun(10, func() { f.Send(payload) }); n != 0 {
		t.Errorf("a send whose cloud copy the quota drops allocates %v times, want 0", n)
	}
}
