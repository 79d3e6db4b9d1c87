package jqos_test

import (
	"sync"
	"testing"
	"time"

	"jqos"
	"jqos/internal/dataset"
)

// buildTenantWorld wires the tenancy acceptance scenario: one saturable
// 1 MB/s link, a "bulk" tenant whose aggregate quota caps its two
// uncontracted flows well under the forwarding share, and a "solo"
// tenant owning one interactive flow with an ample quota of its own.
func buildTenantWorld(t *testing.T, seed int64) (
	d *jqos.Deployment, bulk []*jqos.Flow, inter *jqos.Flow) {
	t.Helper()
	const capacity = 1_000_000
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.LinkCapacity = capacity
	cfg.Scheduler = jqos.SchedulerConfig{
		Weights: map[jqos.Service]int{
			jqos.ServiceForwarding: 8,
			jqos.ServiceCaching:    1,
		},
		QueueBytes:    64 << 10,
		LowWatermark:  0.125,
		HighWatermark: 0.5,
		PerFlowQueues: true,
	}
	d = jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
	d.Network().LinkBetween(dc1, dc2).Rate = capacity
	d.Network().LinkBetween(dc2, dc1).Rate = capacity

	// The bulk tenant's 400 kB/s aggregate quota is the ONLY thing
	// standing between its two 750 kB/s flows and the link: neither flow
	// carries a per-flow contract.
	if err := d.RegisterTenant(jqos.TenantContract{
		ID: 1, Name: "bulk", Rate: 400_000, Burst: 16 << 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterTenant(jqos.TenantContract{
		ID: 2, Name: "solo", Rate: 200_000, Burst: 16 << 10,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		bs := d.AddHost(dc1, 5*time.Millisecond)
		bd := d.AddHost(dc2, 8*time.Millisecond)
		bf, err := d.RegisterFlow(jqos.FlowSpec{
			Src: bs, Dst: bd, Budget: 500 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Tenant: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		bulk = append(bulk, bf)
	}
	is := d.AddHost(dc1, 5*time.Millisecond)
	id := d.AddHost(dc2, 8*time.Millisecond)
	var err error
	inter, err = d.RegisterFlow(jqos.FlowSpec{
		Src: is, Dst: id, Budget: 150 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Tenant: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, bulk, inter
}

// TestTenantQuotaIsolation: one tenant saturating its aggregate quota
// must leave a second tenant's interactive budget 100% on time — the
// quota, not the neighbors' appetite, is the blast radius.
func TestTenantQuotaIsolation(t *testing.T) {
	d, bulk, inter := buildTenantWorld(t, 81)
	span := 3 * time.Second
	for i := 0; i < int(span/time.Millisecond); i++ {
		at := time.Duration(i) * time.Millisecond
		d.Sim().At(at, func() {
			bulk[0].Send(make([]byte, 750))
			bulk[1].Send(make([]byte, 750))
		})
		if i%5 == 0 {
			d.Sim().At(at, func() { inter.Send(make([]byte, 200)) })
		}
	}
	d.Run(span + 8*time.Second)

	// The snapshot carries one rollup per tenant, in ascending ID.
	s := d.Snapshot()
	if len(s.Tenants) != 2 || s.Tenants[0].ID != 1 || s.Tenants[1].ID != 2 {
		t.Fatalf("snapshot tenants %+v, want IDs 1 and 2", s.Tenants)
	}
	bs, ss := s.Tenants[0], s.Tenants[1]
	if bs.QuotaDropped == 0 {
		t.Fatal("bulk tenant never hit its quota — scenario premise broken")
	}
	// The quota held the PAIR to one budget: what crossed the ingress
	// fits the contracted rate (with burst slack), not 2× it.
	if max := uint64(float64(bs.QuotaRate)*span.Seconds()*1.2) + 16<<10; bs.SentBytes-bs.QuotaDroppedBytes > max {
		t.Errorf("bulk tenant put %d bytes on the wire, quota admits ≤%d",
			bs.SentBytes-bs.QuotaDroppedBytes, max)
	}
	if ss.QuotaDropped != 0 {
		t.Errorf("interactive tenant lost %d packets to its own quota", ss.QuotaDropped)
	}
	m := inter.Metrics()
	if m.Sent == 0 {
		t.Fatal("no interactive traffic")
	}
	if m.OnTime != m.Sent {
		t.Errorf("interactive on-time %d/%d, want 100%% while the neighbor saturates its quota",
			m.OnTime, m.Sent)
	}
	if ss.Delivered != m.Delivered || ss.OnTime != m.OnTime {
		t.Errorf("solo tenant rollup %d delivered / %d on time, its one flow %d / %d",
			ss.Delivered, ss.OnTime, m.Delivered, m.OnTime)
	}
}

// TestTenantRegistrationValidation: the contract surface rejects what it
// documents — ID 0, duplicates, negative rate, and flows naming tenants
// that were never registered.
func TestTenantRegistrationValidation(t *testing.T) {
	d := jqos.NewDeployment(82)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)

	if err := d.RegisterTenant(jqos.TenantContract{ID: 0, Name: "zero"}); err == nil {
		t.Error("tenant ID 0 accepted")
	}
	if err := d.RegisterTenant(jqos.TenantContract{ID: 1, Name: "a", Rate: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	if err := d.RegisterTenant(jqos.TenantContract{ID: 1, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterTenant(jqos.TenantContract{ID: 1, Name: "dup"}); err == nil {
		t.Error("duplicate tenant ID accepted")
	}
	if _, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Tenant: 9,
	}); err == nil {
		t.Error("flow accepted under an unregistered tenant")
	}
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 300 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Tenant: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.TenantFlowCount(1); got != 1 {
		t.Errorf("member count = %d, want 1", got)
	}
	f.Close()
	f.Close() // idempotent: must not double-decrement
	if got := d.TenantFlowCount(1); got != 0 {
		t.Errorf("member count after close = %d, want 0", got)
	}
}

// TestTenantChurnRaceClean churns RegisterTenant / RegisterFlow /
// Flow.Close on the simulator goroutine while a concurrent reader
// hammers the lock-free snapshot handoff and the trace ring — the -race
// run is the assertion that tenancy added no unsynchronized sharing.
func TestTenantChurnRaceClean(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d := jqos.NewDeploymentWithConfig(83, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
	var hosts [][2]jqos.NodeID
	for i := 0; i < 8; i++ {
		hosts = append(hosts, [2]jqos.NodeID{
			d.AddHost(dc1, 5*time.Millisecond),
			d.AddHost(dc2, 8*time.Millisecond),
		})
	}

	// Sim-goroutine churn: a new tenant every 40 ms, each immediately
	// populated with flows that send a little and close 30 ms later.
	for i := 0; i < 16; i++ {
		i := i
		at := time.Duration(i) * 40 * time.Millisecond
		d.Sim().At(at, func() {
			id := jqos.TenantID(i + 1)
			if err := d.RegisterTenant(jqos.TenantContract{
				ID: id, Name: "churn", Rate: 100_000, Burst: 8 << 10,
				CostCeilingPerGB: 5,
			}); err != nil {
				t.Error(err)
				return
			}
			pair := hosts[i%len(hosts)]
			f, err := d.RegisterFlow(jqos.FlowSpec{
				Src: pair[0], Dst: pair[1], Budget: 300 * time.Millisecond,
				Service: jqos.ServiceForwarding, ServiceFixed: true,
				Tenant: id,
			})
			if err != nil {
				t.Error(err)
				return
			}
			// 40 kB instantaneous against an 8 kB burst: the tail of the
			// burst is quota-refused, feeding the trace ring the reader
			// polls.
			for j := 0; j < 40; j++ {
				f.Send(make([]byte, 1000))
			}
			d.Sim().At(at+30*time.Millisecond, f.Close)
		})
	}

	// Sim-goroutine publisher: a fresh snapshot every 10 ms for the
	// reader below to race against.
	for at := time.Duration(0); at < 2*time.Second; at += 10 * time.Millisecond {
		d.Sim().At(at, func() { d.Snapshot() })
	}

	// Concurrent reader: LatestSnapshot is an atomic pointer handoff and
	// TraceEvents copies under the ring lock — both must stay clean
	// against the churn above.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var snaps, events int
		read := func() {
			if s := d.LatestSnapshot(); s != nil {
				snaps++
				for _, ts := range s.Tenants {
					_ = ts.OnTime
				}
			}
			if evs := d.TraceEvents(); len(evs) > 0 {
				events++
			}
		}
		for {
			select {
			case <-stop:
				// One final pass: virtual time outruns real time, so the
				// loop may never have interleaved with the (already
				// finished) churn — the published snapshot must still be
				// there to read.
				read()
				if snaps == 0 || events == 0 {
					t.Errorf("reader saw %d snapshots / %d trace batches — nothing was actually read", snaps, events)
				}
				return
			default:
			}
			read()
		}
	}()
	d.Run(2 * time.Second)
	close(stop)
	wg.Wait()

	for _, id := range d.Tenants() {
		if n := d.TenantFlowCount(id); n != 0 {
			t.Errorf("tenant %d still counts %d flows after churn", id, n)
		}
	}
}
