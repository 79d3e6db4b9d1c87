// Tenancy: first-class customer contracts above individual flows. Two
// tenants share a deployment: "acme" runs a swarm of small flows and
// "umbrella" one fat flow, both under the SAME aggregate admission
// quota — and the quota, not the flow count, is what binds: the swarm
// is admitted byte-for-byte what the single flow is. Inside acme's own
// class share, per-flow sub-queues (Scheduler.PerFlowQueues) keep its
// interactive flow on budget while its own bulk flow saturates the
// queue. Everything is read back from the snapshot's per-tenant slice
// — the same rollup telemetry.Serve exposes at /snapshot and jqos-stat
// renders.
//
//	go run ./examples/tenancy
package main

import (
	"fmt"
	"time"

	"jqos"
	"jqos/internal/worlds"
)

func main() {
	cfg := worlds.ContendedConfig()
	cfg.UpgradeInterval = 0
	cfg.Scheduler.PerFlowQueues = true // nested DRR: flows are fair INSIDE the class
	d, dc1, dc2 := worlds.Bottleneck(21, cfg)

	// Contracts first, flows after: a FlowSpec.Tenant must already be
	// registered. Both tenants buy the same 300 kB/s aggregate quota.
	for _, c := range []jqos.TenantContract{
		{ID: 1, Name: "acme", Rate: 300_000, Burst: 16 << 10},
		{ID: 2, Name: "umbrella", Rate: 300_000, Burst: 16 << 10},
	} {
		if err := d.RegisterTenant(c); err != nil {
			panic(err)
		}
	}

	mkFlow := func(tid jqos.TenantID, budget time.Duration) *jqos.Flow {
		src, dst := worlds.HostPair(d, dc1, dc2)
		f, err := d.RegisterFlow(jqos.FlowSpec{
			Src: src, Dst: dst, Budget: budget,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Tenant: tid,
		})
		if err != nil {
			panic(err)
		}
		return f
	}

	// acme: 20 small flows plus one interactive flow; umbrella: one fat
	// flow offering the same aggregate as acme's whole swarm.
	var swarm []*jqos.Flow
	for i := 0; i < 20; i++ {
		swarm = append(swarm, mkFlow(1, 500*time.Millisecond))
	}
	interactive := mkFlow(1, 80*time.Millisecond)
	fat := mkFlow(2, 500*time.Millisecond)

	span := 2 * time.Second
	for i := 0; i < int(span/time.Millisecond); i++ {
		at := time.Duration(i) * time.Millisecond
		i := i
		d.Sim().At(at, func() {
			// Each tenant offers ~600 kB/s against its 300 kB/s quota:
			// acme spread across 20 flows, umbrella through one.
			swarm[i%len(swarm)].Send(make([]byte, 600))
			fat.Send(make([]byte, 600))
		})
	}
	worlds.CBR(d, interactive, 200, 5*time.Millisecond, 0, span)
	d.Run(span + 5*time.Second)

	s := d.Snapshot()
	fmt.Println("per-tenant rollups (Snapshot.Tenants):")
	for _, ts := range s.Tenants {
		admitted := ts.SentBytes - ts.QuotaDroppedBytes
		fmt.Printf("  %-9s %2d flows: offered %4d kB, quota admitted %3d kB (%d drops), on-time %.0f%%, est cost $%.5f\n",
			ts.Name, ts.Flows, ts.SentBytes/1000, admitted/1000,
			ts.QuotaDropped, 100*ts.OnTimeFraction(), ts.EstCostUSD)
	}
	acme, _ := d.TenantStats(1)
	umbrella, _ := d.TenantStats(2)
	acmeAdmitted := acme.SentBytes - acme.QuotaDroppedBytes
	umbAdmitted := umbrella.SentBytes - umbrella.QuotaDroppedBytes
	fmt.Printf("\nquota parity: acme's %d flows were admitted %d kB, umbrella's 1 flow %d kB — flow count is not a loophole\n",
		acme.Flows, acmeAdmitted/1000, umbAdmitted/1000)
	im := interactive.Metrics()
	fmt.Printf("sub-queue isolation: acme's interactive flow %d/%d on time while its own swarm saturated the class\n",
		im.OnTime, im.Sent)
}
