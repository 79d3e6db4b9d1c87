package experiments

import (
	"fmt"
	"time"

	"jqos"
	"jqos/internal/stats"
	"jqos/internal/telemetry"
	"jqos/internal/worlds"
)

func init() {
	register(Experiment{
		ID:    "tenancy",
		Title: "Tenant contracts: aggregate quotas, one backoff per customer, and intra-tenant sub-queue isolation",
		Run:   runTenancy,
	})
}

// runTenancy demonstrates the three tenancy guarantees, each verifiable
// from the snapshot's per-tenant slice:
//
//	a) a tenant of 1000 small flows is held to exactly the same
//	   aggregate admission quota (and cost basis) as a tenant pushing
//	   the same bytes through ONE flow — flow count is not a loophole;
//	b) on a shared Hot bottleneck a tenant's AIMD pacer is cut ONCE per
//	   delivered signal, however many member flows heard it — siblings
//	   back off as one sender, not N independent ones;
//	c) per-flow sub-queues (Scheduler.PerFlowQueues) keep a tenant's
//	   interactive flow on budget while the SAME tenant's bulk flow
//	   saturates their shared class queue.
func runTenancy(o Options) (Result, error) {
	fig := stats.Figure{
		ID:     "tenancy",
		Title:  "Tenant contracts: quota parity, per-tenant backoff, sub-queue isolation",
		XLabel: "send time (s)",
		YLabel: "interactive mean delivery latency (ms)",
	}

	if err := runQuotaParity(o, &fig); err != nil {
		return Result{}, err
	}
	if err := runSingleCut(o, &fig); err != nil {
		return Result{}, err
	}
	if err := runSubqueueIsolation(o, &fig); err != nil {
		return Result{}, err
	}
	return Result{Figures: []stats.Figure{fig}}, nil
}

// runQuotaParity (part a): two tenants with IDENTICAL contracts offer
// the same aggregate load — one through a swarm of small flows, one
// through a single flow — and the quota admits the same byte volume
// from each.
func runQuotaParity(o Options, fig *stats.Figure) error {
	span := 2 * time.Second
	nSwarm := 1000
	if o.Quick {
		nSwarm = 200
	}
	const (
		quota = 300_000 // B/s aggregate admission quota, per tenant
		burst = 16 << 10
	)

	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d, dc1, dc2 := worlds.Bottleneck(o.Seed, cfg) // no capacity: the quota is all that binds

	contract := func(id jqos.TenantID, name string) error {
		return d.RegisterTenant(jqos.TenantContract{
			ID: id, Name: name, Rate: quota, Burst: burst,
			CostCeilingPerGB: 1.0,
		})
	}
	if err := contract(1, "swarm"); err != nil {
		return err
	}
	if err := contract(2, "solo"); err != nil {
		return err
	}

	// A few shared host pairs carry the whole swarm — the tenant model,
	// not the endpoint count, is what's under test.
	var pairs [][2]jqos.NodeID
	for i := 0; i < 4; i++ {
		src, dst := worlds.HostPair(d, dc1, dc2)
		pairs = append(pairs, [2]jqos.NodeID{src, dst})
	}
	mkFlow := func(tid jqos.TenantID, pair [2]jqos.NodeID) (*jqos.Flow, error) {
		return d.RegisterFlow(jqos.FlowSpec{
			Src: pair[0], Dst: pair[1], Budget: 500 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Tenant: tid,
		})
	}
	swarm := make([]*jqos.Flow, nSwarm)
	for i := range swarm {
		f, err := mkFlow(1, pairs[i%len(pairs)])
		if err != nil {
			return err
		}
		swarm[i] = f
	}
	solo, err := mkFlow(2, pairs[0])
	if err != nil {
		return err
	}

	// Identical offered load, ~600 kB/s per tenant against the 300 kB/s
	// quota: each swarm flow sends one 600 B packet per second (phase
	// spread across the swarm), the solo flow sends the same aggregate
	// by itself.
	pktBytes := 600 * 1000 / nSwarm // keeps the swarm's offered load fixed as nSwarm shrinks under -quick
	for t := time.Duration(0); t < span; t += time.Second {
		for i, f := range swarm {
			f := f
			// Phase-spread the swarm across the WHOLE second: clumping it
			// into the first nSwarm ms would turn identical offered load
			// into a burst the quota (fairly) refuses more of.
			at := t + time.Duration(i*1000/nSwarm)*time.Millisecond
			d.Sim().At(at, func() { f.Send(make([]byte, pktBytes)) })
		}
	}
	worlds.CBR(d, solo, 600, time.Millisecond, 0, span)
	d.Run(span + 5*time.Second)

	s := d.Snapshot()
	if len(s.Tenants) != 2 {
		return fmt.Errorf("tenancy: snapshot carries %d tenants, want 2", len(s.Tenants))
	}
	admitted := func(ts telemetry.TenantSnapshot) uint64 {
		return ts.SentBytes - ts.QuotaDroppedBytes
	}
	sw, so := s.Tenants[0], s.Tenants[1]
	if sw.QuotaDropped == 0 || so.QuotaDropped == 0 {
		return fmt.Errorf("tenancy: a tenant never hit its quota (swarm %d, solo %d drops)",
			sw.QuotaDropped, so.QuotaDropped)
	}
	fig.AddNote("quota parity: swarm (%d flows) admitted %d kB of %d kB offered at $%.4f/GB; solo (1 flow) admitted %d kB of %d kB at $%.4f/GB — same %d kB/s contract binds both",
		sw.Flows, admitted(sw)/1000, sw.SentBytes/1000, sw.CostPerGB,
		admitted(so)/1000, so.SentBytes/1000, so.CostPerGB, quota/1000)
	for _, f := range swarm {
		f.Close()
	}
	solo.Close()
	return nil
}

// runSingleCut (part b): two contracted sibling flows share one tenant
// and one Hot bottleneck; the trace shows per-flow signal fan-out but
// exactly ONE tenant pacer cut per delivered signal.
func runSingleCut(o Options, fig *stats.Figure) error {
	span := 3 * time.Second
	if o.Quick {
		span = 2 * time.Second
	}
	cfg := worlds.ContendedConfig()
	cfg.UpgradeInterval = 0
	cfg.Scheduler.LowWatermark = 0.125
	cfg.Scheduler.HighWatermark = 0.5
	cfg.Feedback.Enabled = true
	d, dc1, dc2 := worlds.Bottleneck(o.Seed, cfg)

	// The aggregate quota (1.3 MB/s) admits everything the members'
	// individually-honorable 600 kB/s contracts pass — until the Hot
	// signal cuts the TENANT pacer and the pair backs off as one.
	if err := d.RegisterTenant(jqos.TenantContract{
		ID: 1, Name: "pair", Rate: 1_300_000, Burst: 32 << 10,
	}); err != nil {
		return err
	}
	var flows []*jqos.Flow
	for i := 0; i < 2; i++ {
		gs, gd := worlds.HostPair(d, dc1, dc2)
		f, err := d.RegisterFlow(jqos.FlowSpec{
			Src: gs, Dst: gd, Budget: 500 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Rate: 600_000, Burst: 16 << 10,
			Tenant: 1,
		})
		if err != nil {
			return err
		}
		flows = append(flows, f)
	}
	for _, f := range flows {
		worlds.CBR(d, f, 1000, time.Millisecond, 0, span)
	}
	d.Run(span + 8*time.Second)

	// The per-(tenant, instant) cut count must be exactly one even
	// though both members heard the same signal.
	perInstant := map[time.Duration]int{}
	var signalEvents int
	for _, e := range d.TraceEvents() {
		switch e.Kind {
		case telemetry.KindTenantPacerCut:
			perInstant[e.At]++
		case telemetry.KindCongestionSignal:
			signalEvents++
		}
	}
	for at, n := range perInstant {
		if n > 1 {
			return fmt.Errorf("tenancy: %d tenant pacer cuts at %v — want one per tenant per signal", n, at)
		}
	}
	fb := d.Snapshot().Feedback
	if fb.TenantCuts == 0 {
		return fmt.Errorf("tenancy: shared Hot bottleneck never cut the tenant pacer")
	}
	fig.AddNote("per-tenant backoff: %d congestion signals fanned out to %d member-flow deliveries but %d tenant pacer cuts — one per signal, never one per member (per-flow cuts: %d, recoveries: %d+%d)",
		fb.Transitions, signalEvents, fb.TenantCuts, fb.RateCuts, fb.RateRecoveries, fb.TenantRecoveries)
	for _, f := range flows {
		f.Close()
	}
	return nil
}

// runSubqueueIsolation (part c): one tenant, one class, two flows — a
// saturating bulk flow and a 40 kB/s interactive flow. Run twice, with
// and without per-flow sub-queues; only the nested DRR keeps the
// interactive budget while the sibling fills the class queue.
func runSubqueueIsolation(o Options, fig *stats.Figure) error {
	span := 4 * time.Second
	if o.Quick {
		span = 2 * time.Second
	}
	const budget = 80 * time.Millisecond

	type outcome struct {
		latency stats.Series
		tenant  telemetry.TenantSnapshot
		sent    uint64
		onTime  uint64
		worst   time.Duration
		victims uint64
	}
	run := func(name string, perFlow bool) (outcome, error) {
		var out outcome
		cfg := worlds.ContendedConfig()
		cfg.UpgradeInterval = 0
		cfg.Scheduler.PerFlowQueues = perFlow
		d, dc1, dc2 := worlds.Bottleneck(o.Seed, cfg)

		// One tenant, unmetered: the contention here is INSIDE the
		// tenant's own class share, where only the scheduler can help.
		if err := d.RegisterTenant(jqos.TenantContract{ID: 1, Name: "acme"}); err != nil {
			return out, err
		}
		bs, bd := worlds.HostPair(d, dc1, dc2)
		bulk, err := d.RegisterFlow(jqos.FlowSpec{
			Src: bs, Dst: bd, Budget: 2 * time.Second,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Tenant: 1,
		})
		if err != nil {
			return out, err
		}
		is, id := worlds.HostPair(d, dc1, dc2)
		inter, err := d.RegisterFlow(jqos.FlowSpec{
			Src: is, Dst: id, Budget: budget,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Tenant: 1,
		})
		if err != nil {
			return out, err
		}

		rec := worlds.Record(d, id, span, 200*time.Millisecond)
		worlds.CBR(d, bulk, 1100, time.Millisecond, 0, span)
		worlds.CBR(d, inter, 200, 5*time.Millisecond, 0, span)
		d.Run(span + 8*time.Second)

		m := inter.Metrics()
		out.sent, out.onTime = m.Sent, m.OnTime
		s := d.Snapshot()
		if st, ok := s.Queue(dc1, dc2); ok {
			out.victims = st.PerClass[jqos.ServiceForwarding].VictimDrops
		}
		if len(s.Tenants) == 1 {
			out.tenant = s.Tenants[0]
		}
		out.worst, out.latency = rec.Worst, rec.Series(name)
		if perFlow {
			if err := o.saveSnapshot("tenancy", d); err != nil {
				return out, err
			}
		}
		bulk.Close()
		inter.Close()
		return out, nil
	}

	on, err := run("interactive latency, per-flow sub-queues (ms)", true)
	if err != nil {
		return err
	}
	off, err := run("interactive latency, single class FIFO (ms)", false)
	if err != nil {
		return err
	}
	fig.AddSeries(on.latency)
	fig.AddSeries(off.latency)
	fig.AddNote("sub-queue isolation: tenant 'acme' runs bulk ~1.1 MB/s + interactive 40 kB/s in one forwarding class (budget %v)", budget)
	fig.AddNote("  sub-queues ON:  interactive %d/%d on time (worst %.1f ms); %d victim-evicted packets came from the fat sibling's tail; tenant rollup %d/%d delivered",
		on.onTime, on.sent, float64(on.worst)/float64(time.Millisecond), on.victims,
		on.tenant.Delivered, on.tenant.Sent)
	fig.AddNote("  sub-queues OFF: interactive %d/%d on time (worst %.1f ms) — the shared FIFO's backlog ate the budget",
		off.onTime, off.sent, float64(off.worst)/float64(time.Millisecond))
	return nil
}
