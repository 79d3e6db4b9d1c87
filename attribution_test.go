package jqos_test

import (
	"slices"
	"testing"
	"time"

	"jqos"
	"jqos/internal/dataset"
	"jqos/internal/telemetry"
)

// buildBottleneck wires the attribution acceptance scenario: one
// saturated inter-DC link whose forwarding-class DRR queue is the only
// meaningful delay source — short propagation (5 ms inter-DC, 1 ms
// access), a deep queue (256 KiB ≈ 256 ms at 1 MB/s), no feedback to
// relieve it — plus a fully-sampled probe flow whose budget clears the
// unqueued path with room to spare.
func buildBottleneck(t *testing.T, seed int64) (d *jqos.Deployment, dc1, dc2 jqos.NodeID, greedy []*jqos.Flow, probe *jqos.Flow) {
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
		QueueBytes: 256 << 10,
	}
	d = jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 = d.AddDC("a", dataset.RegionUSEast)
	dc2 = d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 5*time.Millisecond)
	d.Network().LinkBetween(dc1, dc2).Rate = capacity
	d.Network().LinkBetween(dc2, dc1).Rate = capacity
	for i := 0; i < 2; i++ {
		gs := d.AddHost(dc1, time.Millisecond)
		gd := d.AddHost(dc2, time.Millisecond)
		gf, err := d.RegisterFlow(jqos.FlowSpec{
			Src: gs, Dst: gd, Budget: 2 * time.Second,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		greedy = append(greedy, gf)
	}
	ps := d.AddHost(dc1, time.Millisecond)
	pd := d.AddHost(dc2, time.Millisecond)
	var err error
	probe, err = d.RegisterFlow(jqos.FlowSpec{
		Src: ps, Dst: pd, Budget: 30 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		TraceSampling: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, dc1, dc2, greedy, probe
}

// queueSpend finds the queue-wait aggregate of one directed class queue.
func queueSpend(a *telemetry.AttributionSnapshot, from, to jqos.NodeID, class jqos.Service) (telemetry.QueueSpendSnapshot, bool) {
	for _, q := range a.Queues {
		if q.Key == (telemetry.QueueKey{From: from, To: to, Class: class}) {
			return q, true
		}
	}
	return telemetry.QueueSpendSnapshot{}, false
}

// TestAttributionPinsBottleneckQueue is the attribution acceptance
// test: with one known induced bottleneck (the saturated dc1→dc2
// forwarding DRR queue), the probe flow's budget spend profile must
// attribute ≥ 80% of its late deliveries' excess latency to the
// queue-wait component, and the per-(link, class) aggregate must point
// at exactly that queue.
func TestAttributionPinsBottleneckQueue(t *testing.T) {
	d, dc1, dc2, greedy, probe := buildBottleneck(t, 21)
	span := 2 * time.Second
	for i := 0; i < int(span/time.Millisecond); i++ {
		at := time.Duration(i) * time.Millisecond
		d.Sim().At(at, func() {
			greedy[0].Send(make([]byte, 1000))
			greedy[1].Send(make([]byte, 1000))
		})
		if i%5 == 0 {
			d.Sim().At(at, func() { probe.Send(make([]byte, 200)) })
		}
	}
	d.Run(span + 8*time.Second)
	s := d.Snapshot()

	a := &s.Attribution
	if !a.Enabled {
		t.Fatal("attribution disabled with a sampling flow open")
	}
	if a.Traced == 0 || a.Finished == 0 {
		t.Fatalf("no traces completed: %+v", a)
	}
	fp, ok := a.Flow(probe.ID())
	if !ok {
		t.Fatal("probe flow has no spend profile")
	}
	prof := fp.Profile
	if prof.Late < 20 {
		t.Fatalf("scenario produced only %d late sampled deliveries (of %d)", prof.Late, prof.Samples)
	}
	if prof.LateExcessNs <= 0 {
		t.Fatalf("late excess = %d", prof.LateExcessNs)
	}

	// ≥ 80% of the excess beyond budget is queue wait.
	if got := float64(prof.LateNs[telemetry.SpanQueue]) / float64(prof.LateExcessNs); got < 0.8 {
		t.Errorf("queue wait %.0f%% of late excess, want ≥ 80%% (late comp: %v)",
			got*100, prof.LateNs)
	}
	// ...and of the total late-delivery spend, queue wait dominates too.
	var lateSpend int64
	for _, ns := range prof.LateNs {
		lateSpend += ns
	}
	if got := float64(prof.LateNs[telemetry.SpanQueue]) / float64(lateSpend); got < 0.8 {
		t.Errorf("queue share of late spend = %.0f%%, want ≥ 80%%", got*100)
	}

	// The per-(link, class) aggregate names the induced bottleneck.
	qs, ok := queueSpend(a, dc1, dc2, jqos.ServiceForwarding)
	if !ok {
		t.Fatal("no queue-wait aggregate for the bottleneck queue")
	}
	if qs.Spend.Samples == 0 || qs.Spend.LateWaitNs == 0 {
		t.Fatalf("bottleneck aggregate empty: %+v", qs.Spend)
	}
	// The reverse direction carried no sampled data traffic.
	if rev, ok := queueSpend(a, dc2, dc1, jqos.ServiceForwarding); ok && rev.Spend.WaitNs >= qs.Spend.WaitNs {
		t.Errorf("reverse queue charged %d ns ≥ bottleneck %d ns", rev.Spend.WaitNs, qs.Spend.WaitNs)
	}

	// Component totals reconcile: for every finished sampled delivery the
	// components sum to Total, so the profile's per-component sums plus
	// nothing else must equal the summed totals — spot-check via the
	// late records in the reservoir.
	for _, rec := range a.Reservoir {
		if !rec.Sampled {
			continue
		}
		var sum time.Duration
		for _, c := range rec.Comp {
			sum += c
		}
		if sum != rec.Total {
			t.Fatalf("reservoir record %v/%d: components sum %v != total %v",
				rec.Flow, rec.Seq, sum, rec.Total)
		}
	}
}

// TestSLOEngineDegradeAndRecover drives a budgeted flow into sustained
// budget violation and back, asserting the SLO engine's full arc: Met →
// Violated while every delivery lands late, trace events reconciling
// with the snapshot counters, and recovery (after ClearHold) once the
// windows drain.
func TestSLOEngineDegradeAndRecover(t *testing.T) {
	const capacity = 1_000_000
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.LinkCapacity = capacity
	cfg.Telemetry.SLO = jqos.SLOConfig{
		Objective:  0.9,
		FastWindow: 200 * time.Millisecond,
		SlowWindow: 800 * time.Millisecond,
		ClearHold:  200 * time.Millisecond,
	}
	d := jqos.NewDeploymentWithConfig(31, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	// Budget 20ms against a ≥53ms path: every delivery misses.
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 20 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Tenant: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		d.Sim().At(at, func() { f.Send(make([]byte, 300)) })
	}
	d.Run(time.Second)
	s := d.Snapshot()

	if !s.SLO.Enabled {
		t.Fatal("SLO disabled despite config")
	}
	e, ok := s.SLO.Flow(f.ID())
	if !ok {
		t.Fatal("budgeted flow has no SLO tracker")
	}
	if e.State != telemetry.SLOViolated {
		t.Fatalf("flow state = %s under 100%% misses (burns %.2f/%.2f)", e.StateName, e.BurnFast, e.BurnSlow)
	}
	ci := slices.IndexFunc(s.SLO.Classes, func(e telemetry.SLOEntry) bool { return e.Class == jqos.ServiceForwarding })
	if ci < 0 || s.SLO.Classes[ci].State != telemetry.SLOViolated {
		t.Fatalf("class trackers = %+v", s.SLO.Classes)
	}
	if s.SLO.Degrades == 0 {
		t.Fatal("no degrade transitions counted")
	}
	if got := s.Trace.ByKind[telemetry.KindSLODegrade]; got != s.SLO.Degrades {
		t.Fatalf("trace degrades %d != snapshot %d", got, s.SLO.Degrades)
	}
	if got := s.Trace.ByKind[telemetry.KindSLORecover]; got != s.SLO.Recovers {
		t.Fatalf("trace recovers %d != snapshot %d", got, s.SLO.Recovers)
	}

	// Let both windows age out (traffic stopped at 1s), then give the
	// engine a sweep well past ClearHold: the tracker must step back to
	// Met and count the recovery.
	d.Run(5 * time.Second)
	s2 := d.Snapshot()
	e2, ok := s2.SLO.Flow(f.ID())
	if !ok {
		t.Fatal("tracker vanished")
	}
	if e2.State != telemetry.SLOMet {
		t.Fatalf("flow state = %s after windows drained", e2.StateName)
	}
	if s2.SLO.Recovers == 0 {
		t.Fatal("no recover transitions counted")
	}
	if got := s2.Trace.ByKind[telemetry.KindSLORecover]; got != s2.SLO.Recovers {
		t.Fatalf("trace recovers %d != snapshot %d", got, s2.SLO.Recovers)
	}
}

// TestSLOBlackholeSynthesis: a flow sending into a severed overlay
// delivers nothing — without synthetic misses its on-time window would
// stay empty and the tracker would read Met forever. The sweep must
// notice sends without deliveries past the grace period and drive the
// tracker to Violated.
func TestSLOBlackholeSynthesis(t *testing.T) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Telemetry.SLO = jqos.SLOConfig{
		Objective:  0.9,
		FastWindow: 200 * time.Millisecond,
		SlowWindow: 800 * time.Millisecond,
	}
	d := jqos.NewDeploymentWithConfig(41, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	f, err := d.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 100 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sever the only overlay link before any packet moves.
	d.Link(dc1, dc2).Disconnect()
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		d.Sim().At(at, func() { f.Send(make([]byte, 300)) })
	}
	// Snapshot mid-traffic: the windows must be holding synthetic misses
	// while the blackhole is live (they age out once sends stop).
	d.Run(1200 * time.Millisecond)
	s := d.Snapshot()

	var fs telemetry.FlowSnapshot
	ok := false
	for _, row := range s.Flows {
		if row.ID == f.ID() {
			fs, ok = row, true
			break
		}
	}
	if !ok || fs.Delivered != 0 || fs.Sent == 0 {
		t.Fatalf("blackhole leaked deliveries: %+v", fs)
	}
	e, ok := s.SLO.Flow(f.ID())
	if !ok {
		t.Fatal("no tracker for blackholed flow")
	}
	if e.State != telemetry.SLOViolated {
		t.Fatalf("blackholed flow state = %s (fast %d ok / %d miss)",
			e.StateName, e.FastOK, e.FastMiss)
	}
	if e.FastMiss == 0 && e.SlowMiss == 0 {
		t.Fatal("no synthetic misses recorded")
	}
}
