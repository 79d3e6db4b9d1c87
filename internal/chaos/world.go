package chaos

import (
	"fmt"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/worlds"
)

// World is the canonical chaos deployment: a 4-DC overlay with alternate
// paths, a saturable scheduler+feedback data plane, and a flow mix that
// exercises every control loop — two contracted forwarding flows that
// together oversubscribe their class share (AIMD pacing), an adaptive
// flow (service moves), an interactive contracted flow (budget
// pressure), and a cheapest-pinned RepinOnHeal flow (pin failover and
// heal-repin). Fuzz scripts faults against its links; the invariants
// are checked after the timeline heals.
type World struct {
	D *jqos.Deployment
	// DCs are the four DC node IDs in creation order:
	// [0]=ingress, [1]=relay, [2]=egress, [3]=spur.
	DCs []core.NodeID
	// Links are the five inter-DC pairs in connection order.
	Links [][2]core.NodeID
	// Flows in registration order (interactive, greedy ×2, adaptive,
	// pinned).
	Flows []*jqos.Flow
	// Tenants are the two registered contracts: [0] owns the greedy
	// pair under a shared quota that binds (their combined contracts
	// oversubscribe it), [1] owns the interactive flow under an ample
	// quota and a generous cost ceiling (the budget loop runs without
	// firing).
	Tenants []core.TenantID

	horizonScheduled time.Duration
}

// worldSLO is the canonical world's SLO configuration. The runner's
// during-fault invariant derives its settle time from these windows, so
// they live here, next to the deployment they configure.
var worldSLO = jqos.SLOConfig{
	Objective:    0.9,
	FastWindow:   500 * time.Millisecond,
	SlowWindow:   2 * time.Second,
	AtRiskBurn:   2,
	ViolatedBurn: 4,
	MinSamples:   20,
	ClearHold:    500 * time.Millisecond,
}

// BuildWorld constructs the canonical world from one seed. Same seed →
// identical deployment (the simulator drives every random process).
func BuildWorld(seed int64) (*World, error) {
	// 1 MB/s accounting + serialization per link, 8:1 class weights.
	cfg := worlds.ContendedConfig()
	cfg.Scheduler.QueueBytes = 32 << 10
	// A shallow watermark band keeps Hot/cool transitions frequent —
	// more pacer cuts and recoveries per run for the invariants to
	// bite on.
	cfg.Scheduler.LowWatermark = 0.125
	cfg.Scheduler.HighWatermark = 0.5
	cfg.Feedback.Enabled = true
	// Faster adaptation than the production default so an 8-second
	// fault window sees service moves, not just their absence.
	cfg.UpgradeInterval = time.Second
	// Continuous SLO engine, scaled to chaos horizons: windows short
	// enough that an 8-second timeline sees transitions, thresholds
	// standard SRE multi-window burn rates. Degrade/recover totals must
	// reconcile with the trace ring (CheckAccounting) and the
	// interactive flow's state feeds the during-fault invariant.
	cfg.Telemetry.SLO = worldSLO
	d := jqos.NewDeploymentWithConfig(seed, cfg)

	w := &World{D: d}
	a := d.AddDC("dc-a", dataset.RegionUSEast)
	b := d.AddDC("dc-b", dataset.RegionUSWest)
	c := d.AddDC("dc-c", dataset.RegionEU)
	e := d.AddDC("dc-d", dataset.RegionAsia)
	w.DCs = []core.NodeID{a, b, c, e}

	connect := func(x, y core.NodeID, lat time.Duration) {
		worlds.ConnectPaced(d, x, y, lat, cfg.LinkCapacity)
		w.Links = append(w.Links, [2]core.NodeID{x, y})
	}
	// a→c has a fast 2-hop route (a-b-c, 60 ms) and a slow direct
	// 1-hop alternate (70 ms): failures on either leg reroute. The spur
	// DC d hangs off two paths as well (c-d and the long a-d).
	connect(a, b, 30*time.Millisecond)
	connect(b, c, 30*time.Millisecond)
	connect(a, c, 70*time.Millisecond)
	connect(c, e, 20*time.Millisecond)
	connect(a, e, 90*time.Millisecond)

	addPair := func(atSrc, atDst core.NodeID, direct time.Duration) (core.NodeID, core.NodeID) {
		src, dst := worlds.HostPair(d, atSrc, atDst)
		d.SetDirectPath(src, dst,
			netem.UniformJitter{Base: direct, Jitter: 2 * time.Millisecond},
			netem.NewGilbertElliott(0.01, 3))
		return src, dst
	}

	register := func(spec jqos.FlowSpec) error {
		f, err := d.RegisterFlow(spec)
		if err != nil {
			return err
		}
		w.Flows = append(w.Flows, f)
		return nil
	}

	// Two tenants so the per-tenant accounting rollups have something to
	// balance: the greedy pair shares one binding quota (800 kB/s under
	// their 1 MB/s combined contracts — standing tenant quota drops, and
	// Hot signals cut their aggregate pacer once per signal), while the
	// interactive flow's tenant never binds (ample quota, generous cost
	// ceiling — the budget loop runs every UpgradeInterval but never
	// fires). The adaptive and pinned flows stay untenanted, so the
	// rollup-balance invariant covers the mixed case.
	const tenantPair, tenantSolo = core.TenantID(1), core.TenantID(2)
	if err := d.RegisterTenant(jqos.TenantContract{
		ID: tenantPair, Name: "greedy-pair", Rate: 800_000, Burst: 32 << 10,
	}); err != nil {
		return nil, err
	}
	if err := d.RegisterTenant(jqos.TenantContract{
		ID: tenantSolo, Name: "interactive-solo", Rate: 400_000, Burst: 32 << 10,
		CostCeilingPerGB: 1000,
	}); err != nil {
		return nil, err
	}
	w.Tenants = []core.TenantID{tenantPair, tenantSolo}

	// Interactive contracted flow a→c: tight budget, modest contract.
	// Trace sampling on: chaos soaks double as attribution coverage —
	// the span collector's pending table churns under drops, reroutes,
	// and recovery while the invariants watch the books balance.
	is, id := addPair(a, c, 60*time.Millisecond)
	if err := register(jqos.FlowSpec{
		Src: is, Dst: id, Budget: 150 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Rate: 200_000, Burst: 16 << 10,
		Tenant:        tenantSolo,
		TraceSampling: 0.05,
	}); err != nil {
		return nil, err
	}
	// Two greedy contracted flows a→c. Each 500 kB/s contract fits the
	// forwarding class's share (8/9 of 1 MB/s) individually; together
	// with the interactive flow they oversubscribe it, so the shared
	// class queue runs Hot and the AIMD pacers work all run long.
	for i := 0; i < 2; i++ {
		gs, gd := addPair(a, c, 60*time.Millisecond)
		if err := register(jqos.FlowSpec{
			Src: gs, Dst: gd, Budget: 500 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Rate: 500_000, Burst: 16 << 10,
			Tenant: tenantPair,
		}); err != nil {
			return nil, err
		}
	}
	// Adaptive flow a→c: no contract, no fixed service — moves tiers on
	// budget violations and preemptively on congestion signals.
	as, ad := addPair(a, c, 60*time.Millisecond)
	if err := register(jqos.FlowSpec{
		Src: as, Dst: ad, Budget: 250 * time.Millisecond,
	}); err != nil {
		return nil, err
	}
	// Cheapest-pinned RepinOnHeal flow a→d: prefers the 1-hop a-d spur
	// (fewest egress events); when chaos cuts it the flow fails over to
	// a-c-d and must return once the spur heals.
	ps, pd := addPair(a, e, 80*time.Millisecond)
	if err := register(jqos.FlowSpec{
		Src: ps, Dst: pd, Budget: 400 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Path:        jqos.PathPolicy{Kind: jqos.PathCheapest},
		RepinOnHeal: true,
	}); err != nil {
		return nil, err
	}
	return w, nil
}

// ScheduleTraffic queues every flow's constant-bitrate workload over
// [0, horizon): interactive 100 kB/s, greedy 750 kB/s each (above their
// 500 kB/s contracts — standing admission pressure), adaptive 50 kB/s,
// pinned 100 kB/s. Call once, before running.
func (w *World) ScheduleTraffic(horizon time.Duration) {
	if w.horizonScheduled != 0 {
		panic(fmt.Sprintf("chaos: traffic already scheduled to %v", w.horizonScheduled))
	}
	w.horizonScheduled = horizon
	cbr := func(f *jqos.Flow, size int, every time.Duration) { worlds.CBR(w.D, f, size, every, 0, horizon) }
	cbr(w.Flows[0], 400, 4*time.Millisecond)  // interactive
	cbr(w.Flows[1], 1500, 2*time.Millisecond) // greedy #1
	cbr(w.Flows[2], 1500, 2*time.Millisecond) // greedy #2
	cbr(w.Flows[3], 500, 10*time.Millisecond) // adaptive
	cbr(w.Flows[4], 500, 5*time.Millisecond)  // pinned
}
