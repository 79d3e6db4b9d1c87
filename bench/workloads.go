package main

import (
	"fmt"
	"time"

	"jqos"
)

// A workload is one fixed-seed world plus its traffic. build runs inside
// the set-up: it creates the deployment, registers tenants and the initial
// flows, and may install a per-tick hook (faults, churn, snapshots). It
// uses the root package's non-deprecated API only; see README.md.
type workload struct {
	name string
	why  string
	// warmup and round are the simulated lengths at -seconds 15.
	warmup, round time.Duration
	// exact marks the worlds on which the system is bit-reproducible for a
	// seed. On the other two it is not quite: simultaneous messages are
	// put on jittery or lossy inter-DC links in Go map order, so two runs
	// of one seed differ in about one packet per 10⁵ (see README.md).
	exact bool
	build func(r *runner)
}

const ms = time.Millisecond

var workloads = []*workload{
	{
		name:   "coding_small",
		why:    "8 coding flows of 64 B packets on a lossy 2-DC path: per-packet seams (event heap, send path, encoder and recoverer bookkeeping) dominate, byte work is nil",
		warmup: 5 * time.Second, round: 10 * time.Second, exact: true,
		build: func(r *runner) { buildPair(r, jqos.ServiceCoding, 8, 64, 2*ms, 0.01, 3) },
	},
	{
		name:   "coding_mtu",
		why:    "the same coding world at 1400 B: byte-proportional work (Reed-Solomon multiply, payload copies) that coding_small leaves idle",
		warmup: 5 * time.Second, round: 10 * time.Second, exact: true,
		build: func(r *runner) { buildPair(r, jqos.ServiceCoding, 8, 1400, 2*ms, 0.01, 3) },
	},
	{
		name:   "caching_bursty",
		why:    "16 caching flows under 3 % bursty loss: every packet a cache put, every loss a pull, TTL expiry running; the coding path is idle",
		warmup: 5 * time.Second, round: 25 * time.Second, exact: true,
		build: func(r *runner) { buildPair(r, jqos.ServiceCaching, 16, 512, 1*ms, 0.03, 8) },
	},
	{
		name:   "mesh_faults",
		why:    "4-DC scheduled, tenanted, congestion-controlled mesh under a repeating fault cycle: every control loop at once, QoS outcomes while the network misbehaves",
		warmup: meshCycle, round: 7 * meshCycle,
		build: buildMesh,
	},
	{
		name:   "flow_churn",
		why:    "128 budget-selected flows on a 6-DC overlay, one closing and one registering every 20 ms, periodic snapshots: control and telemetry read paths, leaked per-flow state",
		warmup: 5 * time.Second, round: 7 * time.Second,
		build: buildChurn,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildPair is the 2-DC world of the coding and caching workloads: one
// 40 ms inter-DC link, n host pairs each with its own lossy direct path
// and one flow fixed to svc.
func buildPair(r *runner, svc jqos.Service, n, size int, interval time.Duration, loss, burst float64) {
	d := jqos.NewDeploymentWithConfig(r.seed, jqos.DefaultConfig())
	r.d = d
	reg := regions()
	a := d.AddDC("dc-a", reg[0])
	b := d.AddDC("dc-b", reg[2])
	r.dcs = []jqos.NodeID{a, b}
	d.ConnectDCs(a, b, 40*ms)
	for i := 0; i < n; i++ {
		src := d.AddHost(a, 5*ms)
		dst := d.AddHost(b, 8*ms)
		r.hosts = append(r.hosts, src, dst)
		directPath(d, src, dst, 50*ms, 2*ms, loss, burst)
		r.register(jqos.FlowSpec{
			Src: src, Dst: dst, Budget: 200 * ms,
			Service: svc, ServiceFixed: true,
		}, size, interval, time.Duration(i)*ms%interval)
	}
}

const meshCycle = 8 * time.Second

// buildMesh is the benchmark's own copy of the canonical 4-DC world (it
// deliberately does not call chaos.BuildWorld, so edits to the chaos
// harness cannot change this workload).
func buildMesh(r *runner) {
	cfg := jqos.DefaultConfig()
	cfg.LinkCapacity = 1_000_000
	cfg.Scheduler = jqos.SchedulerConfig{
		Weights: map[jqos.Service]int{
			jqos.ServiceForwarding: 8,
			jqos.ServiceCaching:    1,
		},
		QueueBytes:    32 << 10,
		LowWatermark:  0.125,
		HighWatermark: 0.5,
		PerFlowQueues: true,
	}
	cfg.Feedback.Enabled = true
	cfg.UpgradeInterval = time.Second
	cfg.Telemetry.SLO = jqos.SLOConfig{
		Objective:    0.9,
		FastWindow:   500 * ms,
		SlowWindow:   2 * time.Second,
		AtRiskBurn:   2,
		ViolatedBurn: 4,
		MinSamples:   20,
		ClearHold:    500 * ms,
	}
	d := jqos.NewDeploymentWithConfig(r.seed, cfg)
	r.d = d
	reg := regions()
	a := d.AddDC("dc-a", reg[0])
	b := d.AddDC("dc-b", reg[1])
	c := d.AddDC("dc-c", reg[2])
	e := d.AddDC("dc-d", reg[4])
	r.dcs = []jqos.NodeID{a, b, c, e}
	d.ConnectDCs(a, b, 30*ms)
	d.ConnectDCs(b, c, 30*ms)
	d.ConnectDCs(a, c, 70*ms)
	d.ConnectDCs(c, e, 20*ms)
	d.ConnectDCs(a, e, 90*ms)

	const tenantPair, tenantSolo = jqos.TenantID(1), jqos.TenantID(2)
	for _, tc := range []jqos.TenantContract{
		{ID: tenantPair, Name: "greedy-pair", Rate: 800_000, Burst: 32 << 10},
		{ID: tenantSolo, Name: "interactive-solo", Rate: 400_000, Burst: 32 << 10, CostCeilingPerGB: 1000},
	} {
		if err := d.RegisterTenant(tc); err != nil {
			panic(fmt.Sprintf("mesh_faults: RegisterTenant: %v", err))
		}
	}
	pair := func(at, to jqos.NodeID, direct time.Duration) (jqos.NodeID, jqos.NodeID) {
		src := d.AddHost(at, 5*ms)
		dst := d.AddHost(to, 8*ms)
		r.hosts = append(r.hosts, src, dst)
		if direct > 0 {
			directPath(d, src, dst, direct, 2*ms, 0.01, 3)
		}
		return src, dst
	}
	// Interactive contracted flow, hop-traced at 5 %.
	src, dst := pair(a, c, 60*ms)
	r.register(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 150 * ms,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Rate: 200_000, Burst: 16 << 10, Tenant: tenantSolo, TraceSampling: 0.05,
	}, 400, 4*ms, 0)
	// Two greedy flows, each offering 770 kB/s against a 500 kB/s contract
	// and a shared 800 kB/s tenant quota.
	for i := 0; i < 2; i++ {
		src, dst = pair(a, c, 60*ms)
		r.register(jqos.FlowSpec{
			Src: src, Dst: dst, Budget: 500 * ms,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Rate: 500_000, Burst: 16 << 10, Tenant: tenantPair,
		}, 1500, 2*ms, time.Duration(i)*ms)
	}
	// Adaptive flow: no contract, no fixed service.
	src, dst = pair(a, c, 60*ms)
	r.register(jqos.FlowSpec{Src: src, Dst: dst, Budget: 250 * ms}, 500, 10*ms, 3*ms)
	// Cheapest-pinned flow on the a-d spur, returning to it after a heal.
	src, dst = pair(a, e, 80*ms)
	r.register(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 400 * ms,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Path: jqos.PathPolicy{Kind: jqos.PathCheapest}, RepinOnHeal: true,
	}, 500, 5*ms, 2*ms)
	// Overlay-only flow: path-switched forwarding with no direct path to
	// escape to, so its delivery gap is the failover blackout.
	src, dst = pair(a, c, 0)
	r.register(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 150 * ms,
		Service: jqos.ServiceForwarding, ServiceFixed: true, PathSwitch: true,
	}, 200, 10*ms, 7*ms)

	type step struct {
		at  time.Duration
		act func()
	}
	down := func(x, y jqos.NodeID) func() {
		return func() {
			d.Link(x, y).Disconnect()
			r.faultWatch = append(r.faultWatch, faultWatch{x, y, d.Now()})
		}
	}
	up := func(x, y jqos.NodeID) func() {
		return func() {
			d.Link(x, y).Reconnect()
			for i, w := range r.faultWatch {
				if w.a == x && w.b == y {
					r.faultWatch = append(r.faultWatch[:i], r.faultWatch[i+1:]...)
					break
				}
			}
		}
	}
	both := func(f, g func()) func() { return func() { f(); g() } }
	cycle := []step{
		{0, func() { d.Link(a, b).Set(120*ms, 0.05) }},
		{1000 * ms, func() { d.Link(a, b).Reconnect() }},
		{1000 * ms, down(b, c)},
		{2000 * ms, up(b, c)},
		{2000 * ms, down(a, e)}, {2300 * ms, up(a, e)},
		{2600 * ms, down(a, e)}, {2900 * ms, up(a, e)},
		{3200 * ms, down(a, e)}, {3500 * ms, up(a, e)},
		{3800 * ms, down(a, e)}, {4100 * ms, up(a, e)},
		{4500 * ms, both(down(a, b), down(b, c))},
		{5500 * ms, both(up(a, b), up(b, c))},
	}
	r.heal = func() {
		for _, l := range [][2]jqos.NodeID{{a, b}, {b, c}, {a, c}, {c, e}, {a, e}} {
			d.Link(l[0], l[1]).Reconnect()
		}
	}
	r.hook = func(now time.Duration) {
		phase := now % meshCycle
		for _, s := range cycle {
			if s.at == phase {
				s.act()
			}
		}
		// Failure detection as an operator would see it: time from the
		// cut until the monitor stops reporting the link healthy.
		for i := 0; i < len(r.faultWatch); {
			w := r.faultWatch[i]
			if linkLeftUp(d, w.a, w.b) {
				r.detectMs = append(r.detectMs, float64(now-w.since)/float64(ms))
				r.faultWatch = append(r.faultWatch[:i], r.faultWatch[i+1:]...)
				continue
			}
			i++
		}
		if now%time.Second == 0 {
			r.snapshot() // a 1 Hz scrape, which also samples queue depth
		}
	}
}

const (
	churnFlows  = 128
	churnPairs  = 64
	churnEvery  = 20 * ms
	churnLinger = 500 * ms // a flow stops sending this long before it closes
	churnLife   = churnFlows * churnEvery
)

// buildChurn is a 6-DC ring with two chords and a sliding population of
// short-lived, budget-selected flows.
func buildChurn(r *runner) {
	d := jqos.NewDeploymentWithConfig(r.seed, jqos.DefaultConfig())
	r.d = d
	reg := regions()
	n := len(reg)
	const inf = time.Hour
	lat := make([][]time.Duration, n)
	for i := range lat {
		lat[i] = make([]time.Duration, n)
		for j := range lat[i] {
			if i != j {
				lat[i][j] = inf
			}
		}
	}
	for i, rg := range reg {
		r.dcs = append(r.dcs, d.AddDC(fmt.Sprintf("dc-%d", i), rg))
	}
	connect := func(i, j int, x time.Duration) {
		d.ConnectDCs(r.dcs[i], r.dcs[j], x)
		lat[i][j], lat[j][i] = x, x
	}
	ring := []time.Duration{35 * ms, 45 * ms, 15 * ms, 60 * ms, 50 * ms, 70 * ms}
	for i := 0; i < n; i++ {
		connect(i, (i+1)%n, ring[i])
	}
	connect(0, 3, 55*ms)
	connect(1, 4, 65*ms)
	// Routed latency between DCs, computed on the driver's own copy of the
	// graph: it sets each pair's direct-path latency and flow budgets.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if via := lat[i][k] + lat[k][j]; via < lat[i][j] {
					lat[i][j] = via
				}
			}
		}
	}
	if err := d.RegisterTenant(jqos.TenantContract{ID: 1, Name: "churn", Rate: 4_000_000}); err != nil {
		panic(fmt.Sprintf("flow_churn: RegisterTenant: %v", err))
	}
	type hostPair struct {
		src, dst jqos.NodeID
		routed   time.Duration
	}
	pairs := make([]hostPair, churnPairs)
	for p := range pairs {
		// Pairs cover the DC pairs evenly, the same way for every seed.
		i := p % n
		j := (i + 1 + p/n%(n-1)) % n
		src := d.AddHost(r.dcs[i], 5*ms)
		dst := d.AddHost(r.dcs[j], 8*ms)
		r.hosts = append(r.hosts, src, dst)
		directPath(d, src, dst, lat[i][j]+10*ms, 2*ms, 0.01, 3)
		pairs[p] = hostPair{src, dst, lat[i][j]}
	}
	// Budget slack over the routed latency picks the service: forwarding
	// predicts routed+13 ms, caching +26 ms, coding about +39 ms.
	slack := []time.Duration{80 * ms, 32 * ms, 20 * ms}
	var born uint64
	spawn := func() {
		// Pairs and budget classes rotate, so the world and its service mix
		// (and with them the cost of a run) are the same for every seed;
		// the seed staggers the sends and drives every loss and jitter draw.
		p := pairs[born%churnPairs]
		spec := jqos.FlowSpec{Src: p.src, Dst: p.dst, Budget: p.routed + slack[born%uint64(len(slack))]}
		if born%4 == 3 {
			spec.Path = jqos.PathPolicy{Kind: jqos.PathCheapest}
		}
		if born%8 == 7 {
			spec.Tenant, spec.Rate = 1, 64<<10
		}
		born++
		fs := r.register(spec, 200, 20*ms, time.Duration(r.rng.Intn(20))*ms)
		fs.stopAt = r.d.Now() + churnLife - churnLinger
	}
	// The initial population is born already aged, so closes start at once
	// and the population is stationary from the first tick.
	for i := 0; i < churnFlows; i++ {
		spawn()
		fs := r.live[i]
		fs.stopAt -= time.Duration(churnFlows-1-i) * churnEvery
	}
	r.hook = func(now time.Duration) {
		if now%churnEvery == 0 {
			r.closeOldest()
			spawn()
		}
		if now%(200*ms) == 0 {
			r.snapshot()
		}
	}
}
