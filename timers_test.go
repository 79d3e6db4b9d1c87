package jqos_test

import (
	"math/rand"
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/wire"
)

// quietConfig turns every periodic loop off, so a table row can turn on
// exactly one (the load reporter is off while no link has a capacity).
func quietConfig() jqos.Config {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Monitor.ProbeInterval = 0
	return cfg
}

// TestParkingLoopsQuiesce: each periodic loop, enabled alone, must run
// while traffic flows and then park — the deployment drains to an empty
// event heap. A loop that never parks leaves its next round pending after
// any bounded run.
func TestParkingLoopsQuiesce(t *testing.T) {
	const period = 5 * time.Second
	loops := []struct {
		name   string
		enable func(*jqos.Config)
		tenant bool
	}{
		{name: "flow adaptation", enable: func(c *jqos.Config) { c.UpgradeInterval = period }},
		{name: "tenant cost", enable: func(c *jqos.Config) { c.UpgradeInterval = period }, tenant: true},
		{name: "load reporter", enable: func(c *jqos.Config) { c.LinkCapacity = 1_000_000 }},
		{name: "link prober", enable: func(c *jqos.Config) { c.Monitor.ProbeInterval = period }},
		{name: "slo sweeper", enable: func(c *jqos.Config) {
			c.Telemetry.SLO = jqos.SLOConfig{Objective: 0.99, FastWindow: 4 * period}
		}},
	}
	// world builds a two-DC deployment, registers one flow (inside a
	// cost-capped tenant when asked) and schedules one second of sends.
	world := func(t *testing.T, cfg jqos.Config, tenant bool) *jqos.Deployment {
		d := jqos.NewDeploymentWithConfig(7, cfg)
		dc1 := d.AddDC("a", dataset.RegionUSEast)
		dc2 := d.AddDC("b", dataset.RegionEU)
		d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
		src := d.AddHost(dc1, 5*time.Millisecond)
		dst := d.AddHost(dc2, 8*time.Millisecond)
		d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), nil)
		spec := jqos.FlowSpec{Src: src, Dst: dst, Budget: 300 * time.Millisecond}
		if tenant {
			if err := d.RegisterTenant(jqos.TenantContract{ID: 1, Name: "acme", CostCeilingPerGB: 1}); err != nil {
				t.Fatal(err)
			}
			spec.Tenant = 1
		}
		f, err := d.RegisterFlow(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			d.Sim().At(time.Duration(i)*10*time.Millisecond, func() { f.Send(make([]byte, 200)) })
		}
		return d
	}
	// With every loop off the same world runs base events; a row that
	// runs no more than that never ran its loop.
	off := world(t, quietConfig(), false)
	off.RunUntilQuiet()
	base := off.Sim().Steps()
	for _, lp := range loops {
		t.Run(lp.name, func(t *testing.T) {
			cfg := quietConfig()
			lp.enable(&cfg)
			d := world(t, cfg, lp.tenant)
			d.Run(10 * time.Minute)
			if n := d.Sim().Pending(); n != 0 {
				t.Fatalf("%d events still pending 10 minutes after traffic stopped: the loop never parked", n)
			}
			d.RunUntilQuiet()
			if n := d.Sim().Pending(); n != 0 {
				t.Fatalf("RunUntilQuiet left %d events pending", n)
			}
			if d.Sim().Steps() <= base {
				t.Fatalf("%d events ran, no more than with every loop off (%d): the loop never ran", d.Sim().Steps(), base)
			}
		})
	}
}

// dropRange is a loss model that drops the packets numbered from..to
// (1-based, in link arrival order) and nothing else.
type dropRange struct{ n, from, to int }

func (m *dropRange) Lose(core.Time, *rand.Rand) bool {
	m.n++
	return m.n >= m.from && m.n <= m.to
}

// TestSimultaneousHostTimersFireInFlowOrder: eight flows into one host
// lose the same packet in the same instant, so their eight small timers
// expire in the same nanosecond. The host must emit the NACKs — and so
// draw link jitter and loss for them — in ascending flow order, not in
// Go's per-range map order, or same-seed runs diverge.
func TestSimultaneousHostTimersFireInFlowOrder(t *testing.T) {
	const flows = 8
	for run := 0; run < 20; run++ {
		cfg := quietConfig()
		d := jqos.NewDeploymentWithConfig(int64(run), cfg)
		dc1 := d.AddDC("a", dataset.RegionUSEast)
		dc2 := d.AddDC("b", dataset.RegionEU)
		d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
		src := d.AddHost(dc1, 5*time.Millisecond)
		dst := d.AddHost(dc2, 8*time.Millisecond)
		// Jitter-free direct path; every flow's third packet is dropped.
		d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond),
			&dropRange{from: 2*flows + 1, to: 3 * flows})

		var nacks []jqos.FlowID
		var nackAt []time.Duration
		inner := d.Network().NodeHandler(dc2)
		d.Network().AddNode(dc2, func(from, to core.NodeID, data []byte) {
			if flow, typ, ok := wire.PeekFlow(data); ok && typ == wire.TypeNACK && from == dst {
				nacks = append(nacks, flow)
				nackAt = append(nackAt, d.Now())
			}
			inner(from, to, data)
		})

		var fs []*jqos.Flow
		for i := 0; i < flows; i++ {
			f, err := d.RegisterFlow(jqos.FlowSpec{
				Src: src, Dst: dst, Budget: 300 * time.Millisecond,
				Service: jqos.ServiceCoding, ServiceFixed: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, f)
		}
		for i := 0; i < 3; i++ {
			d.Sim().At(time.Duration(i)*5*time.Millisecond, func() {
				for _, f := range fs {
					f.Send([]byte("payload"))
				}
			})
		}
		d.RunUntilQuiet()

		if len(nacks) < flows {
			t.Fatalf("run %d: %d NACKs reached the DC, want ≥ %d", run, len(nacks), flows)
		}
		for i := 0; i < flows; i++ {
			if nackAt[i] != nackAt[0] {
				t.Fatalf("run %d: first NACKs arrived at %v — the timers did not coincide, test is vacuous", run, nackAt[:flows])
			}
			if nacks[i] != fs[i].ID() {
				t.Fatalf("run %d: NACK order %v, want ascending flow order", run, nacks[:flows])
			}
		}
	}
}
