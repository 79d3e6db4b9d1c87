// Benchmarks, one per paper table/figure (regenerating each artifact in
// quick mode) plus end-to-end hot paths of the framework. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches measure how long regenerating an experiment takes;
// the framework benches measure packets/second through the full coding
// service on the emulator.
package jqos_test

import (
	"testing"
	"time"

	"jqos"
	"jqos/internal/dataset"
	"jqos/internal/experiments"
	"jqos/internal/netem"
	"jqos/internal/overlay"
)

// benchExperiment regenerates one experiment per iteration (quick mode).
func benchExperiment(b *testing.B, id string) {
	e, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Options{Seed: int64(i + 1), Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aFeasibility(b *testing.B)   { benchExperiment(b, "7a") }
func BenchmarkFig7bRecoveryDelay(b *testing.B) { benchExperiment(b, "7b") }
func BenchmarkFig7cDeltaCDF(b *testing.B)      { benchExperiment(b, "7c") }
func BenchmarkFig7dEras(b *testing.B)          { benchExperiment(b, "7d") }
func BenchmarkFig8aCRWAN(b *testing.B)         { benchExperiment(b, "8a") }
func BenchmarkFig8bEpisodes(b *testing.B)      { benchExperiment(b, "8b") }
func BenchmarkFig8cFECCompare(b *testing.B)    { benchExperiment(b, "8c") }
func BenchmarkFig8dRecoveryTime(b *testing.B)  { benchExperiment(b, "8d") }
func BenchmarkFig8eStragglers(b *testing.B)    { benchExperiment(b, "8e") }
func BenchmarkFig9aVideo(b *testing.B)         { benchExperiment(b, "9a") }
func BenchmarkFig9bTCP(b *testing.B)           { benchExperiment(b, "9b") }
func BenchmarkK20Overhead(b *testing.B)        { benchExperiment(b, "k20") }
func BenchmarkMobileFeasibility(b *testing.B)  { benchExperiment(b, "mobile") }

// BenchmarkCostModel prices a deployment per iteration (§6.6 table).
func BenchmarkCostModel(b *testing.B) {
	m := overlay.DefaultCostModel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fwd, cod := m.DeploymentCost(150, 1.0/16)
		if fwd < cod {
			b.Fatal("cost inversion")
		}
	}
}

// buildBenchWorld wires a 2-DC deployment with four coding flows.
func buildBenchWorld(b *testing.B, seed int64) (*jqos.Deployment, []*jqos.Flow) {
	b.Helper()
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d := jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	var flows []*jqos.Flow
	for i := 0; i < 4; i++ {
		src := d.AddHost(dc1, 5*time.Millisecond)
		dst := d.AddHost(dc2, 8*time.Millisecond)
		d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 0.01})
		f, err := d.RegisterFlow(fixedSpec(src, dst, time.Hour, jqos.ServiceCoding))
		if err != nil {
			b.Fatal(err)
		}
		flows = append(flows, f)
	}
	return d, flows
}

// BenchmarkEndToEndCodingService measures full-stack emulated throughput:
// send → duplicate → encode → (1% loss) → NACK → cooperative recovery →
// deliver, in packets per op. A warm-up of the same traffic first fills
// the receivers' windows and grows the engines' buffers, so even the gate's
// short runs measure the steady state.
func BenchmarkEndToEndCodingService(b *testing.B) {
	d, flows := buildBenchWorld(b, 1)
	payload := make([]byte, 512)
	send := func(n int) {
		for i := 0; i < n; i++ {
			at := d.Now() + time.Duration(i%5)*time.Millisecond
			f := flows[i%len(flows)]
			d.Sim().At(at, func() { f.Send(payload) })
			if i%256 == 255 {
				d.Run(300 * time.Millisecond)
			}
		}
		d.Run(5 * time.Second)
	}
	send(2048)
	b.ReportAllocs()
	b.ResetTimer()
	send(b.N)
}

// BenchmarkRegisterFlow measures flow registration + teardown — the
// churn path workloads of millions of short-lived flows pay: service
// selection, path resolution, contract sizing, and Close's cleanup.
func BenchmarkRegisterFlow(b *testing.B) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d := jqos.NewDeploymentWithConfig(5, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: 300 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// BenchmarkSnapshot measures building the unified telemetry snapshot of
// a live 2-DC, 4-flow deployment with traffic history.
func BenchmarkSnapshot(b *testing.B) {
	d, flows := buildBenchWorld(b, 6)
	payload := make([]byte, 512)
	for i := 0; i < 512; i++ {
		at := d.Now() + time.Duration(i%5)*time.Millisecond
		f := flows[i%len(flows)]
		d.Sim().At(at, func() { f.Send(payload) })
	}
	d.Run(2 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := d.Snapshot(); s.Totals.Sent == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkServiceSelection measures the §3.5 selection path.
func BenchmarkServiceSelection(b *testing.B) {
	d, flows := buildBenchWorld(b, 3)
	topo := d.Topology()
	spec := flows[0].Spec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, ok := topo.SelectService(spec.Src, spec.Dst, 300*time.Millisecond, true)
		if !ok {
			b.Fatal("selection failed")
		}
	}
}
