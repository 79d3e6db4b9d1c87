package jqos_test

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"jqos"
	"jqos/internal/dataset"
	"jqos/internal/load"
	"jqos/internal/netem"
	"jqos/internal/telemetry"
)

// runTelemetryScenario drives the backpressure world (saturated link,
// DRR scheduler, feedback) — the scenario that exercises every trace
// kind the feedback and scheduling planes emit — and returns the final
// snapshot.
func runTelemetryScenario(t *testing.T, seed int64, withFeedback bool) (*jqos.Deployment, *telemetry.Snapshot) {
	t.Helper()
	d, _, _, greedy, inter := buildBackpressure(t, seed, withFeedback)
	loadBackpressure(d, greedy, inter, 2*time.Second)
	d.Run(10 * time.Second)
	return d, d.Snapshot()
}

// TestSnapshotRollupInvariants checks the snapshot's cross-surface
// accounting: per-class bytes sum to direction totals, flow sums match
// deployment totals, and the trace's per-kind lifetime counts agree
// with the independently maintained flow/feedback counters.
func TestSnapshotRollupInvariants(t *testing.T) {
	// Feedback ON exercises the pacing kinds; OFF leaves the class queue
	// tail-dropping, exercising the egress-drop kind.
	t.Run("feedback-on", func(t *testing.T) { checkRollupInvariants(t, true) })
	t.Run("feedback-off", func(t *testing.T) { checkRollupInvariants(t, false) })
}

func checkRollupInvariants(t *testing.T, withFeedback bool) {
	_, s := runTelemetryScenario(t, 71, withFeedback)

	if len(s.Links) == 0 || len(s.Queues) == 0 || len(s.Flows) != 3 {
		t.Fatalf("snapshot coverage: %d links, %d queues, %d flows",
			len(s.Links), len(s.Queues), len(s.Flows))
	}

	// Per-class bytes sum to each direction's total, and to the
	// deployment-wide link rollup.
	var linkBytes, classBytes uint64
	for _, l := range s.Links {
		for _, dir := range []load.DirLoad{l.AB, l.BA} {
			var sum uint64
			for _, n := range dir.ClassBytes {
				sum += n
			}
			if sum != dir.Bytes {
				t.Errorf("link %v↔%v: class bytes sum %d != direction bytes %d", l.A, l.B, sum, dir.Bytes)
			}
			linkBytes += dir.Bytes
		}
	}
	for _, n := range s.Totals.ClassBytes {
		classBytes += n
	}
	if linkBytes != s.Totals.LinkBytes || classBytes != s.Totals.LinkBytes {
		t.Errorf("totals: links %d, class sum %d, LinkBytes %d", linkBytes, classBytes, s.Totals.LinkBytes)
	}
	if s.Totals.LinkBytes == 0 {
		t.Error("no link bytes accounted")
	}

	// Flow sums match deployment totals.
	var sent, delivered, egressDropped, admissionDropped uint64
	for _, f := range s.Flows {
		sent += f.Sent
		delivered += f.Delivered
		egressDropped += f.EgressDropped
		admissionDropped += f.AdmissionDropped
	}
	if sent != s.Totals.Sent || delivered != s.Totals.Delivered ||
		egressDropped != s.Totals.EgressDropped || admissionDropped != s.Totals.AdmissionDropped {
		t.Errorf("flow sums (%d/%d/%d/%d) != totals (%d/%d/%d/%d)",
			sent, delivered, egressDropped, admissionDropped,
			s.Totals.Sent, s.Totals.Delivered, s.Totals.EgressDropped, s.Totals.AdmissionDropped)
	}

	// Trace per-kind lifetime counts agree with the counters the flows
	// and feedback plane maintain independently.
	fb := s.Feedback
	bk := s.Trace.ByKind
	if got := bk[telemetry.KindEgressDrop]; got != egressDropped {
		t.Errorf("trace egress-drops %d != flow metric sum %d", got, egressDropped)
	}
	if got := bk[telemetry.KindAdmissionDrop]; got != admissionDropped {
		t.Errorf("trace admission-drops %d != flow metric sum %d", got, admissionDropped)
	}
	if got := bk[telemetry.KindCongestionSignal]; got != fb.FlowSignals {
		t.Errorf("trace congestion-signals %d != Feedback.FlowSignals %d", got, fb.FlowSignals)
	}
	if got := bk[telemetry.KindPacerCut]; got != fb.RateCuts {
		t.Errorf("trace pacer-cuts %d != Feedback.RateCuts %d", got, fb.RateCuts)
	}
	if got := bk[telemetry.KindPacerRecover]; got != fb.RateRecoveries {
		t.Errorf("trace pacer-recovers %d != Feedback.RateRecoveries %d", got, fb.RateRecoveries)
	}
	// The scenario actually fires the interesting kinds: pacing with
	// feedback on, scheduler tail-drops without it.
	interesting := []telemetry.Kind{telemetry.KindEgressDrop}
	if withFeedback {
		interesting = []telemetry.Kind{telemetry.KindCongestionSignal, telemetry.KindPacerCut}
	}
	for _, k := range interesting {
		if bk[k] == 0 {
			t.Errorf("scenario recorded no %v events", k)
		}
	}

	// Delivery histogram saw every delivery.
	for _, h := range s.Histograms {
		if h.Name == "jqos_delivery_latency_ms" && h.Count != delivered {
			t.Errorf("latency histogram count %d != delivered %d", h.Count, delivered)
		}
	}
}

// TestSnapshotConcurrentWithTraffic reads the published snapshot and
// tails the trace from another goroutine while the simulation drives
// traffic and the periodic publisher runs — the race detector's view of
// the exposition read path. Every observed snapshot must satisfy the
// rollup invariant.
func TestSnapshotConcurrentWithTraffic(t *testing.T) {
	d, _, _, greedy, inter := buildBackpressure(t, 73, true)
	cfgNote := d.Snapshot() // publish one before the reader starts
	if cfgNote == nil {
		t.Fatal("nil snapshot")
	}
	loadBackpressure(d, greedy, inter, 2*time.Second)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads int
	wg.Add(1)
	go func() {
		defer wg.Done()
		var since uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := d.LatestSnapshot(); s != nil {
				reads++
				for _, l := range s.Links {
					var sum uint64
					for _, n := range l.AB.ClassBytes {
						sum += n
					}
					if sum != l.AB.Bytes {
						t.Errorf("concurrent read: class sum %d != bytes %d", sum, l.AB.Bytes)
						return
					}
				}
			}
			for _, e := range d.TraceSince(since, 64) {
				since = e.Seq
			}
		}
	}()

	d.Run(10 * time.Second)
	final := d.Snapshot()
	close(stop)
	wg.Wait()

	if reads == 0 {
		t.Fatal("reader never observed a snapshot")
	}
	if final.Totals.Delivered == 0 || final.Trace.Recorded == 0 {
		t.Fatalf("final snapshot empty: %+v", final.Totals)
	}
}

// TestTraceDeterminism runs the same seed twice and requires the full
// trace — simulated timestamps included — to be byte-identical (all
// timestamps come from the event simulator, never the wall clock).
func TestTraceDeterminism(t *testing.T) {
	marshal := func(seed int64) []byte {
		d, s := runTelemetryScenario(t, seed, true)
		if s.Trace.Recorded == 0 {
			t.Fatal("scenario recorded no trace events")
		}
		data, err := json.Marshal(d.TraceEvents())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(marshal(71), marshal(71)) {
		t.Fatal("same-seed traces differ")
	}
}

// TestSLOObjectiveWithoutBudgetPanics: an objective of 1 (or NaN) leaves
// no error budget, so every burn rate would be NaN or +Inf and the
// snapshot unencodable; the constructor refuses it.
func TestSLOObjectiveWithoutBudgetPanics(t *testing.T) {
	for _, obj := range []float64{1, 1.5, math.NaN()} {
		cfg := jqos.DefaultConfig()
		cfg.Telemetry.SLO = jqos.SLOConfig{Objective: obj}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Objective %v: NewDeploymentWithConfig did not panic", obj)
				}
			}()
			jqos.NewDeploymentWithConfig(1, cfg)
		}()
	}
}

// TestSnapshotMetricsAscending: the standing counters and histograms are
// listed in ascending name order, the order the exposition depends on.
func TestSnapshotMetricsAscending(t *testing.T) {
	_, s := runTelemetryScenario(t, 71, true)
	var counters, hists []string
	for _, c := range s.Counters {
		counters = append(counters, c.Name)
	}
	for _, h := range s.Histograms {
		hists = append(hists, h.Name)
	}
	if want := []string{"jqos_snapshots_built_total"}; !slices.Equal(counters, want) {
		t.Errorf("counters %v, want %v", counters, want)
	}
	want := []string{
		"jqos_delivery_budget_ratio",
		"jqos_delivery_latency_ms",
		"jqos_egress_queue_depth_bytes",
		"jqos_pacer_rate_fraction",
	}
	if !slices.Equal(hists, want) {
		t.Errorf("histograms %v, want %v", hists, want)
	}
}

// TestAttributionEnabledFollowsTracedFlows: the snapshot's attribution
// surface is enabled exactly while an open flow samples hop traces.
func TestAttributionEnabledFollowsTracedFlows(t *testing.T) {
	d := jqos.NewDeployment(5)
	dc1 := d.AddDC("a", 0)
	dc2 := d.AddDC("b", 1)
	d.ConnectDCs(dc1, dc2, 20*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	dst := d.AddHost(dc2, 8*time.Millisecond)
	plain, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if d.Snapshot().Attribution.Enabled {
		t.Error("attribution enabled with no traced flow")
	}
	traced, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: 300 * time.Millisecond, TraceSampling: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Snapshot().Attribution.Enabled {
		t.Error("attribution disabled with a traced flow open")
	}
	traced.Close()
	if d.Snapshot().Attribution.Enabled {
		t.Error("attribution still enabled after the traced flow closed")
	}
	plain.Close()
}

// TestSnapshotHasNoObserverEffect runs one seeded world twice, once
// with a snapshot every 7 ms, and requires the final flow rows to be
// byte-identical: building a snapshot must leave no trace in what the
// flows later report (no in-place sort, no reordered sum).
func TestSnapshotHasNoObserverEffect(t *testing.T) {
	run := func(observe bool) []byte {
		d := jqos.NewDeployment(3)
		dc1 := d.AddDC("us-east", dataset.RegionUSEast)
		dc2 := d.AddDC("eu-west", dataset.RegionEU)
		d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
		var flows []*jqos.Flow
		for i := 0; i < 4; i++ {
			src := d.AddHost(dc1, 5*time.Millisecond)
			dst := d.AddHost(dc2, 8*time.Millisecond)
			d.SetDirectPath(src, dst, netem.UniformJitter{Base: 50 * time.Millisecond, Jitter: 3 * time.Millisecond}, netem.Bernoulli{P: 0.02})
			f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: 300 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, f)
		}
		payload := make([]byte, 200)
		const sends = 4000
		for i := 0; i < sends; i++ {
			f := flows[i%len(flows)]
			d.Sim().At(time.Duration(i)*time.Millisecond, func() { f.Send(payload) })
		}
		if observe {
			for at := 7 * time.Millisecond; at < sends*time.Millisecond; at += 7 * time.Millisecond {
				d.Sim().At(at, func() { d.Snapshot() })
			}
		}
		d.Run(10 * time.Second)
		data, err := json.Marshal(d.Snapshot().Flows)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	quiet, observed := run(false), run(true)
	if !bytes.Equal(quiet, observed) {
		t.Fatalf("snapshots every 7 ms changed the final flow rows:\nunobserved %s\nobserved   %s", quiet, observed)
	}
}

// TestSnapshotNodeLists: a snapshot cuts every flow's Dsts and Path from
// one array. An empty list stays nil, as when each list was its own
// copy, and appending to one row's list never writes into the next.
func TestSnapshotNodeLists(t *testing.T) {
	d := jqos.NewDeployment(1)
	dc1 := d.AddDC("us-east", dataset.RegionUSEast)
	dc2 := d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src := d.AddHost(dc1, 5*time.Millisecond)
	for _, dst := range []jqos.NodeID{d.AddHost(dc2, 8*time.Millisecond), d.AddHost(dc1, 6*time.Millisecond)} {
		d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), nil)
		if _, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: 300 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Snapshot()
	far, near := s.Flows[0], s.Flows[1]
	if len(far.Dsts) != 1 || len(far.Path) != 2 || len(near.Dsts) != 1 || near.Path != nil {
		t.Fatalf("cross-DC flow dsts %v path %v; same-DC flow dsts %v path %v", far.Dsts, far.Path, near.Dsts, near.Path)
	}
	path, dsts := slices.Clone(far.Path), slices.Clone(near.Dsts)
	_ = append(far.Dsts, 0)
	_ = append(far.Path, 0)
	if !slices.Equal(far.Path, path) || !slices.Equal(near.Dsts, dsts) {
		t.Errorf("appending to one row's list moved the next: path %v (was %v), dsts %v (was %v)", far.Path, path, near.Dsts, dsts)
	}
}
