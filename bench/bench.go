package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// report is everything measured for one workload in one invocation.
type report struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	// Untraced is the end-to-end run: repeated set-ups, five timed
	// rounds, drain, checks.
	Untraced *result `json:"untraced"`
	// Traced is the one-round traced run of the same seed (nil with
	// -trace 0); Layers are the per-layer metrics it yields together with
	// the exact counts and the isolated drivers.
	Traced   *result            `json:"traced,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Ledger   []ledgerRow        `json:"ledger,omitempty"`
	Coverage float64            `json:"span_coverage,omitempty"`
	CalibMs  [2]float64         `json:"calib_spin_ms"`
	Warnings []string           `json:"warnings,omitempty"`

	spans *spanRecorder
}

// ledgerRow is one line of the per-packet cost stack: an exact operation
// count per packet times an isolated ns/op.
type ledgerRow struct {
	Layer    string  `json:"layer"`
	OpsPkt   float64 `json:"ops_per_pkt"`
	NsOp     float64 `json:"ns_per_op"`
	NsPkt    float64 `json:"ns_per_pkt"`
	SharePct float64 `json:"share_pct"`
}

const (
	minSetups     = 3
	maxSetups     = 9
	setupBudgetS  = 2.0 // keep repeating a fast set-up until this much was measured
	calibDriftPct = 10
)

// benchWorkload runs one workload between two calibration spins, so a
// noisy neighbour shows up in the artifact instead of being read as a
// regression.
func benchWorkload(wl *workload, seed int64, seconds float64, e2e, layers bool) (*report, error) {
	rep := &report{Workload: wl.name, Why: wl.why}
	rep.CalibMs[0] = spinMs()
	err := rep.run(wl, seed, seconds, e2e, layers)
	rep.CalibMs[1] = spinMs()
	if drift := 100 * math.Abs(rep.CalibMs[1]-rep.CalibMs[0]) / rep.CalibMs[0]; drift > calibDriftPct {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"calibration drifted %.0f %% during %s (%.2f → %.2f ms): host-time numbers of this run are suspect",
			drift, wl.name, rep.CalibMs[0], rep.CalibMs[1]))
	}
	if rep.Layers != nil {
		rep.Layers["calib.spin_ms"] = (rep.CalibMs[0] + rep.CalibMs[1]) / 2
	}
	return rep, err
}

// run does the measuring: the untraced run always (it is the reference the
// traced one is checked against), the traced run and the isolated drivers
// when layers is set. With e2e the set-up is repeated so setup_s is a
// median.
func (rep *report) run(wl *workload, seed int64, seconds float64, e2e, layers bool) error {
	scale := seconds / refSeconds

	want := 1
	if e2e {
		want = minSetups
	}
	var r *runner
	var setups []float64
	for total := 0.0; len(setups) < want || (e2e && total < setupBudgetS && len(setups) < maxSetups); {
		r = nil // let the previous set-up go before the next is timed
		base := heapFloor()
		t0 := time.Now()
		r = newRunner(wl, seed, scale, nil)
		r.heapBase = base
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}
	res := &result{Workload: wl.name, Seed: seed, Seconds: seconds, SetupS: setups}
	r.measure(rounds, res)
	res.Metrics["setup_s"] = median(setups)
	rep.Untraced = res
	if !res.Correct {
		return fmt.Errorf("%s: %d output checks failed, first: %s", wl.name, res.Failed, res.Error)
	}

	if layers {
		shape := r.shape(res)
		first := r.flows[1].f.Spec()
		topo := r.d.Topology()
		r = nil
		runtime.GC()
		rec := newSpanRecorder(1 << 20)
		rt := newRunner(wl, seed, scale, rec)
		tres := &result{Workload: wl.name, Seed: seed, Seconds: seconds, Traced: true}
		rt.measure(1, tres)
		rep.Traced = tres
		if !tres.Correct {
			return fmt.Errorf("%s (traced): %d output checks failed, first: %s", wl.name, tres.Failed, tres.Error)
		}
		if !tres.Check.matches(res.Check, wl.exact) {
			return fmt.Errorf("%s: traced run diverged from the untraced run of seed %d: round 1 %+v, untraced %+v",
				wl.name, seed, tres.Check, res.Check)
		}
		rep.spans = rec
		drivers := isolatedDrivers(shape, topo, first.Src, first.Dst, first.Budget)
		rep.layerMetrics(res, tres, rec.totals(), drivers)
	}

	return nil
}

// heapFloor collects garbage and returns what the process still holds —
// earlier workloads' reports and spans, which are not the next
// deployment's state: live_heap_mb is measured above this floor.
func heapFloor() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// shape describes the finished untraced run to the isolated drivers.
func (r *runner) shape(res *result) layerShape {
	sh := layerShape{
		payload:     int(r.sentBytes/r.sent) - headerLen,
		pendingMean: int(res.Counts["netem.pending_mean"]),
		batchesLive: int(res.Counts["coding.recoverer_batches_live"]),
		cacheItems:  int(res.Counts["cache.live_items"]),
		flows:       len(r.live),
		dcs:         len(r.dcs),
		hosts:       len(r.hosts),
	}
	for _, id := range r.dcs {
		for _, to := range r.dcs {
			if x, ok := r.d.Link(id, to).Shape(); ok && id < to {
				sh.links = append(sh.links, linkDef{id, to, x})
			}
		}
	}
	return sh
}

// layerMetrics assembles the per-layer metrics from the three sources and
// builds the ledger.
func (rep *report) layerMetrics(res, tres *result, tot spanTotals, drivers map[string]float64) {
	m := map[string]float64{}
	for k, v := range res.Counts { // C, from the five-round untraced run
		m[k] = v
	}
	for k, v := range drivers { // D
		m[k] = v
	}
	pkts := float64(tres.Sent) // S, from the traced round
	perPkt := func(k spanKind) float64 { return float64(tot.ns[k]) / pkts }
	calls := func(k spanKind) float64 { return float64(tot.calls[k]) / pkts }
	m["jqos.flow_send_ns_per_pkt"] = perPkt(spanSend)
	m["jqos.dc_handle_ns_per_pkt"] = perPkt(spanDC)
	m["jqos.dc_handle_calls_per_pkt"] = calls(spanDC)
	m["jqos.host_handle_ns_per_pkt"] = perPkt(spanHost)
	m["jqos.host_handle_calls_per_pkt"] = calls(spanHost)
	m["netem.kernel_ns_per_pkt"] = m["netem.events_per_pkt"] * m["netem.event_ns"]
	runSelf := float64(tot.runSelfNs()) / pkts
	m["jqos.timers_ns_per_pkt"] = runSelf - m["netem.kernel_ns_per_pkt"]
	m["jqos.register_us_p50"] = quantile(tot.durs[spanRegister], 0.5) / 1e3
	m["jqos.register_us_p99"] = quantile(tot.durs[spanRegister], 0.99) / 1e3
	m["jqos.close_us_p50"] = quantile(tot.durs[spanClose], 0.5) / 1e3
	m["telemetry.snapshot_us_p50"] = quantile(tot.durs[spanSnapshot], 0.5) / 1e3
	m["telemetry.snapshot_us_p90"] = quantile(tot.durs[spanSnapshot], 0.9) / 1e3

	// The spans tile the traced round: what they leave uncovered is the
	// driver's own loop (stamping payloads, the per-tick schedule).
	wallNs := tres.Rounds[0].WallS * 1e9
	var covered float64
	for k := spanKind(0); k < numSpanKinds; k++ {
		if k != spanDC && k != spanHost { // children of the Run slices
			covered += float64(tot.ns[k])
		}
	}
	rep.Coverage = covered / wallNs
	tracedPPS := pkts / tres.Rounds[0].WallS
	untracedPPS := float64(res.Rounds[0].Packets) / res.Rounds[0].WallS
	m["trace.overhead_frac"] = 1 - tracedPPS/untracedPPS

	ops := res.ops
	deliveries := calls(spanDC) + calls(spanHost)
	nsPkt := 1e9 / res.Metrics["pkts_per_s"]
	rows := []ledgerRow{
		{Layer: "netem: timer and pump events", OpsPkt: m["netem.events_per_pkt"] - deliveries, NsOp: m["netem.event_ns"]},
		{Layer: "netem: link send + delivery event", OpsPkt: deliveries, NsOp: m["netem.link_send_ns"]},
		{Layer: "wire: append", OpsPkt: 1, NsOp: m["wire.append_ns"]},
		{Layer: "wire: split", OpsPkt: deliveries, NsOp: m["wire.split_ns"]},
		{Layer: "coding: encoder OnData (RS included)", OpsPkt: ops.encData, NsOp: m["coding.encoder_ondata_ns"]},
		{Layer: "coding: recoverer OnCoded", OpsPkt: ops.codedStored, NsOp: m["coding.recoverer_oncoded_ns"]},
		// One scan when a parity packet is stored, and an OnTimer sweep
		// plus a re-arm scan when its batch expires.
		{Layer: "coding: recoverer deadline scans", OpsPkt: 2 * ops.codedStored, NsOp: m["coding.recoverer_deadline_ns"]},
		{Layer: "recovery: receiver OnData", OpsPkt: ops.rxData, NsOp: m["recovery.ondata_ns"]},
		{Layer: "cache: put", OpsPkt: ops.cachePuts, NsOp: m["cache.put_ns"]},
		{Layer: "cache: get", OpsPkt: ops.cacheGets, NsOp: m["cache.get_ns"]},
		{Layer: "forward: route", OpsPkt: ops.fwdCopies, NsOp: m["forward.route_ns"]},
		{Layer: "sched: enqueue + dequeue", OpsPkt: ops.schedEnq, NsOp: m["sched.enq_deq_ns"]},
		{Layer: "load: meter record", OpsPkt: ops.linkRecords, NsOp: m["load.record_ns"]},
		{Layer: "load: flow bucket admit", OpsPkt: ops.bucketAdmit, NsOp: m["load.bucket_admit_ns"]},
		{Layer: "tenant: quota admit", OpsPkt: ops.tenantAdmit, NsOp: m["tenant.admit_ns"]},
		{Layer: "jqos: RegisterFlow", OpsPkt: calls(spanRegister), NsOp: 1e3 * m["jqos.register_us_p50"]},
		{Layer: "jqos: Flow.Close", OpsPkt: calls(spanClose), NsOp: 1e3 * m["jqos.close_us_p50"]},
		{Layer: "telemetry: Snapshot", OpsPkt: calls(spanSnapshot), NsOp: 1e3 * m["telemetry.snapshot_us_p50"]},
	}
	var explained float64
	for i := range rows {
		rows[i].NsPkt = rows[i].OpsPkt * rows[i].NsOp
		rows[i].SharePct = 100 * rows[i].NsPkt / nsPkt
		explained += rows[i].NsPkt
	}
	rows = append(rows, ledgerRow{Layer: "unexplained residue", NsPkt: nsPkt - explained, SharePct: 100 * (nsPkt - explained) / nsPkt})
	m["ledger.explained_frac"] = explained / nsPkt
	rep.Ledger = rows
	rep.Layers = m
}
