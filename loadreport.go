package jqos

import (
	"time"

	"jqos/internal/netem"
	"jqos/internal/routing"
)

const (
	// loadWindow is the sliding window of the per-link rate meters.
	loadWindow = time.Second
	// loadReportInterval is how often measured link utilization feeds the
	// routing controller's congestion-aware weights.
	loadReportInterval = 500 * time.Millisecond
)

// loadReporter periodically converts the load registry's measured link
// utilization into the routing controller's congestion weights: every
// loadReportInterval it walks the tracked inter-DC links (in
// deterministic order) and calls SetLinkUtilizations, whose hysteresis
// decides whether anything recomputes.
//
// The reporter is a parking ticker, so an idle event heap drains;
// Flow.Send (via noteActivity) and the failure-injection helpers wake it.
// It holds itself awake until every meter window has drained to zero
// utilization — links go on carrying queued and in-flight traffic after
// the application's last send, and a link must deflate before the
// reporter sleeps, or a flow registered during the idle period would
// resolve its path against a phantom-hot link.
type loadReporter struct {
	d       *Deployment
	ticker  *netem.Ticker
	scratch []routing.UtilizationReport // reused per round
}

// startLoadReporter begins periodic utilization reporting (no-op when
// already running). ConnectDCs and Link(a, b).SetCapacity call it as soon
// as the deployment has a link worth watching — with every link
// uncapacitated (the default), utilization is definitionally zero and the
// rounds would be pure event-heap overhead, so the reporter does not
// start at all.
func (d *Deployment) startLoadReporter() {
	if d.loadRep != nil || !d.loadReg.AnyCapacity() {
		return
	}
	r := &loadReporter{d: d}
	r.ticker = d.sim.NewTicker(loadReportInterval, &d.activity, func() bool {
		return r.report() != 0
	})
	d.loadRep = r
	r.ticker.Wake()
}

// report feeds every tracked link's current utilization to the
// controller as one batch, so a round triggers at most one recompute.
// It returns the highest utilization seen — the parking gate.
func (r *loadReporter) report() float64 {
	now := r.d.sim.Now()
	r.scratch = r.scratch[:0]
	var max float64
	for _, p := range r.d.loadReg.Pairs() {
		u := r.d.loadReg.Utilization(now, p[0], p[1])
		if u > max {
			max = u
		}
		r.scratch = append(r.scratch, routing.UtilizationReport{A: p[0], B: p[1], Util: u})
	}
	r.d.ctrl.SetLinkUtilizations(r.scratch)
	return max
}

// wakeLoadReporter restarts the reporter if one is parked.
func (d *Deployment) wakeLoadReporter() {
	if d.loadRep != nil {
		d.loadRep.ticker.Wake()
	}
}
