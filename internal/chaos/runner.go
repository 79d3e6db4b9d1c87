package chaos

import (
	"sort"
	"time"

	"jqos/internal/core"
	"jqos/internal/telemetry"
)

// Verdict is one run's outcome: the seed and timeline that reproduce
// it, the violations found (empty = the run held every invariant), and
// headline activity counters so a soak's output shows the runs actually
// exercised the control loops.
type Verdict struct {
	Run        int         `json:"run"`
	Seed       int64       `json:"seed"`
	Steps      int         `json:"steps"`
	Timeline   string      `json:"timeline"`
	Violations []Violation `json:"violations,omitempty"`
	// Activity counters from the final pre-teardown snapshot.
	Delivered   uint64 `json:"delivered"`
	Reroutes    uint64 `json:"reroutes"`
	FlowSignals uint64 `json:"flow_signals"`
	RateCuts    uint64 `json:"rate_cuts"`
	// TenantCuts counts aggregate tenant-pacer cuts (one per delivered
	// signal per tenant); QuotaDrops sums tenant quota refusals.
	TenantCuts uint64 `json:"tenant_cuts"`
	QuotaDrops uint64 `json:"quota_drops"`
	// SLODegrades / SLORecovers count the continuous SLO engine's state
	// transitions across every tracker; SLOChecks counts the during-fault
	// sample points the slo-during-fault invariant actually asserted at.
	SLODegrades uint64 `json:"slo_degrades"`
	SLORecovers uint64 `json:"slo_recovers"`
	SLOChecks   int    `json:"slo_checks"`
	// Snapshot is the final pre-teardown snapshot, kept only for
	// failing runs (it is the debugging artifact the soak uploads).
	Snapshot *telemetry.Snapshot `json:"snapshot,omitempty"`
}

// OK reports whether the run held every invariant.
func (v Verdict) OK() bool { return len(v.Violations) == 0 }

// quiesce drains the event heap in bounded slices: the simulator must
// go quiet within budget virtual time or the run fails the
// event-loop-quiesce invariant (a pacer tick that never stops rearming,
// a prober that never parks — bugs a plain RunUntilQuiet would hang on).
func quiesce(w *World, budget time.Duration) bool {
	const slice = 250 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < budget; elapsed += slice {
		if w.D.Sim().Pending() == 0 {
			return true
		}
		w.D.Run(slice)
	}
	return w.D.Sim().Pending() == 0
}

// RunScenario drives one scenario against a freshly built world:
// schedule the timeline and the traffic, run to the horizon, drain, and
// check every invariant — convergence, queue/pacer quiesce, and
// accounting on the final open-flows snapshot; then close every flow,
// drain again, and check teardown leaks. The world must be fresh
// (traffic not yet scheduled, clock at zero).
func RunScenario(w *World, sc Scenario, horizon time.Duration) (Verdict, error) {
	if h := sc.Horizon() + time.Second; h > horizon {
		horizon = h
	}
	v := Verdict{Seed: sc.Seed, Steps: len(sc.Steps), Timeline: sc.Timeline()}

	eng, err := Bind(w.D, sc)
	if err != nil {
		return v, err
	}
	eng.Schedule()
	w.ScheduleTraffic(horizon)
	scheduleSLOChecks(w, sc, horizon, &v)
	w.D.Run(horizon)

	// 60 s of virtual drain bounds every legitimate tail: probe
	// recovery bursts (~4 s), AIMD additive recovery to contract, NACK
	// retries, adaptation ticks parking.
	if !quiesce(w, 60*time.Second) {
		v.Violations = violate(v.Violations, "event-loop-quiesce",
			"%d events still pending 60s after traffic ended", w.D.Sim().Pending())
	}

	s := w.D.Snapshot()
	v.Delivered = s.Totals.Delivered
	v.Reroutes = s.Routing.Reroutes
	v.FlowSignals = s.Feedback.FlowSignals
	v.RateCuts = s.Feedback.RateCuts
	v.TenantCuts = s.Feedback.TenantCuts
	v.SLODegrades = s.SLO.Degrades
	v.SLORecovers = s.SLO.Recovers
	for _, t := range s.Tenants {
		v.QuotaDrops += t.QuotaDropped
	}
	v.Violations = append(v.Violations, CheckConverged(w.D)...)
	v.Violations = append(v.Violations, CheckQuiesced(s)...)
	v.Violations = append(v.Violations, CheckAccounting(s)...)

	for _, f := range w.Flows {
		f.Close()
	}
	if !quiesce(w, 10*time.Second) {
		v.Violations = violate(v.Violations, "event-loop-quiesce",
			"%d events still pending 10s after teardown", w.D.Sim().Pending())
	}
	v.Violations = append(v.Violations, CheckTeardown(w.D)...)

	if !v.OK() {
		v.Snapshot = s
	}
	return v, nil
}

// scheduleSLOChecks installs the slo-during-fault invariant: at sample
// points DURING the timeline where only degrade/bursty-loss faults are
// live — never mid-partition or mid-crash, and only once a settle period
// (slow window + clear hold + margin) has passed since a partition or
// crash was last active — the interactive flow's SLO state must not read
// Violated. Its direct host path is untouched by DC-link faults, so
// deliveries keep landing on time and a Violated reading there would
// mean the engine latched or leaked state. Partition windows are
// excluded because blackholing the overlay legitimately burns budget;
// degrade-only windows are exactly where a false alarm would page.
func scheduleSLOChecks(w *World, sc Scenario, horizon time.Duration, v *Verdict) {
	settle := worldSLO.SlowWindow + worldSLO.ClearHold + 500*time.Millisecond
	const step = 250 * time.Millisecond
	flow := w.Flows[0].ID()
	for _, at := range sloSamplePoints(sc, horizon, settle, step) {
		at := at
		w.D.Sim().At(at, func() {
			s := w.D.Snapshot()
			v.SLOChecks++
			if e, ok := s.SLO.Flow(flow); ok && e.State == telemetry.SLOViolated {
				v.Violations = violate(v.Violations, "slo-during-fault",
					"interactive flow SLO violated at %v in a degrade-only window (burn fast %.2f slow %.2f)",
					at, e.BurnFast, e.BurnSlow)
			}
		})
	}
}

// sloSamplePoints replays the timeline's fault intervals and returns the
// multiples of step in (0, horizon) that fall inside degrade-only
// windows: at least one degrade/bursty-loss live, no partition or DC
// crash live, and none was live within the trailing settle period.
// StepHeal clears both fault classes on its pair (it restores the base
// link shape); asymmetric heals are treated as full clears — that only
// shrinks the sampled set, never asserts inside an unhealed window.
func sloSamplePoints(sc Scenario, horizon, settle, step time.Duration) []time.Duration {
	type pair [2]core.NodeID
	norm := func(a, b core.NodeID) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	steps := append([]Step(nil), sc.Steps...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })

	degraded := map[pair]bool{}
	partitioned := map[pair]bool{}
	crashed := map[core.NodeID]bool{}
	lastBadEnd := time.Duration(-1) << 40 // "long before the run"
	anyLive := func(m map[pair]bool) bool {
		for _, on := range m {
			if on {
				return true
			}
		}
		return false
	}

	var pts []time.Duration
	i := 0
	for at := step; at < horizon; at += step {
		for i < len(steps) && steps[i].At <= at {
			st := steps[i]
			i++
			switch st.Kind {
			case StepDegrade, StepDegradeAsym, StepBurstyLoss:
				degraded[norm(st.A, st.B)] = true
			case StepPartition, StepPartitionAsym:
				partitioned[norm(st.A, st.B)] = true
			case StepHeal, StepHealAsym:
				k := norm(st.A, st.B)
				if partitioned[k] {
					partitioned[k] = false
					if st.At > lastBadEnd {
						lastBadEnd = st.At
					}
				}
				degraded[k] = false
			case StepCrashDC:
				crashed[st.A] = true
			case StepHealDC:
				if crashed[st.A] {
					delete(crashed, st.A)
					if st.At > lastBadEnd {
						lastBadEnd = st.At
					}
				}
			}
		}
		if len(crashed) > 0 || anyLive(partitioned) {
			continue
		}
		if !anyLive(degraded) {
			continue
		}
		if at-lastBadEnd < settle {
			continue
		}
		pts = append(pts, at)
	}
	return pts
}

// RunOne builds the canonical world for seed, fuzzes a timeline from
// the same seed, and runs it.
func RunOne(seed int64, p Profile) (Verdict, error) {
	w, err := BuildWorld(seed)
	if err != nil {
		return Verdict{Seed: seed}, err
	}
	sc := Fuzz(seed, p, w.DCs, w.Links)
	return RunScenario(w, sc, p.withDefaults().Horizon)
}

// SoakOptions configures a multi-run soak.
type SoakOptions struct {
	// Runs is the number of seeded runs; run i uses seed Seed+i.
	Runs int
	Seed int64
	// Profile bounds each run's fuzzed timeline.
	Profile Profile
	// Log, when set, receives one line per run (the CLI's -v sink).
	Log func(format string, args ...any)
}

// Report aggregates a soak.
type Report struct {
	Runs int
	// Failures holds the failing verdicts (snapshot attached).
	Failures []Verdict
	// Err is the first world/bind error, if any (a harness bug, not an
	// invariant violation).
	Err error
	// Aggregate activity — a soak whose runs never rerouted or paced
	// anything is not testing what it claims to.
	Delivered   uint64
	Reroutes    uint64
	FlowSignals uint64
	RateCuts    uint64
	TenantCuts  uint64
	QuotaDrops  uint64
	// SLO engine aggregates: state transitions observed across runs and
	// the number of during-fault sample points asserted.
	SLODegrades uint64
	SLORecovers uint64
	SLOChecks   int
}

// OK reports whether every run completed and held every invariant.
func (r Report) OK() bool { return r.Err == nil && len(r.Failures) == 0 }

// Soak executes o.Runs seeded chaos runs and aggregates the verdicts.
func Soak(o SoakOptions) Report {
	rep := Report{Runs: o.Runs}
	for i := 0; i < o.Runs; i++ {
		seed := o.Seed + int64(i)
		v, err := RunOne(seed, o.Profile)
		v.Run = i
		if err != nil {
			rep.Err = err
			return rep
		}
		rep.Delivered += v.Delivered
		rep.Reroutes += v.Reroutes
		rep.FlowSignals += v.FlowSignals
		rep.RateCuts += v.RateCuts
		rep.TenantCuts += v.TenantCuts
		rep.QuotaDrops += v.QuotaDrops
		rep.SLODegrades += v.SLODegrades
		rep.SLORecovers += v.SLORecovers
		rep.SLOChecks += v.SLOChecks
		if !v.OK() {
			rep.Failures = append(rep.Failures, v)
		}
		if o.Log != nil {
			status := "ok"
			if !v.OK() {
				status = "FAIL"
			}
			o.Log("run %3d seed %-6d %s: %d steps, %d delivered, %d reroutes, %d signals, %d cuts, %d tenant cuts, %d quota drops, %d/%d slo transitions (%d checks)",
				i, seed, status, v.Steps, v.Delivered, v.Reroutes, v.FlowSignals, v.RateCuts, v.TenantCuts, v.QuotaDrops, v.SLODegrades, v.SLORecovers, v.SLOChecks)
			for _, viol := range v.Violations {
				o.Log("  violation: %v", viol)
			}
		}
	}
	return rep
}
