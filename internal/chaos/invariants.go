package chaos

import (
	"fmt"

	"jqos"
	"jqos/internal/load"
	"jqos/internal/telemetry"
)

// Violation is one failed invariant: which one, and enough detail to
// debug the failing seed without rerunning it.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

func violate(out []Violation, inv, format string, args ...any) []Violation {
	return append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// CheckConverged asserts the routing plane recovered from the timeline:
// every ordered DC pair has a path again and the controller counts no
// unreachable destinations. Only meaningful after every partition has
// healed and the monitor has had time to re-probe (the runner's quiesce
// phase guarantees both).
func CheckConverged(d *jqos.Deployment) []Violation {
	var out []Violation
	ctrl := d.Routing()
	if n := ctrl.Stats().Unreachable; n != 0 {
		out = violate(out, "routing-converged", "%d (DC, destination) pairs unreachable after heal", n)
	}
	dcs := ctrl.Graph().Nodes()
	for _, a := range dcs {
		for _, b := range dcs {
			if a == b {
				continue
			}
			if _, ok := ctrl.PathLatency(a, b); !ok {
				out = violate(out, "routing-converged", "no path %v→%v after heal", a, b)
			}
		}
	}
	return out
}

// CheckQuiesced asserts the drained deployment carries no residual
// pressure: every egress class queue is empty and Clear, and no flow's
// pacer is still cut (a stranded pacer — one whose queues cooled but
// whose rate never recovered to contract — is exactly the bug the
// level-triggered Hot refresh exists to prevent).
func CheckQuiesced(s *telemetry.Snapshot) []Violation {
	var out []Violation
	for _, q := range s.Queues {
		if q.QueuedBytes != 0 || q.QueuedPackets != 0 {
			out = violate(out, "queues-drained", "queue %v→%v holds %d bytes / %d packets at quiesce",
				q.From, q.To, q.QueuedBytes, q.QueuedPackets)
		}
		for c, cs := range q.PerClass {
			if cs.State != 0 {
				out = violate(out, "queues-drained", "queue %v→%v class %d stuck in state %d at quiesce",
					q.From, q.To, c, cs.State)
			}
		}
	}
	for _, f := range s.Flows {
		if f.Throttled {
			out = violate(out, "no-stranded-pacer", "flow %d still cut below its contract (rate %d) at quiesce",
				f.ID, f.AdmissionRate)
		}
	}
	for _, t := range s.Tenants {
		if t.Throttled {
			out = violate(out, "no-stranded-pacer", "tenant %d (%s) aggregate pacer still cut (rate %d, %d hot links) at quiesce",
				t.ID, t.Name, t.PacerRate, t.HotLinks)
		}
	}
	return out
}

// CheckAccounting asserts the snapshot's cross-surface bookkeeping
// balances: per-class egress bytes sum to direction totals and to the
// deployment rollup, per-flow metric sums match the totals, and the
// trace ring's lifetime per-kind counts agree with the independently
// maintained flow and feedback counters. Valid only while every flow
// that ever ran is still open — closed flows leave the snapshot but not
// the trace — so the runner checks it before teardown.
func CheckAccounting(s *telemetry.Snapshot) []Violation {
	var out []Violation
	var linkBytes, classBytes uint64
	for _, l := range s.Links {
		for _, d := range []struct {
			name string
			dir  load.DirLoad
		}{{"ab", l.AB}, {"ba", l.BA}} {
			dirName, dir := d.name, d.dir
			var sum uint64
			for _, n := range dir.ClassBytes {
				sum += n
			}
			if sum != dir.Bytes {
				out = violate(out, "accounting-balance", "link %v↔%v %s: class bytes sum %d != direction bytes %d",
					l.A, l.B, dirName, sum, dir.Bytes)
			}
		}
		linkBytes += l.AB.Bytes + l.BA.Bytes
	}
	for _, n := range s.Totals.ClassBytes {
		classBytes += n
	}
	if linkBytes != s.Totals.LinkBytes || classBytes != s.Totals.LinkBytes {
		out = violate(out, "accounting-balance", "totals: link dirs sum %d, class sum %d, LinkBytes %d",
			linkBytes, classBytes, s.Totals.LinkBytes)
	}

	var sent, delivered, egressDropped, admissionDropped uint64
	var serviceChanges uint64
	for _, f := range s.Flows {
		sent += f.Sent
		delivered += f.Delivered
		egressDropped += f.EgressDropped
		admissionDropped += f.AdmissionDropped
		serviceChanges += uint64(f.ServiceChanges)
	}
	if sent != s.Totals.Sent || delivered != s.Totals.Delivered ||
		egressDropped != s.Totals.EgressDropped || admissionDropped != s.Totals.AdmissionDropped {
		out = violate(out, "accounting-balance", "flow sums (%d/%d/%d/%d) != totals (%d/%d/%d/%d)",
			sent, delivered, egressDropped, admissionDropped,
			s.Totals.Sent, s.Totals.Delivered, s.Totals.EgressDropped, s.Totals.AdmissionDropped)
	}

	// Per-tenant rollups must partition the deployment: every tenant's
	// sums plus the untenanted flows' sums reproduce the flow totals
	// exactly — a flow counted under two tenants (or none) breaks the
	// balance in opposite directions.
	var tSent, tSentBytes, tDelivered, tEgressDropped, tAdmissionDropped uint64
	var quotaDropped, costViolations uint64
	for _, t := range s.Tenants {
		tSent += t.Sent
		tSentBytes += t.SentBytes
		tDelivered += t.Delivered
		tEgressDropped += t.EgressDropped
		tAdmissionDropped += t.AdmissionDropped
		quotaDropped += t.QuotaDropped
		costViolations += t.CostViolations
	}
	var sentBytes uint64
	for _, f := range s.Flows {
		if f.Tenant == 0 {
			tSent += f.Sent
			tSentBytes += f.SentBytes
			tDelivered += f.Delivered
			tEgressDropped += f.EgressDropped
			tAdmissionDropped += f.AdmissionDropped
		}
		sentBytes += f.SentBytes
	}
	if tSent != s.Totals.Sent || tSentBytes != sentBytes || tDelivered != s.Totals.Delivered ||
		tEgressDropped != s.Totals.EgressDropped || tAdmissionDropped != s.Totals.AdmissionDropped {
		out = violate(out, "tenant-rollup-balance",
			"tenant sums + untenanted flows (%d sent/%d bytes/%d delivered/%d egress/%d admission) != totals (%d/%d/%d/%d/%d)",
			tSent, tSentBytes, tDelivered, tEgressDropped, tAdmissionDropped,
			s.Totals.Sent, sentBytes, s.Totals.Delivered, s.Totals.EgressDropped, s.Totals.AdmissionDropped)
	}

	type kindCheck struct {
		kind    telemetry.Kind
		counter uint64
		name    string
	}
	fb := s.Feedback
	for _, kc := range []kindCheck{
		{telemetry.KindEgressDrop, egressDropped, "flow EgressDropped sum"},
		{telemetry.KindAdmissionDrop, admissionDropped, "flow AdmissionDropped sum"},
		{telemetry.KindServiceChange, serviceChanges, "flow ServiceChanges sum"},
		{telemetry.KindCongestionSignal, fb.FlowSignals, "Feedback.FlowSignals"},
		{telemetry.KindPacerCut, fb.RateCuts, "Feedback.RateCuts"},
		{telemetry.KindPacerRecover, fb.RateRecoveries, "Feedback.RateRecoveries"},
		{telemetry.KindTenantQuotaDrop, quotaDropped, "tenant QuotaDropped sum"},
		{telemetry.KindTenantPacerCut, fb.TenantCuts, "Feedback.TenantCuts"},
		{telemetry.KindTenantPacerRecover, fb.TenantRecoveries, "Feedback.TenantRecoveries"},
		{telemetry.KindTenantCostViolation, costViolations, "tenant CostViolations sum"},
		{telemetry.KindSLODegrade, s.SLO.Degrades, "SLOSnapshot.Degrades"},
		{telemetry.KindSLORecover, s.SLO.Recovers, "SLOSnapshot.Recovers"},
	} {
		if got := s.Trace.ByKind[kc.kind]; got != kc.counter {
			out = violate(out, "trace-counters", "trace %v count %d != %s %d", kc.kind, got, kc.name, kc.counter)
		}
	}
	return out
}

// CheckTeardown asserts that closing every flow left nothing behind: no
// open flows, no receiver engines on any host, no feedback
// subscriptions and no routing pins. Run it after Flow.Close on every
// flow plus a final drain (a packet still in flight at close time may
// legitimately touch host state).
func CheckTeardown(d *jqos.Deployment) []Violation {
	var out []Violation
	if n := len(d.Flows()); n != 0 {
		out = violate(out, "no-leaked-state", "%d flows still open after teardown", n)
	}
	for _, id := range d.HostIDs() {
		h := d.Host(id)
		if n := h.ReceiverCount(); n != 0 {
			out = violate(out, "no-leaked-state", "host %v holds %d receiver engines (%d unsolicited) after teardown",
				id, n, h.UnsolicitedReceivers())
		}
	}
	if n := d.Snapshot().Feedback.SubscribedFlows; n != 0 {
		out = violate(out, "no-leaked-state", "%d feedback subscriptions after teardown", n)
	}
	if n := d.Routing().PinnedCount(); n != 0 {
		out = violate(out, "no-leaked-state", "%d routing pins after teardown", n)
	}
	for _, id := range d.Tenants() {
		if n := d.TenantFlowCount(id); n != 0 {
			out = violate(out, "no-leaked-state", "tenant %d still counts %d member flows after teardown", id, n)
		}
	}
	return out
}
