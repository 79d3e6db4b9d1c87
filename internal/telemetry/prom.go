package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"jqos/internal/core"
)

// WriteMetrics renders the snapshot in Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE headers per family, one sample per
// line. Output order is deterministic — links, queues, and flows are
// already sorted in the snapshot.
func WriteMetrics(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)

	gauge := func(name, help string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	counter := func(name, help string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}

	gauge("jqos_snapshot_time_seconds", "Simulated capture time of this snapshot.")
	fmt.Fprintf(bw, "jqos_snapshot_time_seconds %v\n", s.At.Seconds())
	gauge("jqos_flows", "Open flows.")
	fmt.Fprintf(bw, "jqos_flows %d\n", s.Totals.Flows)

	// Deployment totals.
	counter("jqos_sent_packets_total", "Application packets sent across open flows.")
	fmt.Fprintf(bw, "jqos_sent_packets_total %d\n", s.Totals.Sent)
	counter("jqos_delivered_packets_total", "Packets delivered across open flows.")
	fmt.Fprintf(bw, "jqos_delivered_packets_total %d\n", s.Totals.Delivered)
	counter("jqos_on_time_packets_total", "Deliveries within their flow's budget.")
	fmt.Fprintf(bw, "jqos_on_time_packets_total %d\n", s.Totals.OnTime)
	counter("jqos_recovered_packets_total", "Deliveries repaired by a recovery service.")
	fmt.Fprintf(bw, "jqos_recovered_packets_total %d\n", s.Totals.Recovered)
	counter("jqos_admission_dropped_total", "Cloud copies refused by admission contracts.")
	fmt.Fprintf(bw, "jqos_admission_dropped_total %d\n", s.Totals.AdmissionDropped)
	counter("jqos_egress_dropped_total", "Copies tail-dropped by egress schedulers.")
	fmt.Fprintf(bw, "jqos_egress_dropped_total %d\n", s.Totals.EgressDropped)
	counter("jqos_node_dropped_total", "Datagrams DCs and hosts could not decode, route or place.")
	fmt.Fprintf(bw, "jqos_node_dropped_total %d\n", s.Totals.NodeDropped)
	counter("jqos_cloud_egress_bytes_total", "Billable cloud egress bytes.")
	fmt.Fprintf(bw, "jqos_cloud_egress_bytes_total %d\n", s.Totals.EgressBytes)
	gauge("jqos_cloud_cost_usd", "Accumulated egress cost under the default price model.")
	fmt.Fprintf(bw, "jqos_cloud_cost_usd %v\n", s.Totals.CloudCostUSD)

	// Per-link load.
	if len(s.Links) > 0 {
		gauge("jqos_link_capacity_bytes", "Accounting capacity of the inter-DC link (B/s).")
		for _, l := range s.Links {
			fmt.Fprintf(bw, "jqos_link_capacity_bytes{a=\"%d\",b=\"%d\"} %d\n", l.A, l.B, l.Capacity)
		}
		gauge("jqos_link_utilization", "Hotter direction's windowed rate over capacity, 0-1.")
		for _, l := range s.Links {
			fmt.Fprintf(bw, "jqos_link_utilization{a=\"%d\",b=\"%d\"} %v\n", l.A, l.B, l.Utilization)
		}
		gauge("jqos_link_rate_bytes", "Windowed mean rate per link direction (B/s).")
		for _, l := range s.Links {
			fmt.Fprintf(bw, "jqos_link_rate_bytes{from=\"%d\",to=\"%d\"} %v\n", l.A, l.B, l.AB.Rate)
			fmt.Fprintf(bw, "jqos_link_rate_bytes{from=\"%d\",to=\"%d\"} %v\n", l.B, l.A, l.BA.Rate)
		}
		counter("jqos_link_bytes_total", "Lifetime bytes per link direction and service class.")
		for _, l := range s.Links {
			for c := 0; c < NumClasses; c++ {
				if l.AB.ClassBytes[c] > 0 {
					fmt.Fprintf(bw, "jqos_link_bytes_total{from=\"%d\",to=\"%d\",class=%q} %d\n", l.A, l.B, core.Service(c).String(), l.AB.ClassBytes[c])
				}
				if l.BA.ClassBytes[c] > 0 {
					fmt.Fprintf(bw, "jqos_link_bytes_total{from=\"%d\",to=\"%d\",class=%q} %d\n", l.B, l.A, core.Service(c).String(), l.BA.ClassBytes[c])
				}
			}
		}
	}

	// Per-queue scheduler state.
	if len(s.Queues) > 0 {
		gauge("jqos_queue_depth_bytes", "Live egress class-queue depth.")
		counterLines := &strings.Builder{}
		stateLines := &strings.Builder{}
		for _, q := range s.Queues {
			for c := 0; c < NumClasses; c++ {
				cs := q.PerClass[c]
				if cs.EnqueuedPackets == 0 && cs.QueuedPackets == 0 && cs.DroppedPackets == 0 {
					continue
				}
				cls := core.Service(c).String()
				fmt.Fprintf(bw, "jqos_queue_depth_bytes{from=\"%d\",to=\"%d\",class=%q} %d\n", q.From, q.To, cls, cs.QueuedBytes)
				fmt.Fprintf(counterLines, "jqos_queue_dequeued_packets_total{from=\"%d\",to=\"%d\",class=%q} %d\n", q.From, q.To, cls, cs.DequeuedPackets)
				fmt.Fprintf(counterLines, "jqos_queue_dropped_packets_total{from=\"%d\",to=\"%d\",class=%q} %d\n", q.From, q.To, cls, cs.DroppedPackets)
				fmt.Fprintf(stateLines, "jqos_queue_state{from=\"%d\",to=\"%d\",class=%q} %d\n", q.From, q.To, cls, cs.State)
			}
		}
		counter("jqos_queue_dequeued_packets_total", "Packets released by the egress scheduler.")
		counter("jqos_queue_dropped_packets_total", "Packets tail-dropped at the class byte cap.")
		bw.WriteString(counterLines.String())
		gauge("jqos_queue_state", "Class-queue congestion state: 0 clear, 1 warm, 2 hot.")
		bw.WriteString(stateLines.String())
	}

	// Per-flow delivery metrics.
	if len(s.Flows) > 0 {
		counter("jqos_flow_sent_packets_total", "Packets sent per flow.")
		for _, f := range s.Flows {
			fmt.Fprintf(bw, "jqos_flow_sent_packets_total{flow=\"%d\",service=%q} %d\n", f.ID, f.ServiceName, f.Sent)
		}
		counter("jqos_flow_delivered_packets_total", "Packets delivered per flow.")
		for _, f := range s.Flows {
			fmt.Fprintf(bw, "jqos_flow_delivered_packets_total{flow=\"%d\",service=%q} %d\n", f.ID, f.ServiceName, f.Delivered)
		}
		counter("jqos_flow_on_time_packets_total", "Deliveries within budget per flow.")
		for _, f := range s.Flows {
			fmt.Fprintf(bw, "jqos_flow_on_time_packets_total{flow=\"%d\",service=%q} %d\n", f.ID, f.ServiceName, f.OnTime)
		}
		gauge("jqos_flow_admission_rate_bytes", "Live admission bucket refill rate (B/s; 0 without a contract).")
		for _, f := range s.Flows {
			fmt.Fprintf(bw, "jqos_flow_admission_rate_bytes{flow=\"%d\"} %d\n", f.ID, f.AdmissionRate)
		}
	}

	// Control planes.
	counter("jqos_routing_recomputes_total", "Full route-table computations.")
	fmt.Fprintf(bw, "jqos_routing_recomputes_total %d\n", s.Routing.Recomputes)
	counter("jqos_routing_reroutes_total", "Recomputes that moved installed routes.")
	fmt.Fprintf(bw, "jqos_routing_reroutes_total %d\n", s.Routing.Reroutes)
	counter("jqos_routing_link_failures_total", "Link failures observed by the health monitor.")
	fmt.Fprintf(bw, "jqos_routing_link_failures_total %d\n", s.Routing.LinkFailures)
	counter("jqos_routing_congestion_reroutes_total", "Utilization-triggered reroutes.")
	fmt.Fprintf(bw, "jqos_routing_congestion_reroutes_total %d\n", s.Routing.CongestionReroutes)
	counter("jqos_feedback_flow_signals_total", "Congestion signals delivered to flows.")
	fmt.Fprintf(bw, "jqos_feedback_flow_signals_total %d\n", s.Feedback.FlowSignals)
	counter("jqos_feedback_rate_cuts_total", "AIMD pacer cuts.")
	fmt.Fprintf(bw, "jqos_feedback_rate_cuts_total %d\n", s.Feedback.RateCuts)
	counter("jqos_feedback_rate_recoveries_total", "AIMD pacer recovery steps.")
	fmt.Fprintf(bw, "jqos_feedback_rate_recoveries_total %d\n", s.Feedback.RateRecoveries)

	// SLO engine.
	if s.SLO.Enabled {
		gauge("jqos_slo_objective", "Configured on-time objective, 0-1.")
		fmt.Fprintf(bw, "jqos_slo_objective %v\n", s.SLO.Objective)
		counter("jqos_slo_degrades_total", "SLO state degradations (met→at-risk→violated).")
		fmt.Fprintf(bw, "jqos_slo_degrades_total %d\n", s.SLO.Degrades)
		counter("jqos_slo_recovers_total", "SLO state recoveries after the hysteresis hold.")
		fmt.Fprintf(bw, "jqos_slo_recovers_total %d\n", s.SLO.Recovers)
		if len(s.SLO.Flows)+len(s.SLO.Classes)+len(s.SLO.Tenants) > 0 {
			gauge("jqos_slo_state", "SLO state: 0 met, 1 at-risk, 2 violated.")
			for _, e := range s.SLO.Flows {
				fmt.Fprintf(bw, "jqos_slo_state{flow=\"%d\"} %d\n", e.Flow, e.State)
			}
			for _, e := range s.SLO.Classes {
				fmt.Fprintf(bw, "jqos_slo_state{class=%q} %d\n", e.Class.String(), e.State)
			}
			for _, e := range s.SLO.Tenants {
				fmt.Fprintf(bw, "jqos_slo_state{tenant=\"%d\"} %d\n", e.Tenant, e.State)
			}
			gauge("jqos_slo_burn_rate", "Error-budget burn rate per window (1.0 = exactly on objective).")
			for _, e := range s.SLO.Flows {
				fmt.Fprintf(bw, "jqos_slo_burn_rate{flow=\"%d\",window=\"fast\"} %v\n", e.Flow, e.BurnFast)
				fmt.Fprintf(bw, "jqos_slo_burn_rate{flow=\"%d\",window=\"slow\"} %v\n", e.Flow, e.BurnSlow)
			}
			for _, e := range s.SLO.Classes {
				fmt.Fprintf(bw, "jqos_slo_burn_rate{class=%q,window=\"fast\"} %v\n", e.Class.String(), e.BurnFast)
				fmt.Fprintf(bw, "jqos_slo_burn_rate{class=%q,window=\"slow\"} %v\n", e.Class.String(), e.BurnSlow)
			}
			for _, e := range s.SLO.Tenants {
				fmt.Fprintf(bw, "jqos_slo_burn_rate{tenant=\"%d\",window=\"fast\"} %v\n", e.Tenant, e.BurnFast)
				fmt.Fprintf(bw, "jqos_slo_burn_rate{tenant=\"%d\",window=\"slow\"} %v\n", e.Tenant, e.BurnSlow)
			}
		}
	}

	// Hop-level latency attribution.
	if a := &s.Attribution; a.Enabled || a.LateDeliveries > 0 {
		counter("jqos_attribution_traced_total", "Cloud copies sampled for hop-level attribution.")
		fmt.Fprintf(bw, "jqos_attribution_traced_total %d\n", a.Traced)
		counter("jqos_attribution_finished_total", "Sampled traces closed by a delivery.")
		fmt.Fprintf(bw, "jqos_attribution_finished_total %d\n", a.Finished)
		counter("jqos_attribution_dropped_total", "Sampled traces abandoned by an ingress or egress drop.")
		fmt.Fprintf(bw, "jqos_attribution_dropped_total %d\n", a.Dropped)
		counter("jqos_attribution_late_deliveries_total", "Budget-violating deliveries offered to the reservoir.")
		fmt.Fprintf(bw, "jqos_attribution_late_deliveries_total %d\n", a.LateDeliveries)
		if len(a.Flows) > 0 {
			counter("jqos_attribution_spend_ns_total", "Attributed latency per flow and budget component (ns).")
			for _, fs := range a.Flows {
				for c := 0; c < NumSpanComponents; c++ {
					if fs.Profile.Ns[c] == 0 {
						continue
					}
					fmt.Fprintf(bw, "jqos_attribution_spend_ns_total{flow=\"%d\",component=%q} %d\n",
						fs.Flow, SpanComponent(c).String(), fs.Profile.Ns[c])
				}
			}
		}
		if len(a.Queues) > 0 {
			counter("jqos_attribution_queue_wait_ns_total", "Attributed DRR queue wait per (link, class) (ns).")
			for _, qs := range a.Queues {
				fmt.Fprintf(bw, "jqos_attribution_queue_wait_ns_total{from=\"%d\",to=\"%d\",class=%q} %d\n",
					qs.Key.From, qs.Key.To, qs.Key.Class.String(), qs.Spend.WaitNs)
			}
		}
	}

	// Trace occupancy.
	counter("jqos_trace_events_total", "Control-loop trace events recorded, per kind.")
	for k := 0; k < NumKinds; k++ {
		fmt.Fprintf(bw, "jqos_trace_events_total{kind=%q} %d\n", Kind(k).String(), s.Trace.ByKind[k])
	}
	counter("jqos_trace_overwritten_total", "Trace events overwritten before being read.")
	fmt.Fprintf(bw, "jqos_trace_overwritten_total %d\n", s.Trace.Dropped)

	// Standing counters.
	for _, c := range s.Counters {
		counter(c.Name, "Registered counter.")
		fmt.Fprintf(bw, "%s %d\n", c.Name, c.Value)
	}

	// Histograms, Prometheus-style: cumulative buckets + _sum + _count.
	for _, h := range s.Histograms {
		fmt.Fprintf(bw, "# HELP %s Registered histogram (%s).\n# TYPE %s histogram\n", h.Name, h.Unit, h.Name)
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s_bucket{le=\"%v\"} %d\n", h.Name, bound, cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count)
		fmt.Fprintf(bw, "%s_sum %v\n", h.Name, h.Sum)
		fmt.Fprintf(bw, "%s_count %d\n", h.Name, h.Count)
	}

	return bw.Flush()
}

// ParseMetrics validates Prometheus text exposition format and returns
// the number of samples (non-comment lines). It checks metric-name
// syntax, balanced label braces, quoted label values, and a parseable
// float value — the round-trip check CI's endpoint smoke test and
// jqos-stat -checkmetrics rely on.
func ParseMetrics(r io.Reader) (samples int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := parseSample(line); err != nil {
			return samples, fmt.Errorf("line %d: %w (%q)", lineNo, err, line)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	if samples == 0 {
		return 0, fmt.Errorf("no samples found")
	}
	return samples, nil
}

// parseSample validates one `name{labels} value` line.
func parseSample(line string) error {
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return fmt.Errorf("missing metric name")
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return fmt.Errorf("unbalanced label braces")
		}
		if err := parseLabels(rest[1:end]); err != nil {
			return err
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return fmt.Errorf("missing value")
	}
	// An optional timestamp may follow the value.
	fields := strings.Fields(rest)
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("bad value %q", fields[0])
	}
	return nil
}

// parseLabels validates a comma-separated `name="value"` list (values may
// not contain embedded quotes — the writer never emits them).
func parseLabels(s string) error {
	if s == "" {
		return nil
	}
	for _, pair := range strings.Split(s, ",") {
		eq := strings.Index(pair, "=")
		if eq <= 0 {
			return fmt.Errorf("bad label pair %q", pair)
		}
		name, val := pair[:eq], pair[eq+1:]
		for j := 0; j < len(name); j++ {
			if !isNameChar(name[j], j == 0) {
				return fmt.Errorf("bad label name %q", name)
			}
		}
		if len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
			return fmt.Errorf("unquoted label value %q", val)
		}
	}
	return nil
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}
