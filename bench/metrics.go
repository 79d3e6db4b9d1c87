package main

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go checks the
// two stay identical. bound is the share of the baseline median by which
// an end-to-end metric may worsen before -compare calls it a regression
// (per-layer metrics have none).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the ten metrics a user of the overlay would see; every one
// is reported on every workload. Host-time metrics are medians (of the
// five rounds, or of the repeated set-ups); simulated metrics cover the
// whole timed region. The simulated bounds are wider than the quartile
// spread each metric shows across seeds (README.md records the ranges), so
// a refactor that only perturbs RNG draw order is not read as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pkts_per_s", "pkt/s", "higher", 0.25},
	{"allocs_per_pkt", "allocs/pkt", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"delivered_frac", "fraction", "higher", 0.003},
	{"on_time_frac", "fraction", "higher", 0.01},
	{"latency_p50_ms", "ms", "lower", 0.03},
	{"latency_p99_ms", "ms", "lower", 0.05},
	{"cloud_overhead", "ratio", "lower", 0.05},
	{"max_gap_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics, named <module>.<metric>. Source:
// S = spans of the traced round, C = exact counts from public accessors,
// D = isolated drivers in layers.go.
var perLayer = []metricDef{
	// jqos (root package)
	{"jqos.flow_send_ns_per_pkt", "ns/pkt", "lower", 0},     // S
	{"jqos.dc_handle_ns_per_pkt", "ns/pkt", "lower", 0},     // S
	{"jqos.dc_handle_calls_per_pkt", "1/pkt", "lower", 0},   // S
	{"jqos.host_handle_ns_per_pkt", "ns/pkt", "lower", 0},   // S
	{"jqos.host_handle_calls_per_pkt", "1/pkt", "lower", 0}, // S
	{"jqos.timers_ns_per_pkt", "ns/pkt", "lower", 0},        // S: Run self time − netem.kernel_ns_per_pkt
	{"jqos.register_us_p50", "us", "lower", 0},              // S
	{"jqos.register_us_p99", "us", "lower", 0},              // S
	{"jqos.close_us_p50", "us", "lower", 0},                 // S
	{"jqos.alloc_bytes_per_pkt", "B/pkt", "lower", 0},       // C
	{"jqos.round_slowdown", "ratio", "lower", 0},            // round 1 ÷ round 5 pkts_per_s
	// netem
	{"netem.events_per_pkt", "1/pkt", "lower", 0},     // C
	{"netem.events_per_s", "1/s", "higher", 0},        // C
	{"netem.pending_mean", "count", "lower", 0},       // C
	{"netem.event_ns", "ns", "lower", 0},              // D
	{"netem.link_send_ns", "ns", "lower", 0},          // D
	{"netem.kernel_ns_per_pkt", "ns/pkt", "lower", 0}, // events_per_pkt × event_ns
	// wire
	{"wire.append_ns", "ns", "lower", 0}, // D
	{"wire.split_ns", "ns", "lower", 0},  // D
	// coding
	{"coding.encoder_ondata_ns", "ns", "lower", 0},          // D
	{"coding.recoverer_oncoded_ns", "ns", "lower", 0},       // D
	{"coding.recoverer_deadline_ns", "ns", "lower", 0},      // D
	{"coding.recoverer_batches_live", "count", "lower", 0},  // C
	{"coding.coded_per_pkt", "1/pkt", "lower", 0},           // C
	{"coding.coded_bytes_frac", "fraction", "lower", 0},     // C
	{"coding.nacks_per_kpkt", "1/kpkt", "lower", 0},         // C
	{"coding.coop_recovered_frac", "fraction", "higher", 0}, // C
	// rs
	{"rs.encode_ns_per_batch", "ns", "lower", 0}, // D
	{"rs.encode_mb_per_s", "MB/s", "higher", 0},  // D
	{"rs.reconstruct_ns", "ns", "lower", 0},      // D
	// recovery
	{"recovery.ondata_ns", "ns", "lower", 0},             // D
	{"recovery.nacks_per_kpkt", "1/kpkt", "lower", 0},    // C
	{"recovery.recovered_frac", "fraction", "higher", 0}, // C
	{"recovery.gaveup_per_kpkt", "1/kpkt", "lower", 0},   // C
	{"recovery.duplicates_per_pkt", "1/pkt", "lower", 0}, // C
	// cache
	{"cache.put_ns", "ns", "lower", 0},          // D
	{"cache.get_ns", "ns", "lower", 0},          // D
	{"cache.puts_per_pkt", "1/pkt", "lower", 0}, // C
	{"cache.hit_frac", "fraction", "higher", 0}, // C
	{"cache.live_items", "count", "lower", 0},   // C
	// forward
	{"forward.route_ns", "ns", "lower", 0},              // D
	{"forward.copies_per_pkt", "1/pkt", "lower", 0},     // C
	{"forward.old_epoch_resolves", "count", "lower", 0}, // C
	{"forward.noroute_drops", "count", "lower", 0},      // C
	// sched
	{"sched.enq_deq_ns", "ns", "lower", 0},      // D
	{"sched.enq_per_pkt", "1/pkt", "lower", 0},  // C
	{"sched.drop_frac", "fraction", "lower", 0}, // C
	{"sched.queued_bytes_max", "B", "lower", 0}, // C
	// load / tenant
	{"load.bucket_admit_ns", "ns", "lower", 0},           // D
	{"load.record_ns", "ns", "lower", 0},                 // D
	{"tenant.admit_ns", "ns", "lower", 0},                // D
	{"load.admission_drop_frac", "fraction", "lower", 0}, // C
	{"tenant.quota_drop_frac", "fraction", "lower", 0},   // C
	// feedback
	{"feedback.flow_signals", "count", "lower", 0},     // C
	{"feedback.rate_cuts", "count", "lower", 0},        // C
	{"feedback.rate_recoveries", "count", "higher", 0}, // C
	// routing
	{"routing.recomputes", "count", "lower", 0},           // C
	{"routing.incremental_frac", "fraction", "higher", 0}, // C
	{"routing.reroutes", "count", "lower", 0},             // C
	{"routing.detect_ms_p50", "ms", "lower", 0},           // C (simulated)
	{"routing.set_health_us", "us", "lower", 0},           // D
	// telemetry
	{"telemetry.snapshot_us_p50", "us", "lower", 0},    // S
	{"telemetry.snapshot_us_p90", "us", "lower", 0},    // S
	{"telemetry.trace_events", "count", "lower", 0},    // C
	{"telemetry.spans_finished", "count", "higher", 0}, // C
	// overlay
	{"overlay.select_ns", "ns", "lower", 0}, // D
	// cross-checks, not gated
	{"ledger.explained_frac", "fraction", "higher", 0},
	{"trace.overhead_frac", "fraction", "lower", 0},
	{"calib.spin_ms", "ms", "lower", 0},
}
