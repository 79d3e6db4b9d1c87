// Package jqos is a from-scratch implementation of J-QoS — "Judicious QoS
// using Cloud Overlays" (Haq, Doucette, Byers, Dogar; CoNEXT 2020) — a
// framework that augments the best-effort Internet with three cloud-based
// reliability services at different cost/latency trade-offs:
//
//   - forwarding: relay packets over the cloud overlay (cost 2c),
//   - caching: store copies at the DC near the receiver and serve pulls on
//     loss (cost c),
//   - coding (CR-WAN): ship a small number of cross-stream coded packets
//     over the cloud and repair losses via cooperative recovery (cost α·c).
//
// Applications register a FlowSpec — destination, latency budget, and
// optional policy (tenant, overlay path preference, event subscriber);
// the framework picks the cheapest service whose predicted
// delivery latency fits (§3.5), upgrades the service when observed
// deliveries violate the budget, and steps back down (with hysteresis)
// after sustained over-delivery.
//
// The package wires the protocol engines (internal/coding,
// internal/recovery, internal/cache, internal/forward) onto a deterministic
// discrete-event network emulator (internal/netem), so whole wide-area
// deployments run in-process and reproducibly. The same engines run over
// real UDP sockets via internal/transport and cmd/jqos-relay.
//
// # Data plane
//
// What a DC does with a message is one sans-IO core, dataplane.Core:
// service dispatch, and the one function that picks the hop a message
// leaves on (pinned path, epoch-tagged table, direct link). Tables name
// DCs only: a host or group is reached through the tagged route to its
// home DC, which delivers over its direct link. The core asks its runtime
// four things through dataplane.Env — is this hop linked, which DC is this
// host's home, what is this flow's path-policy key, send these bytes.
// DCNode is the emulator backend: it adds the probe and congestion control
// channel, trace spans, and an egress through the per-link scheduler and
// load registry, where cloud egress is billed (EgressBytes).
// transport.Relay is the socket backend: it adds a UDP endpoint, a mutex
// and a wall-clock timer.
//
// # Routing control plane
//
// Overlays need not be full meshes: internal/routing holds the inter-DC
// link graph, computes all-pairs shortest paths (deterministic Dijkstra,
// plus Yen k-alternate paths), and pushes DC→DC next-hop tables to every
// DC's forwarder, so forwarded traffic crosses as many overlay hops as the
// graph requires; a host or group only records its home DC (AttachHost).
// Every link event — edit, health verdict, utilization reweight —
// recomputes every source's tree on one index-space Dijkstra, so the
// tables depend on the graph's state alone, never on the order of the
// events that led there (a differential test holds them to a controller
// built fresh from the same links).
//
// Table pushes are make-before-break. Each recompute that moves a route
// opens a new table EPOCH at every forwarder; cloud copies are stamped at
// the ingress DC with the epoch they entered under (a 2-bit wire tag), and
// transit DCs resolve old-epoch packets — hop re-resolution included —
// against the retiring table for a 200 ms drain window before the
// overlay is dropped. A reroute therefore never re-resolves traffic
// already in flight: on a healthy path change (say a congestion-priced
// link) old packets finish on the path they started, new packets take
// the new one, and nothing blackholes, loops, or arrives out of order.
//
// A link-health monitor probes each inter-DC link, maintains RTT/loss
// estimates, and on failure, degradation past a threshold, or recovery
// triggers recomputation and a route re-push — flows reroute around
// mid-path failures with no sender involvement. Probing is adaptive:
// healthy links amble at Config.Monitor.ProbeInterval (500 ms default),
// while a link that is down, degraded, or just lost a probe drops to a
// 25 ms cadence with a tightened timeout. What that buys is bounded
// overhead, not sub-100 ms detection: a link that dies between two
// healthy-pace probes is first missed when its next probe times out —
// up to one ProbeInterval plus the 200 ms timeout floor later — and only
// the remaining two strikes run at the fast cadence (the benchmark's
// mesh_faults world measures a median of ≈ 570 ms from fault to
// link-down).
//
// Fault injection and link inspection go through one surface:
// Deployment.Link(a, b) returns a LinkHandle with Set / SetOneWay /
// Disconnect / DisconnectOneWay / Reconnect / ReconnectOneWay mutators
// plus Shape, Health, Load, and SetCapacity accessors. The topology's
// PathOracle is the routing controller: it answers the routed latency
// between DCs, so PredictDelay and RegisterFlow work on sparse graphs
// too, and every host's home DC, which nothing else keeps.
//
// # Flow API
//
// Deployment.RegisterFlow takes a FlowSpec. Beyond the classic
// destination+budget pair it can join a tenant whose contract caps
// egress spend (TenantContract.CostCeilingPerGB), choose the overlay path among the controller's k-alternates
// (PathPolicy: fastest, cheapest, or pinned to the k-th alternate —
// enforced per flow in the DC forwarders), and subscribe to the flow's
// control-loop events (FlowSpec.OnEvent: service changes, reroutes,
// budget violations, drops and congestion signals as the trace ring
// records them) instead of polling Metrics(). After every routing
// recompute one pass re-derives the flows' paths: dead pins re-resolve,
// PathFastest follows the new primary, RepinOnHeal returns to a healed
// preferred path, each move one reroute event.
//
// # Load-aware traffic engineering
//
// The overlay's resources are finite, and judicious use means measuring
// them: every DC egress is metered per (inter-DC link, service class)
// into sliding-window rate meters (internal/load), and
// Link(a, b).Load exposes the live rates, peaks, and utilization
// (against Config.LinkCapacity / Link(a, b).SetCapacity accounting
// capacities). Once any link has a capacity, a reporter feeds
// utilization into the routing controller every 500 ms, which inflates
// hot links' path weights M/M/1-style above a 60 % knee — with
// hysteresis, so routes spread away from congested links without
// flapping — and Snapshot().Routing counts the resulting congestion
// reroutes. On the admission side, FlowSpec.Rate declares a per-flow
// token-bucket contract enforced at the ingress: excess cloud copies are
// dropped (an admission-drop event), so one greedy flow cannot congest
// the overlay for everyone else. Flows are torn down with Flow.Close, which releases
// their routing pins and receiver state.
//
// # Egress scheduling
//
// Routing around a hot link and policing greedy flows still leave one
// gap: inside a single saturated link, a FIFO serves bulk backlog ahead
// of interactive packets. Config.Scheduler closes it with per-class
// weighted fair queueing at every inter-DC egress — a deficit-round-
// robin scheduler (internal/sched) with one queue per service class,
// paced at the link's accounting capacity, so interactive classes
// preempt bulk INSIDE the link instead of only around it:
//
//	cfg := jqos.DefaultConfig()
//	cfg.LinkCapacity = 1_000_000 // pace each link at 1 MB/s — required:
//	                             // an uncapacitated link drains unpaced
//	                             // and the scheduler has nothing to do
//	cfg.Scheduler = jqos.SchedulerConfig{
//	    Weights: map[jqos.Service]int{ // link shares under contention
//	        jqos.ServiceForwarding: 8, // interactive classes first
//	        jqos.ServiceCaching:    1,
//	    },
//	    QueueBytes: 64 << 10, // per-class cap; excess drops from the tail
//	}
//
// Data, coded parity, and cloud copies all pass the scheduler; control
// probes bypass it. The scheduler is work-conserving (an idle class's
// share flows to backlogged ones), per-class queues are byte-capped
// with drop-from-tail accounting (surfaced per flow as
// FlowMetrics.EgressDropped and an egress-drop event), and the load
// meters feed on DEQUEUE, so Link(a, b).Load reports what actually left
// the DC rather than what piled up. Snapshot().Queue(a, b) exposes
// per-class enqueued/dequeued/dropped counters, live queue depth, and
// deficit rounds per directed link. Nil Weights (the default) disables
// scheduling: egress is a FIFO pass-through. Run `jqos-figures -fig
// fairshare -quick` to see it on worlds.NewContended (internal/worlds:
// one 1 MB/s link, two bulk flows offering twice that, one interactive flow).
//
// # Congestion feedback
//
// The scheduler knows a queue is building seconds before its byte cap
// drops anything — Config.Feedback turns that knowledge into ECN-style
// backpressure instead of letting the damage happen. Each class queue
// is classified against configurable watermarks
// (Config.Scheduler.LowWatermark / HighWatermark, fractions of the
// byte cap): it flips Hot crossing the high watermark and cools back
// off below the low one (full hysteresis, allocation-free on the
// egress hot path). Transitions are batched per DC for 10 ms and fanned
// out over the control channel —
// hop-by-hop TypeCongestion messages that bypass the schedulers they
// report on — to every ingress DC whose flows traverse the affected
// (link, class), via a subscription registry maintained on
// register/pin/reroute/close.
//
// At the ingress the reaction depends on the flow. Flows with a Rate
// contract get an AIMD pacer: a Hot signal cuts the admission bucket's
// refill rate multiplicatively toward a floor, and once the queue
// cools the rate recovers additively back to the contract (volume
// moved under a cut is FlowMetrics.PacedBytes).
// Unpaced adaptive flows feed the signal into the adaptation loop and
// move service PREEMPTIVELY — down to a cheaper tier that still fits
// the budget when one exists, else up past the backlog — instead of
// waiting for a budget-violation window (ServiceChange reason
// "congestion", cooldown-bounded). FlowSpec.OnEvent hears every
// delivered signal before the reaction it triggers; Snapshot().Feedback
// counts the plane's activity.
//
// The scheduler also makes admission scheduler-aware — with or
// without feedback enabled, whenever Config.Scheduler is on:
// RegisterFlow sizes Rate/Burst contracts against the class's WEIGHTED
// SHARE of the path's bottleneck capacity (weights from
// Config.Scheduler, capacities from the link registry) rather than the
// whole link — a contract that could never be honored under contention
// is rejected; service moves and reroutes re-size it against the new
// class share. Run `jqos-figures -fig backpressure -quick` (the same
// worlds.NewContended link, its bulk flows now contracted and in the
// interactive flow's class): an interactive budget held at ≥95% with the
// class's egress drops cut to zero, where the scheduler alone tail-drops
// steadily.
//
// # Observability
//
// Every control loop above leaves a numeric trail, and internal/telemetry
// unifies them into one plane instead of four poll calls.
// Deployment.Snapshot builds a single coherent, JSON-serializable view —
// per-link load with per-class rollups, per-queue scheduler counters,
// per-flow delivery metrics with latency quantiles, routing and feedback
// counters, aggregate totals, and the deployment's standing metrics (a
// snapshot counter and fixed-bucket histograms for delivery latency vs.
// budget, pacer rate, and queue depth). Deployment.TraceEvents
// drains a bounded, allocation-free ring of structured control-loop
// events — service changes, reroutes, congestion signals, pacer cuts and
// recoveries, admission and egress drops, cost and budget violations —
// stamped with SIMULATED time so two same-seed runs produce byte-identical
// traces. Each flow-scoped event is emitted at one site (Flow.emit), which
// records it and hands the recorded event to FlowSpec.OnEvent: the ring
// and a subscriber can never disagree.
//
// Aggregates tell you THAT a budget was blown; hop-level attribution
// tells you WHERE. Setting FlowSpec.TraceSampling to a fraction in
// (0, 1] stamps that share of the flow's cloud copies with a trace tag
// in the wire header (internal/wire FlagTraced), and every choke point
// a tagged packet crosses records a span: admission-bucket and pacer
// wait at the ingress, per-(link, class) DRR queue wait at each
// scheduler, per-hop propagation, loss-recovery delay, and a relay
// remainder absorbing whatever the probes did not measure — components
// that sum EXACTLY to the packet's end-to-end latency. Finished traces
// fold into Snapshot.Attribution: a budget spend profile per flow
// (total and late-only nanoseconds per component, a latency histogram,
// and per-component shares answering "where did the budget go?"), a
// queue-wait aggregate per (link, class) that pins a saturated queue
// from the flow's side, and an always-on reservoir of the most recent
// late deliveries with their full component breakdowns. Sampling costs
// nothing when off (the send path stays allocation-free) and one
// bounded table when on; see BenchmarkHopRecord.
//
// On top of the same delivery stream sits a continuous SLO engine
// (Config.Telemetry.SLO). Each budgeted flow — and each class and
// tenant rollup — gets a multi-window burn-rate tracker in the style
// of SRE alerting: the miss fraction over a fast and a slow window,
// divided by the objective's error allowance, yields a burn rate;
// fast-window burn past AtRiskBurn marks the tracker AtRisk, and both
// windows past ViolatedBurn mark it Violated. Recovery is
// hysteresis-guarded (ClearHold) so a flapping flow cannot oscillate,
// and a blackholed flow — sending but delivering nothing — is caught
// by synthetic misses rather than waiting on deliveries that never
// arrive. State transitions emit KindSLODegrade/KindSLORecover trace
// events and count into Snapshot.SLO alongside per-tracker states,
// burn rates, and windowed hit/miss totals; internal/chaos asserts
// the engine DURING fault injection (no false Violated on unaffected
// flows while links degrade elsewhere).
//
// telemetry.Serve exposes the latest published snapshot as Prometheus
// text (/metrics, including jqos_slo_* and jqos_attribution_*
// families), JSON (/snapshot), the SLO view alone (/slo), and the
// trace (/trace, paginated by ?since and ?max) alongside
// net/http/pprof; cmd/jqos-stat pretty-prints either from a live
// endpoint or a saved snapshot file:
//
//	snap := dep.Snapshot() // build and publish one snapshot
//	fmt.Println(snap.Summary())
//	srv, _ := telemetry.Serve("127.0.0.1:0", dep)
//	defer srv.Close()
//	// curl $URL/metrics, /snapshot, /slo, /trace; jqos-stat -addr $ADDR
//
// # Chaos testing
//
// Five interlocking control loops (routing, adaptation, admission,
// scheduling, pacing) are only trustworthy if they hold up under
// adversarial networks, so internal/chaos runs scripted fault timelines
// against a live deployment and checks system invariants afterwards. A
// chaos.Scenario is a list of timed steps — degrade a link (latency +
// random loss), degrade one direction only, partition symmetrically or
// asymmetrically, switch a link to bursty Gilbert-Elliott loss, flap
// with a period faster than the probe hysteresis, crash and heal every
// link of a DC — compiled by chaos.Bind into prebuilt delay/loss models
// and direct link pointers, so applying a step is pure pointer swaps
// (0 allocs/op; injection never perturbs the run it is measuring):
//
//	sc := chaos.Scenario{Name: "flap", Steps: chaos.Flap(time.Second, dc1, dc2, 300*time.Millisecond, 4)}
//	eng, _ := chaos.Bind(dep, sc)
//	eng.Schedule() // applies each step at its simulated time
//
// After the timeline heals and the run quiesces, chaos.Check* evaluate
// the invariants: routing reconverged (no unreachable pairs), no
// stranded pacers (every cut recovered once its queues left Hot), the
// accounting balances (per-class egress bytes sum to direction totals;
// trace ByKind counts match the flow/feedback counters), and — after
// Flow.Close — no leaked receiver, registry, or pin state. chaos.Fuzz
// derives a randomized scenario from a seed (same seed → byte-identical
// Timeline), and cmd/jqos-chaos soaks N seeded runs, printing per-run
// verdicts and writing failing seeds' timelines and final snapshots:
//
//	jqos-chaos -runs 100 -seed 1          # CI smoke
//	jqos-chaos -runs 1 -seed 1337 -v      # reproduce a failed seed
//
// # Tenancy
//
// Every limit above is per flow, and a per-flow limit is trivially
// evaded by splitting one workload into many small flows.
// Deployment.RegisterTenant makes the CUSTOMER the enforcement unit
// (internal/tenant): a TenantContract carries an aggregate admission
// quota (one token bucket shared by ALL the tenant's flows' cloud
// copies, consulted before any per-flow Rate contract), an egress-cost
// budget in $/GB (the volume-weighted aggregate spend is re-checked on
// the adaptation cadence; a violation forces the tenant's most
// expensive adaptive flow down a tier), and — under Config.Feedback —
// ONE aggregate AIMD pacer state per congested (link, class), so
// sibling flows crossing the same hot queue back off as one cut
// instead of N independent ones. Flows join a tenant via
// FlowSpec.Tenant; a thousand small flows and one big flow then hit
// exactly the same ceilings. Per-flow sub-queues
// (Scheduler.PerFlowQueues) keep flows fair INSIDE each class queue,
// so a tenant's own bulk flow cannot starve its interactive one.
// Snapshot carries a per-tenant rollup slice (Snapshot.Tenants,
// exposed over /snapshot and by jqos-stat), and TenantStats reads one
// tenant's slice on demand:
//
//	dep.RegisterTenant(jqos.TenantContract{
//	    ID: 1, Name: "acme", Rate: 512 << 10, CostCeilingPerGB: 0.06,
//	})
//	dep.RegisterTenant(jqos.TenantContract{ID: 2, Name: "umbrella", Rate: 256 << 10})
//	fa, _ := dep.RegisterFlow(jqos.FlowSpec{
//	    Src: src1, Dst: dst1, Budget: 150 * time.Millisecond, Tenant: 1,
//	})
//	fb, _ := dep.RegisterFlow(jqos.FlowSpec{
//	    Src: src2, Dst: dst2, Budget: 150 * time.Millisecond, Tenant: 2,
//	})
//	_, _ = fa, fb
//	dep.Run(10 * time.Second)
//	ts, _ := dep.TenantStats(1) // quota drops, est. spend, pacer state
//
// Run `jqos-figures -fig tenancy -quick` to see it on worlds.Bottleneck.
//
// # Time
//
// Everything runs on the emulator's virtual clock, and everything that
// waits does so through one of three forms (internal/netem). A one-shot
// event (Simulator.At / After) is for work that happens once and is
// never cancelled: a probe's timeout, a table epoch retiring. A netem.Timer is a re-armable
// deadline allocated once with its callback: DC and host nodes Reset it
// to their engines' earliest deadline after every handled message (a
// superseded firing drains as a no-op), and the batch-flush, hot-queue
// refresh, pacer-recovery and egress-pump sites Arm it — "make sure a
// run is coming" — and re-arm from the callback while there is work
// left. A netem.Ticker is a periodic loop that parks: flow adaptation,
// the tenant cost check, the load reporter and the SLO sweeper each
// re-arm one interval after every round until two consecutive rounds
// see no application send and the loop has nothing left to settle
// (utilization still draining, an SLO tracker still elevated), then
// stop scheduling. That is why RunUntilQuiet returns: an
// idle deployment drains to an empty event heap. Flow.Send wakes every
// parked loop through one activity counter; the Link handle's fault
// injectors and NudgeFaultDetection wake the probers and the load
// reporter, so a fault injected into an idle deployment is still
// detected. Link probers follow the same discipline on a bare Timer
// (their cadence adapts per round and a fault grants them a burst of
// rounds that traffic neither clears nor spends). A new periodic loop
// is a Ticker; never re-arm from After by hand.
//
// None of this rescans live state per packet. The pending events sit in
// a typed 4-ary heap by value, so scheduling and running one allocates
// nothing; each Timer arm is still one event with a fresh sequence
// number (skipping an unchanged re-arm would move the firing ahead of
// same-instant arrivals and change every seeded output). The deadline a
// DC asks its engines for after every message is a comparison of cached
// heads: the recoverer's batch, recovery and parked-NACK lifetimes are
// each "now + a constant", so each is a FIFO queue in expiry order with
// stale entries dropped lazily, and the encoder caches its earliest
// open-queue deadline. Both rely on the clock they are fed never
// stepping back, which the simulator and the socket runtime guarantee.
//
// # Tuning constants
//
// Config describes a deployment; how its mechanisms are tuned is fixed in
// unexported constants beside the code that reads them, each equal to the
// value every example, experiment and benchmark world has always run.
// Receivers (internal/recovery, §3.4, §6.2.1): SmallTimeout 25 ms, up to
// 3 NACKs per loss RTT/4 apart, give-up at 4×RTT, a window of 128
// packets. DC recoverer
// (coding.DefaultRecovererConfig, §4.4, §6.1): parity kept 2 s, helper
// deadline 250 ms, late-parity wait 500 ms, spurious-recovery check on;
// the cache is bounded by CacheTTL alone. Adaptation
// (internal/overlay/adapt.go, §3.5): upgradeOnTime 0.95, downgradeOnTime
// 0.99, downgradeAfter 3 windows of at least windowMin 20 deliveries,
// congestionCooldown 2 s. Routing (jqos.go): kAltPaths 2, routeDrain
// 200 ms. Link health (internal/routing/monitor.go): probeTimeout 200 ms,
// fastProbeInterval and fastProbeTimeout 25 ms, failAfter 3,
// recoverAfter 3, degradeLoss 0.25, clearLoss 0.10, lossWindow 16,
// ewmaAlpha 0.3, refreshFraction 0.25. Load (loadreport.go, internal/routing/congestion.go): loadWindow
// 1 s, loadReportInterval 500 ms, congestKnee 0.6, congestMaxUtil 0.95,
// congestHysteresis 0.25. Scheduler (internal/sched): quantum 1500 B.
// Feedback (feedback.go, internal/feedback): signalInterval 10 ms,
// pacerRecoverInterval 250 ms; pacers halve per Hot signal down to 1/8
// of the contract and regain 1/10 per step.
// Telemetry (telemetry.go): traceCapacity 4096 events.
//
// # Quick start
//
//	cfg := jqos.DefaultConfig()
//	cfg.LinkCapacity = 1_000_000 // pace and meter each link at 1 MB/s
//	cfg.Scheduler = jqos.SchedulerConfig{Weights: map[jqos.Service]int{
//	    jqos.ServiceForwarding: 8, jqos.ServiceCaching: 1,
//	}}
//	cfg.Feedback.Enabled = true // queue watermarks pace contracted flows
//	dep := jqos.NewDeploymentWithConfig(42, cfg)
//	dc1 := dep.AddDC("us-east", dataset.RegionUSEast)
//	dc2 := dep.AddDC("eu-west", dataset.RegionEU)
//	dep.ConnectDCs(dc1, dc2, 40*time.Millisecond)
//	src := dep.AddHost(dc1, 5*time.Millisecond)
//	dst := dep.AddHost(dc2, 8*time.Millisecond)
//	dep.SetDirectPath(src, dst,
//	    netem.UniformJitter{Base: 50 * time.Millisecond, Jitter: 2 * time.Millisecond},
//	    &netem.GilbertElliott{PGoodToBad: 0.001, PBadToGood: 0.3, LossBad: 0.9})
//	flow, _ := dep.RegisterFlow(jqos.FlowSpec{
//	    Src: src, Dst: dst,
//	    Budget: 200 * time.Millisecond,
//	    // Admission contract: 512 kB/s of cloud copies with 64 kB of
//	    // burst tolerance — validated against the forwarding class's
//	    // weighted link share, and AIMD-paced when egress queues run hot.
//	    Rate:  512 << 10,
//	    Burst: 64 << 10,
//	})
//	flow.Send([]byte("hello"))
//	dep.Run(time.Second)
//	// Fault-inject through the link handle: degrade, let the monitor
//	// reroute (make-before-break), then restore the connected shape.
//	dep.Link(dc1, dc2).Set(120*time.Millisecond, 0.05)
//	dep.Run(time.Second)
//	dep.Link(dc1, dc2).Reconnect()
//	flow.Close()
package jqos

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"jqos/internal/coding"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/load"
	"jqos/internal/netem"
	"jqos/internal/overlay"
	"jqos/internal/routing"
	"jqos/internal/tenant"
	"jqos/internal/wire"
)

// Re-exported identity types so example code rarely needs internal imports.
type (
	// NodeID identifies a host or DC.
	NodeID = core.NodeID
	// FlowID identifies a registered stream.
	FlowID = core.FlowID
	// Seq is a per-flow sequence number.
	Seq = core.Seq
	// Service is a J-QoS reliability service.
	Service = core.Service
	// Delivery is a packet surfaced to a receiving endpoint.
	Delivery = core.Delivery
	// TenantID identifies a registered tenant contract (0 = untenanted).
	TenantID = core.TenantID
)

// Services, re-exported.
const (
	ServiceInternet   = core.ServiceInternet
	ServiceCoding     = core.ServiceCoding
	ServiceCaching    = core.ServiceCaching
	ServiceForwarding = core.ServiceForwarding
)

// Config says what a deployment is: coding parameters, cache lifetime,
// control-loop cadences, link capacities, and which optional planes run.
// How the mechanisms are tuned is not configuration — see "Tuning
// constants" in the package documentation.
type Config struct {
	// Encoder configures the CR-WAN DC1 engines: the paper's k, r and s
	// and the batch timing (§6.2.1).
	Encoder coding.EncoderConfig
	// CacheTTL is the caching service's packet lifetime.
	CacheTTL time.Duration
	// UpgradeInterval is how often flows re-evaluate their service
	// against the budget (0 disables adaptation entirely).
	UpgradeInterval time.Duration
	// Monitor.ProbeInterval is the inter-DC link-health probe period of a
	// healthy link. Zero disables active probing (routes still follow
	// explicit graph edits).
	Monitor struct{ ProbeInterval time.Duration }
	// LinkCapacity is the default accounting capacity assumed for every
	// inter-DC link in utilization telemetry, in bytes/second. Zero means
	// uncapacitated: the link never reads as congested, and measured
	// utilization is not fed to routing. Override per link with
	// Link(a, b).SetCapacity.
	LinkCapacity int64
	// Scheduler enables per-class weighted fair queueing (deficit round
	// robin) at every inter-DC egress: a per-class weight map, per-queue
	// byte caps with drop-from-tail accounting, work-conserving. The
	// scheduler paces each link at its accounting capacity
	// (Config.LinkCapacity / Link(a, b).SetCapacity), so interactive
	// classes preempt bulk INSIDE a saturated link instead of only routing
	// around it. The capacity is load-bearing: a link left uncapacitated
	// drains inline — an unpaced pass-through with nothing to arbitrate,
	// no different from FIFO — so set LinkCapacity (or SetCapacity per
	// link) whenever Weights is. Nil Weights (the default) disables
	// scheduling: egress is a FIFO pass-through.
	Scheduler SchedulerConfig
	// Feedback enables ECN-style congestion feedback on top of the
	// scheduler: egress queue-depth watermark transitions flow back to
	// the ingresses, Rate-contracted flows pace with AIMD, unpaced flows
	// adapt their service preemptively, and RegisterFlow sizes admission
	// contracts against class shares. Requires Scheduler (the signal
	// source); ignored without it.
	Feedback FeedbackConfig
	// Telemetry configures the SLO engine. The zero value means it is
	// off; Deployment.Snapshot builds and publishes on demand, and the
	// control-loop trace is always on.
	Telemetry TelemetryConfig
}

// DefaultConfig returns the paper's deployment defaults.
func DefaultConfig() Config {
	cfg := Config{
		Encoder:         coding.DefaultEncoderConfig(),
		CacheTTL:        2 * time.Second,
		UpgradeInterval: 5 * time.Second,
	}
	cfg.Monitor.ProbeInterval = 500 * time.Millisecond
	return cfg
}

const (
	// kAltPaths is how many overlay paths the routing control plane
	// keeps per DC pair: the primary and one alternate.
	kAltPaths = 2
	// routeDrain is the make-before-break drain window: after a recompute
	// changes next-hop tables, the previous version stays resolvable this
	// long, so packets stamped with the old epoch finish on the path they
	// started.
	routeDrain = 200 * time.Millisecond
)

// Deployment is one emulated J-QoS world: a simulator, a network, a cloud
// topology, DC nodes running the services, and host endpoints.
type Deployment struct {
	cfg  Config
	sim  *netem.Simulator
	net  *netem.Network
	topo *overlay.Topology
	ctrl *routing.Controller
	mon  *routing.Monitor

	// loadReg meters egress per (inter-DC link, service class); loadRep
	// periodically converts its utilization readings into the routing
	// controller's congestion weights (see loadreport.go).
	loadReg *load.Registry
	loadRep *loadReporter

	// fb is the congestion-feedback plane (nil when Config.Feedback is
	// off or scheduling is disabled — no queues, no signal).
	fb *feedbackPlane

	// tel is the telemetry plane: standing metrics, control-loop trace
	// ring, and the published-snapshot slot (see telemetry.go). Always
	// non-nil; the SLO engine runs per Config.Telemetry.
	tel *telemetryPlane

	// tenants is the multi-tenant control plane: per-customer contracts
	// enforcing aggregate admission quotas, egress-cost budgets, and
	// one-backoff-per-bottleneck congestion pacing across each tenant's
	// member flows (see tenant.go).
	tenants *tenant.Registry
	// Tenant control loops: the cost-budget ticker (UpgradeInterval
	// cadence; nil until a tenant declares a cost ceiling) and the
	// aggregate-pacer additive-recovery timer (pacerRecoverInterval
	// cadence, re-armed while any tenant is throttled).
	tenantCost  *netem.Ticker
	tenantPacer *netem.Timer

	// pass and passNotes are the post-recompute pass's buffers
	// (onRecompute), reused so an idle pass allocates nothing.
	pass      []*Flow
	passNotes []pathNote

	// nextNode and nextFlow are the next IDs to allocate; a flow ID below
	// nextFlow that open does not hold names a closed flow.
	nextNode core.NodeID
	nextFlow core.FlowID

	dcs   map[core.NodeID]*DCNode
	hosts map[core.NodeID]*Host

	// pool holds the message buffers that DCs consume — parity, NACKs,
	// pulls, coop and verify responses — for every DC and host to draw
	// from, and the DCs hand each back once read (dataplane.Core.Handle).
	pool wire.Pool

	// open holds the open flows in ascending ID order, which is
	// registration order: RegisterFlow appends, Flow.Close removes, every
	// walk over flows ranges it and flow binary-searches it.
	open []*Flow

	// Link-health probing (see probe.go). activity counts application
	// sends; probers park when it stops moving so the simulator can drain.
	probers  []*prober
	activity uint64
}

// NewDeployment creates an empty deployment with default config.
func NewDeployment(seed int64) *Deployment {
	return NewDeploymentWithConfig(seed, DefaultConfig())
}

// NewDeploymentWithConfig creates an empty deployment.
func NewDeploymentWithConfig(seed int64, cfg Config) *Deployment {
	sim := netem.NewSimulator(seed)
	ctrl := routing.NewController(kAltPaths)
	d := &Deployment{
		cfg:      cfg,
		sim:      sim,
		net:      netem.NewNetwork(),
		topo:     overlay.NewTopology(ctrl),
		ctrl:     ctrl,
		nextNode: 1,
		nextFlow: 1,
		dcs:      make(map[core.NodeID]*DCNode),
		hosts:    make(map[core.NodeID]*Host),
		tenants:  tenant.NewRegistry(),
	}
	d.tenantPacer = sim.NewTimer(d.tenantPacerRun)
	d.loadReg = load.NewRegistry(loadWindow)
	d.tel = newTelemetryPlane(d, cfg.Telemetry)
	d.mon = routing.NewMonitor(d.ctrl, cfg.Monitor.ProbeInterval)
	d.ctrl.OnRecompute = d.onRecompute
	d.ctrl.OnEpochAdvance = d.onEpochAdvance
	if cfg.Feedback.Enabled && cfg.Scheduler.Enabled() {
		d.fb = newFeedbackPlane(d)
	}
	return d
}

// onEpochAdvance runs after a recompute that modified next-hop tables
// opened a new table epoch: hold the previous version live for the drain
// window, then retire it everywhere.
func (d *Deployment) onEpochAdvance(epoch uint64) {
	d.sim.After(routeDrain, func() { d.ctrl.RetireEpoch(epoch) })
}

// Sim exposes the simulator (clock, scheduling, RNG).
func (d *Deployment) Sim() *netem.Simulator { return d.sim }

// Network exposes the emulated fabric (for custom link shaping in tests
// and experiments).
func (d *Deployment) Network() *netem.Network { return d.net }

// Topology exposes the latency/cost model used for service selection.
func (d *Deployment) Topology() *overlay.Topology { return d.topo }

// Routing exposes the overlay routing control plane (link graph, path
// queries, stats).
func (d *Deployment) Routing() *routing.Controller { return d.ctrl }

// Now returns current virtual time.
func (d *Deployment) Now() time.Duration { return d.sim.Now() }

// Run advances the deployment by dur of virtual time.
func (d *Deployment) Run(dur time.Duration) { d.sim.RunFor(dur) }

// RunUntilQuiet runs until no events remain (all timers drained).
func (d *Deployment) RunUntilQuiet() { d.sim.Run() }

func (d *Deployment) allocNode() core.NodeID {
	id := d.nextNode
	d.nextNode++
	return id
}

// AllocGroupID reserves a node ID usable as a multicast group address.
func (d *Deployment) AllocGroupID() core.NodeID { return d.allocNode() }

// AddDC creates a data center node running all three services. Nothing
// reads name or region: they only label the call.
func (d *Deployment) AddDC(name string, region dataset.Region) core.NodeID {
	id := d.allocNode()
	dc := newDCNode(d, id)
	d.dcs[id] = dc
	d.ctrl.AddDC(id, dc.dp.Forwarder)
	d.net.AddNode(id, dc.handle)
	return id
}

// DC returns the DC node (panics on unknown ID — deployment wiring bug).
func (d *Deployment) DC(id core.NodeID) *DCNode {
	dc, ok := d.dcs[id]
	if !ok {
		panic(fmt.Sprintf("jqos: %v is not a DC", id))
	}
	return dc
}

// ConnectDCs links two DCs with the tight, reliable inter-DC path
// (one-way latency x, sub-ms jitter, lossless — §2's cloud-path model).
// The link joins the routing control plane's graph and, when probing is
// enabled, its health monitor; next-hop tables recompute immediately.
func (d *Deployment) ConnectDCs(a, b core.NodeID, x time.Duration) {
	d.net.ConnectBidirectional(a, b, func() *netem.Link {
		return netem.NewLink(d.sim, netem.UniformJitter{Base: x, Jitter: x / 50}, nil)
	})
	d.ctrl.SetLink(a, b, x)
	// First contact only: re-connecting an existing pair reshapes its
	// latency but must not reset a SetCapacity override (or the meters)
	// back to the config default.
	if !d.loadReg.Tracked(a, b) {
		d.loadReg.Track(a, b, d.cfg.LinkCapacity)
	}
	d.startProber(a, b, x)
	d.startLoadReporter()
}

// HostOption customizes AddHost.
type HostOption func(*hostParams)

type hostParams struct {
	lossModel  netem.LossModel
	delayModel netem.DelayModel
}

// WithAccessDelay installs an explicit delay process on the host↔DC links
// (both directions, independent state via the same model instance). Used
// to model overloaded endpoints whose responses straggle (§4.4).
func WithAccessDelay(m netem.DelayModel) HostOption {
	return func(h *hostParams) { h.delayModel = m }
}

// WithAccessLossModel installs an explicit loss process on the host→DC
// uplink (the paper found ~98% of access losses on source→DC1 segments) —
// e.g. a netem.SharedFate shared with the direct path to model a common
// first mile.
func WithAccessLossModel(m netem.LossModel) HostOption {
	return func(h *hostParams) { h.lossModel = m }
}

// AddHost creates an endpoint attached to dc with one-way latency delta.
// dc is the host's home: every other DC reaches the host through its
// route to dc (multi-hop on sparse graphs). A dc that is not a DC panics
// before anything is allocated.
func (d *Deployment) AddHost(dc core.NodeID, delta time.Duration, opts ...HostOption) core.NodeID {
	d.DC(dc)
	var p hostParams
	for _, o := range opts {
		o(&p)
	}
	id := d.allocNode()
	h := newHost(d, id, dc)
	d.hosts[id] = h
	d.topo.AttachHost(id, delta)
	d.net.AddNode(id, h.handle)
	mkDelay := func() netem.DelayModel {
		if p.delayModel != nil {
			return p.delayModel
		}
		return netem.FixedDelay(delta)
	}
	up := netem.NewLink(d.sim, mkDelay(), nil)
	if p.lossModel != nil {
		up.SetLoss(p.lossModel)
	}
	d.net.Connect(id, dc, up)
	d.net.Connect(dc, id, netem.NewLink(d.sim, mkDelay(), nil))
	d.ctrl.AttachHost(id, dc)
	return id
}

// Host returns the endpoint wrapper (panics on unknown ID).
func (d *Deployment) Host(id core.NodeID) *Host {
	h, ok := d.hosts[id]
	if !ok {
		panic(fmt.Sprintf("jqos: %v is not a host", id))
	}
	return h
}

// SetDirectPath installs the best-effort Internet path between two hosts
// (both directions share the delay model family but have independent state;
// loss applies to the forward direction only). It also seeds the
// topology's direct-latency estimate with the model's base delay at
// registration time.
func (d *Deployment) SetDirectPath(src, dst core.NodeID, delay netem.DelayModel, loss netem.LossModel) {
	d.net.Connect(src, dst, netem.NewLink(d.sim, delay, loss))
	// Reverse path: same delay family, lossless (NACK/control traffic in
	// the paper's experiments flows receiver→DC, not receiver→sender,
	// so the reverse direct path is rarely exercised).
	d.net.Connect(dst, src, netem.NewLink(d.sim, delay, nil))
	d.seedDirectEstimate(src, dst, delay)
}

// seedDirectEstimate samples the delay model to estimate y for service
// selection (§3.5's "initially assumed to be average values").
func (d *Deployment) seedDirectEstimate(src, dst core.NodeID, delay netem.DelayModel) {
	if delay == nil {
		return
	}
	rng := d.sim.Fork()
	var sum time.Duration
	const n = 64
	for i := 0; i < n; i++ {
		sum += delay.Delay(0, rng)
	}
	d.topo.SetDirect(src, dst, sum/n)
}

// AddGroup installs a multicast group on a DC's forwarder. The group
// address is attached to the control plane like a host, with dc as its
// home: every other DC reaches the group through its route to dc, where
// the forwarder fans it out.
func (d *Deployment) AddGroup(dc core.NodeID, group core.NodeID, members ...core.NodeID) {
	d.DC(dc).dp.Forwarder.SetGroup(group, members...)
	d.ctrl.AttachHost(group, dc)
}

// EgressBytes reports cloud egress volume per DC (cost accounting, §6.6):
// the data-plane bytes the DC put on a link that the link accepted.
// Control traffic (probes, acks, congestion signals) is not billed.
func (d *Deployment) EgressBytes(dc core.NodeID) uint64 {
	if n, ok := d.dcs[dc]; ok {
		return n.billed
	}
	return 0
}

// TotalEgressBytes sums egress across all DCs.
func (d *Deployment) TotalEgressBytes() uint64 {
	var t uint64
	for _, n := range d.dcs { // map order cannot matter: an integer sum
		t += n.billed
	}
	return t
}

// CloudCost converts accumulated egress into dollars under the default
// price model.
func (d *Deployment) CloudCost() float64 {
	return float64(d.TotalEgressBytes()) / 1e9 * overlay.DefaultCostModel.EgressPerGB
}

// Flows returns every open flow, ascending ID. The slice is the
// caller's own: closing flows while ranging over it is safe.
func (d *Deployment) Flows() []*Flow {
	return append(make([]*Flow, 0, len(d.open)), d.open...)
}

// flow returns the open flow with the given ID, or nil when the ID is
// closed or was never allocated.
func (d *Deployment) flow(id core.FlowID) *Flow {
	i, ok := slices.BinarySearchFunc(d.open, id, func(f *Flow, id core.FlowID) int { return cmp.Compare(f.id, id) })
	if !ok {
		return nil
	}
	return d.open[i]
}

// HostIDs returns every host endpoint's node ID in ascending order —
// the enumeration the chaos harness sweeps when checking that a run
// left no receiver state behind.
func (d *Deployment) HostIDs() []core.NodeID {
	out := make([]core.NodeID, 0, len(d.hosts))
	for id := core.NodeID(1); id < d.nextNode; id++ {
		if _, ok := d.hosts[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// NudgeFaultDetection grants every link prober a full detection burst
// and wakes the load reporter, exactly as the built-in fault injectors
// (Link(a, b).Disconnect, .Set) do. The chaos engine calls it after
// swapping link models directly on the emulated fabric, so scripted
// faults are detected even when they land on an idle deployment. It is
// allocation-free when nothing is parked.
func (d *Deployment) NudgeFaultDetection() { d.boostProbers() }
