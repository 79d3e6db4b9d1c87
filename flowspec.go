package jqos

import (
	"fmt"
	"math"
	"slices"
	"time"

	"jqos/internal/core"
	"jqos/internal/feedback"
	"jqos/internal/load"
	"jqos/internal/overlay"
	"jqos/internal/recovery"
	"jqos/internal/routing"
	"jqos/internal/telemetry"
	"jqos/internal/tenant"
)

// PathPolicyKind selects how a flow's overlay path is chosen among the
// routing controller's k-alternate paths between its two DCs.
type PathPolicyKind uint8

const (
	// PathFastest follows the controller's shared next-hop tables (the
	// least-latency path, rerouted automatically on failures). This is
	// the default.
	PathFastest PathPolicyKind = iota
	// PathCheapest pins the flow to the fewest-hop path among the two
	// paths the controller keeps per DC pair — each inter-DC hop is a
	// billable egress event, so fewest hops is cheapest under the egress
	// price model. Latency breaks ties. A cheaper path outside the
	// lowest-latency alternates is not considered.
	PathCheapest
	// PathPinned pins the flow to the k-th alternate path (PathPolicy.
	// Alternate; 0 is the primary). When the pinned path dies the flow
	// re-resolves the policy against the surviving alternates.
	PathPinned
)

// String implements fmt.Stringer.
func (k PathPolicyKind) String() string {
	switch k {
	case PathFastest:
		return "fastest"
	case PathCheapest:
		return "cheapest"
	case PathPinned:
		return "pinned"
	default:
		return fmt.Sprintf("pathpolicy(%d)", uint8(k))
	}
}

// PathPolicy is a flow's declarative route preference over the overlay.
// It governs the flow's own data and cache traffic exactly, and its
// coded parity too: the encoder batches cross-stream coding by (egress
// DC, path policy), so a batch only ever mixes flows that declared the
// same policy and its parity rides that policy — a pinned flow's parity
// never strays onto a sibling's route.
type PathPolicy struct {
	Kind PathPolicyKind
	// Alternate indexes the controller's k-alternate paths for
	// PathPinned (0 = primary; clamped to the available alternates).
	Alternate int
}

// ServiceChangeReason says why a flow's service moved (re-exported from
// internal/overlay, whose Adapter makes every move).
type ServiceChangeReason = overlay.ServiceChangeReason

// Service-change reasons, re-exported.
const (
	ReasonBudgetViolation = overlay.ReasonBudgetViolation
	ReasonOverDelivery    = overlay.ReasonOverDelivery
	ReasonCongestion      = overlay.ReasonCongestion
	ReasonCostViolation   = overlay.ReasonCostViolation
)

// ServiceChange records one adaptation transition of a flow.
type ServiceChange struct {
	At       time.Duration // virtual time of the change
	From, To Service
	Reason   ServiceChangeReason
}

// FlowSpec is the declarative registration intent of one application
// stream: where it goes, what latency it needs, which services and
// overlay paths are acceptable, and who hears about its
// lifecycle. The zero values mean "no constraint" everywhere except Src,
// Dst/Members, and Budget, which are required.
type FlowSpec struct {
	// Src is the sending host.
	Src NodeID
	// Dst is the unicast destination host. Leave zero for multicast.
	Dst NodeID
	// Group is the multicast group address (AllocGroupID + AddGroup);
	// required when Members is set. The cloud copy is addressed to it.
	Group NodeID
	// Members are the multicast destinations (direct copies go to each).
	Members []NodeID

	// Budget is the delivery-latency budget (required and positive,
	// except with ServiceFixed, where selection has nothing to fit and
	// a zero budget merely marks every delivery late in the metrics).
	Budget time.Duration

	// Tenant attributes the flow to a registered customer contract
	// (Deployment.RegisterTenant, which must run first). The flow's
	// cloud copies then draw from the tenant's aggregate admission
	// quota BEFORE the per-flow Rate contract, its egress spend counts
	// against the tenant's cost budget, and congestion on a bottleneck
	// shared with sibling flows paces the whole tenant as one. Zero
	// means untenanted — per-flow enforcement only.
	Tenant TenantID

	// Service pins the flow to one service when ServiceFixed is set:
	// selection is bypassed and the adaptation loop never changes the
	// service (budget-violation events are still emitted).
	Service      Service
	ServiceFixed bool

	// AllowInternet lets selection (and downgrades) use plain
	// best-effort Internet when it fits the budget; by default J-QoS
	// always provides a recovery service.
	AllowInternet bool

	// Path chooses the overlay route among the controller's k-alternate
	// paths (per-flow pinning). The zero value follows the shared
	// fastest-path tables.
	Path PathPolicy

	// RepinOnHeal returns the flow to the path its Path policy chose at
	// registration once that path's links are all healthy again. By
	// default a pinned flow that failed over onto a surviving alternate
	// stays parked there — correct for stability, wrong for cost when
	// the preferred path was the cheaper one. Requires a non-default
	// Path policy (PathFastest already follows the controller's best).
	RepinOnHeal bool

	// PathSwitch suppresses the direct-path copy when the forwarding
	// service is active (VIA-style full switch to the overlay).
	PathSwitch bool

	// Rate, when positive, is the flow's admission contract: its cloud
	// copies are policed at the ingress by a token bucket refilling at
	// Rate bytes/second with Burst bytes of depth. Packets exceeding the
	// contract lose their cloud copy (dropped, with an admission-drop
	// event and FlowMetrics.AdmissionDropped). The direct Internet copy
	// is never policed: admission governs cloud resources only, so one
	// greedy flow cannot starve the overlay (§2's judicious use). Zero
	// disables admission — the exact pre-contract behavior.
	//
	// A multicast flow's single cloud copy fans out to every member at
	// the egress DC, so admission charges it at wire size × member
	// count — one shared bucket polices the whole fan-out instead of
	// each destination riding unpoliced (the tenant quota charges the
	// same way).
	Rate int64
	// Burst is the admission token-bucket depth in bytes. Zero with a
	// positive Rate defaults to a quarter second of Rate, floored at one
	// 1500-byte MTU. Size it to at least the flow's largest packet
	// (payload + 40-byte header): a packet larger than the depth can
	// never conform and loses its cloud copy every time.
	Burst int64

	// OnEvent, when set, hears every control-loop event about this flow
	// — service changes, reroutes, budget violations, admission
	// and egress drops, congestion signals, pacer cuts and recoveries —
	// exactly as the trace ring records it (Seq and At filled; see
	// telemetry.Event for what each Kind carries), replacing polling of
	// Metrics(). A cause precedes its effect: the congestion signal is
	// heard before the pacer cut or service move it triggers. It runs
	// synchronously inside the simulator event that caused it — keep it
	// short. Deliveries are not events: Host.SetDeliveryHandler hears
	// those.
	OnEvent func(*Flow, telemetry.Event)

	// TraceSampling enables hop-level latency attribution for this
	// flow: the fraction of cloud copies (in (0, 1]) stamped with the
	// wire-level trace flag so every choke point records where their
	// latency budget was spent (see Snapshot.Attribution). Rounded to
	// an every-Nth-packet stride for determinism; 0 disables sampling.
	// Budget-violating deliveries land in the late-delivery reservoir
	// regardless.
	TraceSampling float64
}

// RegisterFlow creates a flow from declarative intent: it validates the
// spec, picks the cheapest service satisfying the budget (§3.5),
// resolves the path policy against the routing
// controller's k-alternates, seeds the receivers, and starts the
// bidirectional adaptation loop.
func (d *Deployment) RegisterFlow(spec FlowSpec) (*Flow, error) {
	src, ok := d.hosts[spec.Src]
	if !ok {
		return nil, fmt.Errorf("jqos: source %v is not a host", spec.Src)
	}
	dc1 := d.DC(src.DC())
	multicast := len(spec.Members) > 0
	var dsts []core.NodeID
	cloud := core.NodeID(spec.Dst)
	switch {
	case multicast:
		if spec.Group == 0 {
			return nil, fmt.Errorf("jqos: multicast flow needs a Group address (AllocGroupID + AddGroup)")
		}
		if spec.Dst != 0 {
			return nil, fmt.Errorf("jqos: Dst and Members are mutually exclusive (unicast destinations go in Members)")
		}
		dsts = append([]core.NodeID(nil), spec.Members...)
		cloud = spec.Group
	case spec.Group != 0:
		return nil, fmt.Errorf("jqos: multicast flow needs members")
	case spec.Dst == 0:
		return nil, fmt.Errorf("jqos: flow needs a destination")
	default:
		dsts = []core.NodeID{spec.Dst}
	}
	// A fixed service needs no budget to select against (OnTime accounting
	// simply counts everything late).
	if spec.Budget <= 0 && !spec.ServiceFixed {
		return nil, fmt.Errorf("jqos: flow needs a positive latency budget, got %v", spec.Budget)
	}
	// Admission contract: normalize the burst default here so Spec()
	// reflects the effective contract.
	if spec.Rate < 0 {
		return nil, fmt.Errorf("jqos: negative admission Rate %d", spec.Rate)
	}
	if spec.Burst < 0 {
		return nil, fmt.Errorf("jqos: negative admission Burst %d", spec.Burst)
	}
	if spec.Rate == 0 && spec.Burst != 0 {
		return nil, fmt.Errorf("jqos: Burst needs a positive admission Rate contract")
	}
	if spec.TraceSampling < 0 || spec.TraceSampling > 1 {
		return nil, fmt.Errorf("jqos: TraceSampling %v outside [0, 1]", spec.TraceSampling)
	}
	// Sampling rate → deterministic every-Nth stride (≥ 1), so the same
	// seed always traces the same packets.
	var traceEvery uint64
	if spec.TraceSampling > 0 {
		traceEvery = uint64(math.Round(1 / spec.TraceSampling))
		if traceEvery == 0 {
			traceEvery = 1
		}
	}
	var bucket *load.Bucket
	if spec.Rate > 0 {
		bucket = load.NewBucket(spec.Rate, spec.Burst)
		spec.Burst = bucket.Burst()
	}
	// Tenancy: the contract must pre-exist — a typo'd tenant ID silently
	// escaping aggregate enforcement is exactly the evasion tenancy is
	// for. Membership is counted only after every later check passes.
	var tn *tenant.Tenant
	if spec.Tenant != 0 {
		t, ok := d.tenants.Get(spec.Tenant)
		if !ok {
			return nil, fmt.Errorf("jqos: tenant %v not registered (RegisterTenant before RegisterFlow)", spec.Tenant)
		}
		tn = t
	}
	if spec.RepinOnHeal && spec.Path.Kind == PathFastest {
		return nil, fmt.Errorf("jqos: RepinOnHeal needs a pinned path policy (PathCheapest or PathPinned) — PathFastest already follows the controller's best path")
	}
	// A non-default path policy must be resolvable now, not silently
	// dropped: the cloud destination needs a known home DC (for
	// multicast that means AddGroup before RegisterFlow). The chosen
	// path's latency also feeds service selection below — a flow pinned
	// to a slow alternate must not select against the fastest path.
	var policyPath *routing.Path
	var policyPathLat core.Time
	if spec.Path.Kind != PathFastest {
		home, homeOK := d.ctrl.Home(cloud)
		if !homeOK {
			return nil, fmt.Errorf("jqos: path policy %v needs a resolvable cloud destination for %v (AddGroup before RegisterFlow)", spec.Path.Kind, cloud)
		}
		if dc1.id != home {
			if p := d.choosePolicyPath(spec.Path, dc1.id, home); p != nil {
				policyPath = p
				// Price selection on the path's honest latency, not its
				// routing weight (Path.Cost is congestion-inflated).
				if lat, ok := d.ctrl.PathCost(p.Nodes); ok {
					policyPathLat = lat
				} else {
					policyPathLat = p.Cost
				}
			}
		}
	}
	svc := spec.Service
	if svc != core.ServiceInternet && !spec.ServiceFixed {
		return nil, fmt.Errorf("jqos: Service %v set without ServiceFixed — pin it with ServiceFixed", svc)
	}
	if spec.ServiceFixed {
		// Guard the zero-value trap: Service's zero value IS
		// ServiceInternet, so an accidental {ServiceFixed: true} would
		// silently strip all cloud recovery. Pinning to plain Internet
		// must be spelled out with AllowInternet.
		if svc == core.ServiceInternet && !spec.AllowInternet {
			return nil, fmt.Errorf("jqos: ServiceFixed with ServiceInternet needs AllowInternet (set Service explicitly to pin a recovery service)")
		}
	} else {
		// Select against the first destination (multicast members are
		// assumed latency-similar, as in the paper's hybrid multicast).
		// Internet eligibility uses the same every-member guard as the
		// downgrade loop; predictions use the policy path's latency.
		s, _, ok := d.topo.SelectServiceWith(spec.Src, dsts[0], overlay.ServicePolicy{
			Budget:          spec.Budget,
			RequireRecovery: !spec.AllowInternet || !d.internetViable(spec.Src, dsts),
			PathLatency:     policyPathLat,
		})
		if !ok {
			return nil, fmt.Errorf("jqos: no service can meet budget %v for %v→%v under the spec's constraints",
				spec.Budget, spec.Src, dsts[0])
		}
		svc = s
	}
	// Scheduler-aware admission: under contention a class is guaranteed
	// only its weighted share of each link, so a Rate contract above the
	// class's share of the path's bottleneck capacity can never be
	// honored and is rejected. Burst is bounded by the class queue's byte
	// cap the same way: a conformant burst larger than the queue would
	// tail-drop at the egress no matter what the ingress admitted.
	if bucket != nil && d.cfg.Scheduler.Enabled() {
		if share, queueCap, ok := d.admissionEnvelope(svc, dc1.id, cloud, policyPath); ok {
			if spec.Rate > share {
				return nil, fmt.Errorf("jqos: admission Rate %d B/s exceeds the %v class's weighted share (%d B/s) of the path's bottleneck link — unhonorable under contention; lower Rate, or raise the class weight or link capacity",
					spec.Rate, svc, share)
			}
			if queueCap > 0 && spec.Burst > queueCap {
				return nil, fmt.Errorf("jqos: admission Burst %d B exceeds the %v class's egress queue cap (%d B) — a conformant burst that large tail-drops anyway; lower Burst, or raise Scheduler.QueueBytes",
					spec.Burst, svc, queueCap)
			}
		}
	}
	// Store the spec normalized so Spec() reflects the effective policy:
	// defaulted burst, owned member slice.
	if multicast {
		spec.Members = dsts
	}
	f := &Flow{
		id:         d.nextFlow,
		d:          d,
		src:        spec.Src,
		dsts:       dsts,
		cloud:      cloud,
		service:    svc,
		dc1:        dc1,
		spec:       spec,
		bucket:     bucket,
		tenant:     tn,
		metrics:    newFlowMetrics(),
		adapter:    overlay.NewAdapter(d.cfg.UpgradeInterval),
		traceEvery: traceEvery,
	}
	if d.fb != nil && bucket != nil {
		f.pacer = feedback.NewPacer(bucket, feedback.PacerConfig{})
		f.pacerTimer = d.sim.NewTimer(f.pacerTickRun)
	}
	if d.cfg.UpgradeInterval > 0 {
		f.adapt = d.sim.NewTicker(d.cfg.UpgradeInterval, &f.metrics.Sent, func() bool {
			f.adaptTick()
			return false
		})
	}
	d.nextFlow++
	d.open = append(d.open, f)
	if tn != nil {
		tn.AddFlow()
	}

	// Pre-create receiver engines with the right RTT estimate so the
	// first loss is already covered. Any receiver already present under
	// this ID predates its allocation (a premature PullFlow or a forged
	// packet) — drop it so the flow starts on fresh, correctly
	// configured, teardown-indexed state instead of silently riding a
	// default-RTT zombie that Close could never free.
	for _, dst := range dsts {
		if h, ok := d.hosts[dst]; ok {
			h.core.Drop(f.id)
			h.core.Ensure(f.id, d.receiverRTT(spec.Src, dst), svc)
		}
	}

	// The policy path was already computed for selection above; hand it
	// to resolution so registration runs Yen's algorithm once, not twice.
	f.resolvePathWith(policyPath)
	if spec.RepinOnHeal && len(f.activePath) >= 2 {
		// Remember the policy's registration-time choice as the path to
		// return to after a failover, once it heals.
		f.preferredPath = append([]core.NodeID(nil), f.activePath...)
	}
	f.updateFeedbackSub()
	f.adapt.Wake()
	return f, nil
}

// admissionEnvelope computes the scheduler-aware admission bounds for a
// flow of class svc from its DC1 dcA to its cloud home: the class's
// weighted share of the path's bottleneck accounting capacity (the
// minimum across capacitated hops of capacity × weight ⁄ Σweights) and
// the per-class egress queue byte cap (0 when unbounded). policyPath
// overrides the primary route for pinned policies, so the contract is
// sized against the path the flow will actually ride. ok is false when
// nothing constrains the path — same-DC flows, no route, or no
// capacitated hop.
func (d *Deployment) admissionEnvelope(svc core.Service, dcA, cloud core.NodeID, policyPath *routing.Path) (share, queueCap int64, ok bool) {
	if svc == core.ServiceInternet {
		return 0, 0, false // no cloud copies: nothing to size
	}
	home, okB := d.ctrl.Home(cloud)
	if !okB || dcA == home {
		return 0, 0, false
	}
	var nodes []core.NodeID
	if policyPath != nil {
		nodes = policyPath.Nodes
	} else if ps := d.ctrl.Paths(dcA, home, 1); len(ps) > 0 {
		nodes = ps[0].Nodes
	} else {
		return 0, 0, false
	}
	share, ok = d.classShareOnNodes(svc, nodes)
	if !ok {
		return 0, 0, false
	}
	if q := d.cfg.Scheduler.EffectiveQueueBytes(); q > 0 {
		queueCap = q
	}
	return share, queueCap, true
}

// classShareOnNodes returns svc's guaranteed share of the bottleneck
// capacitated hop along a DC path: min over capacitated links of
// capacity × weight ⁄ contended-weight. The denominator counts only
// the classes that can actually contend (the Internet queue idles;
// work-conservation hands its share back), so the guarantee is not
// understated. ok is false when no hop is capacitated.
func (d *Deployment) classShareOnNodes(svc core.Service, nodes []core.NodeID) (int64, bool) {
	w, tot := d.cfg.Scheduler.WeightOf(svc), d.cfg.Scheduler.ContendedWeight()
	bottleneck := int64(-1)
	for i := 0; i+1 < len(nodes); i++ {
		c := d.loadReg.Capacity(nodes[i], nodes[i+1])
		if c <= 0 {
			continue // uncapacitated hop: no constraint to size against
		}
		s := c * w / tot
		if bottleneck < 0 || s < bottleneck {
			bottleneck = s
		}
	}
	if bottleneck < 0 {
		return 0, false
	}
	if bottleneck < 1 {
		bottleneck = 1 // keep a clamped contract constructible
	}
	return bottleneck, true
}

// internetViable reports whether plain best-effort Internet can reach
// every destination — without the cloud copy, one lacking a direct route
// receives nothing. Registration and the downgrade loop share this
// eligibility rule.
func (d *Deployment) internetViable(src core.NodeID, dsts []core.NodeID) bool {
	for _, dst := range dsts {
		if !d.net.HasRoute(src, dst) {
			return false
		}
	}
	return true
}

// choosePolicyPath returns the path a Cheapest/Pinned policy picks
// between two DCs against the controller's current alternates (nil when
// none exist or the policy is the default). Registration pricing and
// resolvePath share this choice.
func (d *Deployment) choosePolicyPath(p PathPolicy, dcA, dcB core.NodeID) *routing.Path {
	if p.Kind == PathFastest || dcA == dcB {
		return nil
	}
	alts := d.ctrl.Paths(dcA, dcB, 0)
	if len(alts) == 0 {
		return nil
	}
	if p.Kind == PathCheapest {
		return cheapestPath(alts)
	}
	i := p.Alternate
	if i < 0 {
		i = 0
	}
	if i >= len(alts) {
		i = len(alts) - 1
	}
	return &alts[i]
}

// receiverRTT seeds a receiver's loss-detection timer: twice the direct
// estimate when one exists (measured reality is trusted as-is); else
// twice the routed overlay latency — the old 2×Direct seed degenerated
// to zero when no direct path was installed — floored at 2× the small
// timeout so the fallback timer is never shorter than in-burst
// detection itself. Zero (nothing known) defers to the receiver's own
// default.
func (d *Deployment) receiverRTT(src, dst core.NodeID) time.Duration {
	if rtt := 2 * d.topo.Direct(src, dst); rtt > 0 {
		return rtt
	}
	var rtt time.Duration
	if ov, ok := d.topo.PredictDelay(core.ServiceForwarding, src, dst); ok {
		rtt = 2 * ov
	}
	if floor := 2 * recovery.SmallTimeout; rtt > 0 && rtt < floor {
		rtt = floor
	}
	return rtt
}

// resolvePath applies the spec's path policy against the controller's
// current alternates: PathFastest follows the primary; PathCheapest /
// PathPinned choose an alternate and pin the flow to it, or follow the
// primary while no path exists. Called at registration and by the
// post-recompute pass (onRecompute).
func (f *Flow) resolvePath() { f.resolvePathWith(nil) }

// resolvePathWith is resolvePath with an optional pre-computed policy
// path (registration passes the one it already priced selection on).
func (f *Flow) resolvePathWith(chosen *routing.Path) {
	d := f.d
	dcA := f.dc1.id
	dcB, okB := d.ctrl.Home(f.cloud)
	if !okB || dcA == dcB {
		return
	}
	switch f.spec.Path.Kind {
	case PathFastest:
		f.followPrimary(dcA, dcB)
		f.activePath = f.primary
	case PathCheapest, PathPinned:
		if chosen == nil {
			chosen = d.choosePolicyPath(f.spec.Path, dcA, dcB)
		}
		if chosen == nil {
			// No path at all: unpin, and follow the pair's primary so a
			// recompute that brings a path back re-applies the policy.
			d.ctrl.UnpinFlow(f.id)
			f.followPrimary(dcA, dcB)
			f.activePath = nil
			return
		}
		// An unchanged choice is a no-op: repin retries and routing churn
		// must not unpin/re-push the same entries every recompute.
		if f.follow == [2]core.NodeID{} && slices.Equal(f.activePath, chosen.Nodes) {
			return
		}
		f.follow = [2]core.NodeID{}
		d.ctrl.PinFlow(f.id, f.cloud, *chosen)
		f.activePath = append([]core.NodeID(nil), chosen.Nodes...)
	}
}

// followPrimary makes the flow follow the primary a→b path, seeded from
// the same table walk (Controller.Primary) the post-recompute pass
// compares against, so the first recompute is no spurious reroute.
func (f *Flow) followPrimary(a, b core.NodeID) {
	f.follow = [2]core.NodeID{a, b}
	f.primary = append([]core.NodeID(nil), f.d.ctrl.Primary(a, b)...)
}

// cheapestPath picks the alternate with the fewest inter-DC hops (each
// hop bills one egress), breaking ties on latency then original order.
func cheapestPath(alts []routing.Path) *routing.Path {
	best := 0
	for i := 1; i < len(alts); i++ {
		switch {
		case len(alts[i].Nodes) < len(alts[best].Nodes):
			best = i
		case len(alts[i].Nodes) == len(alts[best].Nodes) && alts[i].Cost < alts[best].Cost:
			best = i
		}
	}
	return &alts[best]
}

// traceReroute records one path change in the control-loop trace:
// the new path's endpoint DCs (zero when no path remains) and the
// old/new path lengths.
func (f *Flow) traceReroute(old []core.NodeID) {
	e := telemetry.Event{
		Kind: telemetry.KindReroute,
		V1:   int64(len(old)), V2: int64(len(f.activePath)),
	}
	if len(f.activePath) >= 2 {
		e.LinkA = f.activePath[0]
		e.LinkB = f.activePath[len(f.activePath)-1]
	}
	f.emit(e)
}

// pathNote is one flow the post-recompute pass moves: old is the path
// it held before (the dead pin, or the previous primary).
type pathNote struct {
	f   *Flow
	old []core.NodeID
}

// onRecompute is the routing controller's post-recompute hook, the one
// place a flow's path follows the fresh tables. Over the open flows in
// ascending ID order it (1) re-resolves each pinned flow whose pin died,
// (2) moves each flow following the primary (PathFastest, or a pinned
// policy parked with no path) whose primary changed — Path() takes the
// new primary, a parked policy re-resolves — and (3) re-resolves each
// RepinOnHeal flow off its preferred path once all that path's links
// are up. The pass walks a copy of the open list taken at its start, and
// phases 1 and 2 collect their flows before any moves, so a subscriber
// that closes or registers flows cannot change which flows this
// recompute visits; a flow it closes is skipped. A move re-keys the
// feedback subscription (it keys on the path's links), re-sizes the
// admission contract and emits a reroute event.
func (d *Deployment) onRecompute() {
	pass, notes := append(d.pass[:0], d.open...), d.passNotes[:0]
	for _, f := range pass { // 1: dead pins (a pinned flow has a path and follows no primary)
		if _, alive := d.ctrl.PathCost(f.activePath); !alive && len(f.activePath) >= 2 && f.follow == [2]core.NodeID{} {
			notes = append(notes, pathNote{f, f.activePath})
		}
	}
	for _, f := range pass { // 2: primaries that moved
		if cur := d.ctrl.Primary(f.follow[0], f.follow[1]); f.follow != [2]core.NodeID{} && !slices.Equal(cur, f.primary) {
			notes = append(notes, pathNote{f, f.primary})
			f.primary = append([]core.NodeID(nil), cur...)
		}
	}
	for _, n := range notes {
		f := n.f
		switch {
		case f.closed: // a subscriber earlier in this loop closed it
			continue
		case f.spec.Path.Kind == PathFastest:
			f.activePath = f.primary
		default:
			f.resolvePath()
		}
		f.updateFeedbackSub()
		f.resizeContract()
		f.traceReroute(n.old)
	}
	for _, f := range pass { // 3: preferred paths that healed
		if f.closed || len(f.preferredPath) == 0 || slices.Equal(f.activePath, f.preferredPath) {
			continue
		}
		if _, ok := d.ctrl.PathCost(f.preferredPath); !ok {
			continue // a preferred link is still missing or down
		}
		old := f.activePath
		f.resolvePath()
		f.updateFeedbackSub()
		f.resizeContract()
		if !slices.Equal(old, f.activePath) {
			f.traceReroute(old)
		}
	}
	clear(pass) // the buffers must not keep closed flows reachable
	clear(notes)
	d.pass, d.passNotes = pass[:0], notes[:0]
}
