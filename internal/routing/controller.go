package routing

import (
	"sort"

	"jqos/internal/core"
)

// RouteSink receives next-hop pushes for one DC. forward.Forwarder
// satisfies it; tests use map-backed fakes.
type RouteSink interface {
	SetRoute(dst, via core.NodeID)
	DeleteRoute(dst core.NodeID)
}

// FlowRouteSink is the optional per-flow extension of RouteSink: sinks
// that implement it (forward.Forwarder does) receive pinned next-hop
// entries for flows with an explicit path policy. Sinks without it simply
// never see pins — pinned flows there fall back to the shared tables.
type FlowRouteSink interface {
	SetFlowRoute(flow core.FlowID, dst, via core.NodeID)
	DeleteFlowRoute(flow core.FlowID, dst core.NodeID)
}

// EpochSink is the optional table-versioning extension of RouteSink:
// sinks that implement it (forward.Forwarder does) are told when a new
// table epoch begins — just before the first route write of that epoch —
// and when an old epoch's routes may be retired. Between the two calls
// the sink answers lookups for both epochs, which is what makes reroutes
// make-before-break: in-flight packets tagged with the old epoch keep
// resolving the old next hops while new traffic rides the new table.
type EpochSink interface {
	BeginEpoch(epoch uint64)
	RetireEpoch(epoch uint64)
}

// Stats counts control-plane activity.
type Stats struct {
	// Recomputes is the number of table computation events (full or
	// incremental).
	Recomputes uint64
	// IncrementalRecomputes counts the subset of Recomputes served by the
	// delta engine (affected sources only).
	IncrementalRecomputes uint64
	// SourcesRecomputed totals the per-source Dijkstra runs performed by
	// incremental recomputes; SourcesRecomputed/IncrementalRecomputes is
	// the mean cut size.
	SourcesRecomputed uint64
	// EpochAdvances counts table epochs opened (recomputes that modified
	// at least one pushed entry); EpochRetires counts old epochs drained
	// and retired by the hosting runtime.
	EpochAdvances uint64
	EpochRetires  uint64
	// Pushes counts route entries written to sinks (sets + deletes).
	Pushes uint64
	// RouteChanges counts installed entries whose next hop moved to a
	// different, still-valid hop.
	RouteChanges uint64
	// Reroutes counts recompute events that moved at least one existing
	// destination onto a new next hop — i.e. traffic actually shifted.
	Reroutes uint64
	// Link health transitions reported by the monitor.
	LinkFailures   uint64
	LinkRecoveries uint64
	LinkDegrades   uint64
	// UtilizationUpdates counts accepted load reports — those whose
	// derived weight multiplier moved past the congestion hysteresis and
	// triggered a recompute (sub-hysteresis reports are absorbed).
	UtilizationUpdates uint64
	// CongestionReroutes counts utilization-triggered recomputes that
	// moved at least one installed route — traffic actually spread away
	// from (or back onto) a hot link.
	CongestionReroutes uint64
	// Unreachable is the number of (DC, destination) pairs with no path
	// after the last recompute.
	Unreachable int
}

// dcTables is one registered DC's push state: its sink (with the
// optional per-flow and epoch extensions pre-asserted, so the hot path
// never type-switches) and the installed next hops in index space —
// instDC by destination-DC index, instHost by host slot, 0 = no entry.
type dcTables struct {
	sink      RouteSink
	fsink     FlowRouteSink // nil when the sink has no per-flow extension
	esink     EpochSink     // nil when the sink is not epoch-aware
	sinkEpoch uint64        // last epoch announced to esink
	instDC    []core.NodeID
	instHost  []core.NodeID
}

// Controller is the centralized routing control plane: it owns the link
// graph, recomputes all-pairs shortest paths when the graph or link health
// changes, and pushes per-DC next-hop tables (for DC and host/group
// destinations alike) to the registered RouteSinks.
type Controller struct {
	g   *Graph
	k   int // alternate paths kept per pair (KShortestPaths default)
	dcs map[core.NodeID]*dcTables
	// homes maps host (or multicast-group) IDs to their home DC; hosts
	// are routed toward their home DC's next hop.
	homes     map[core.NodeID]core.NodeID
	hostOrder []core.NodeID // sorted host IDs for deterministic pushes
	// Host slots: each attached host gets a permanent slot (append
	// order), so per-DC install rows and home caches never shift when
	// later hosts sort lower. hostIter lists slots in ascending host-ID
	// order — the deterministic push order; hostHomeIdx caches each
	// slot's home-DC index (-1 = home not in graph).
	hostSlot    map[core.NodeID]int32
	hostID      []core.NodeID
	hostHomeIdx []int32
	hostIter    []int32

	// distM/nhM are the routed tables in index space (row = source DC,
	// column = destination DC; distM infCost / nhM 0 = no path). distM
	// holds the honest latency of the weight-selected path (congestion
	// inflates the selection weight, never this figure — see Link.Cost
	// vs Link.Latency).
	distM []core.Time
	nhM   []core.NodeID

	// pins holds per-flow pinned paths; watches tracks flows that follow
	// the shared tables but asked to hear about primary-path moves.
	pins    map[core.FlowID]*flowPin
	watches map[core.FlowID]*flowWatch

	// OnFlowPath, when set, is invoked after each recompute for every
	// pinned flow whose path died (next == nil, broken == true) and every
	// watched flow whose primary path moved (broken == false). Handlers
	// may re-pin or unpin from inside the callback.
	OnFlowPath func(flow core.FlowID, old, next []core.NodeID, broken bool)

	// OnRecompute, when set, fires at the end of every Recompute, after
	// the per-flow OnFlowPath notifications. Hosting runtimes use it for
	// policies that watch GRAPH state rather than one flow's path — e.g.
	// returning a failed-over flow to its preferred path once that
	// path's links are all up again (FlowSpec.RepinOnHeal). Handlers may
	// pin/unpin/watch but must not mutate links (no recursive
	// recompute).
	OnRecompute func()

	// OnEpochAdvance, when set, fires after any recompute that opened a
	// new table epoch (i.e. actually modified pushed routes). The hosting
	// runtime schedules the drain of in-flight old-epoch traffic and then
	// calls RetireEpoch.
	OnEpochAdvance func(epoch uint64)

	// Index-space delta engine state (incremental.go). nodeList/idxOf/adj
	// mirror the graph in index space and rebuild only on structural
	// changes (topoGen vs Graph.gen); trees caches one shortest-path tree
	// per source; unreachBySrc keeps Stats.Unreachable exact under
	// per-source refreshes. incremental is false only in the differential
	// test's oracle controller, which it forces onto Recompute for every
	// link event.
	incremental  bool
	nodeList     []core.NodeID
	listBuf      []core.NodeID // previous nodeList, for install-row remaps
	idxOf        map[core.NodeID]int32
	adj          [][]adjEdge
	topoGen      uint64
	trees        map[core.NodeID]*srcTree
	unreachBySrc map[core.NodeID]int
	affBuf       []int32
	utilBuf      [][2]core.NodeID
	work         spfWork

	// Table-epoch state: epoch is the current table version; epochBumped
	// marks whether the in-progress update already opened a new epoch
	// (per-sink announcement is tracked in dcTables.sinkEpoch).
	epoch       uint64
	epochBumped bool
	inUpdate    bool

	// Freelists and notification buffers: pin/watch churn and recompute
	// notification sweeps run allocation-free in steady state. notifying
	// suppresses recycling while OnFlowPath handlers run — notes alias
	// pin/watch path slices, so a handler unpinning (then re-pinning)
	// must not hand a later note's backing array to a new owner.
	pinFree   []*flowPin
	watchFree []*flowWatch
	notifying bool
	noteBuf   []pathNote
	idBuf     []core.FlowID
	primBuf   map[[2]core.NodeID][]core.NodeID

	stats Stats
}

// flowPin is one flow's pinned path and the sink entries installed for it.
type flowPin struct {
	dst     core.NodeID   // the flow's cloud destination (host or group)
	path    []core.NodeID // DC path, endpoints included
	entries []pinEntry    // what was pushed, for clean removal
}

type pinEntry struct {
	dc, dst core.NodeID
}

// flowWatch tracks the primary path of an unpinned flow between its DCs.
type flowWatch struct {
	a, b core.NodeID
	last []core.NodeID
}

// NewController creates an empty control plane keeping k alternate paths
// per DC pair (k < 1 is treated as 1).
func NewController(k int) *Controller {
	if k < 1 {
		k = 1
	}
	return &Controller{
		g:            NewGraph(),
		k:            k,
		dcs:          make(map[core.NodeID]*dcTables),
		homes:        make(map[core.NodeID]core.NodeID),
		hostSlot:     make(map[core.NodeID]int32),
		pins:         make(map[core.FlowID]*flowPin),
		watches:      make(map[core.FlowID]*flowWatch),
		incremental:  true,
		trees:        make(map[core.NodeID]*srcTree),
		unreachBySrc: make(map[core.NodeID]int),
		idxOf:        make(map[core.NodeID]int32),
		primBuf:      make(map[[2]core.NodeID][]core.NodeID),
	}
}

// Graph exposes the link graph (read-mostly; mutate via the controller so
// tables stay in sync).
func (c *Controller) Graph() *Graph { return c.g }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// AddDC registers a DC vertex and the sink its routes are pushed to.
func (c *Controller) AddDC(id core.NodeID, sink RouteSink) {
	c.g.AddNode(id)
	dt := c.dcs[id]
	if dt == nil {
		dt = &dcTables{}
		c.dcs[id] = dt
	}
	dt.sink = sink
	dt.fsink, _ = sink.(FlowRouteSink)
	dt.esink, _ = sink.(EpochSink)
}

// AttachHost binds a host (or multicast-group) destination to its home DC
// and pushes its routes to every DC immediately.
func (c *Controller) AttachHost(host, home core.NodeID) {
	slot, known := c.hostSlot[host]
	if !known {
		slot = int32(len(c.hostID))
		c.hostSlot[host] = slot
		c.hostID = append(c.hostID, host)
		c.hostHomeIdx = append(c.hostHomeIdx, -1)
		c.hostOrder = insortID(c.hostOrder, host)
		c.hostIter = c.hostIter[:0]
		for _, h := range c.hostOrder {
			c.hostIter = append(c.hostIter, c.hostSlot[h])
		}
	}
	c.homes[host] = home
	if hi, ok := c.idxOf[home]; ok {
		c.hostHomeIdx[slot] = hi
	} else {
		c.hostHomeIdx[slot] = -1
	}
	for _, dc := range c.g.Nodes() {
		dt := c.dcs[dc]
		if dt == nil {
			continue
		}
		for len(dt.instHost) < len(c.hostID) {
			dt.instHost = append(dt.instHost, 0)
		}
		c.pushHost(dt, slot, host, c.desiredVia(dc, host))
	}
}

// SetLink installs or re-bases the inter-DC link a↔b (one-way latency)
// and recomputes tables.
func (c *Controller) SetLink(a, b core.NodeID, base core.Time) {
	c.g.SetLink(a, b, base)
	c.Recompute()
}

// RemoveLink deletes the link a↔b and recomputes tables.
func (c *Controller) RemoveLink(a, b core.NodeID) {
	c.g.RemoveLink(a, b)
	c.Recompute()
}

// SetLinkHealth applies a monitor verdict: the link's state and (for
// degraded or refreshed links) its estimated one-way cost (0 keeps the
// configured base). A change triggers incremental recomputation and a
// route re-push.
func (c *Controller) SetLinkHealth(a, b core.NodeID, state LinkState, est core.Time) {
	l := c.g.Link(a, b)
	if l == nil || (l.State == state && l.Est == est) {
		return
	}
	switch {
	case state == LinkDown && l.State != LinkDown:
		c.stats.LinkFailures++
	case state == LinkUp && l.State == LinkDown:
		c.stats.LinkRecoveries++
	case state == LinkDegraded && l.State != LinkDegraded:
		c.stats.LinkDegrades++
	}
	l.State = state
	l.Est = est
	c.recomputeLinks([2]core.NodeID{a, b})
}

// NextHop returns the installed next hop at dc toward dst (a DC, host, or
// group destination).
func (c *Controller) NextHop(dc, dst core.NodeID) (core.NodeID, bool) {
	dt := c.dcs[dc]
	if dt == nil {
		return 0, false
	}
	var via core.NodeID
	if di, ok := c.idxOf[dst]; ok && int(di) < len(dt.instDC) {
		via = dt.instDC[di]
	} else if slot, ok := c.hostSlot[dst]; ok && int(slot) < len(dt.instHost) {
		via = dt.instHost[slot]
	}
	return via, via != 0
}

// PathLatency returns the routed one-way latency between two DCs, or
// ok=false when no path exists. overlay.Topology uses it as its
// inter-DC oracle, which makes service selection work on sparse graphs.
func (c *Controller) PathLatency(a, b core.NodeID) (core.Time, bool) {
	if a == b {
		if c.g.HasNode(a) {
			return 0, true
		}
		return 0, false
	}
	ai, ok1 := c.idxOf[a]
	bi, ok2 := c.idxOf[b]
	if !ok1 || !ok2 || c.distM == nil {
		return 0, false
	}
	d := c.distM[int(ai)*len(c.nodeList)+int(bi)]
	if d == infCost {
		return 0, false
	}
	return d, true
}

// Paths returns up to k alternate paths a→b (k ≤ 0 uses the controller's
// configured alternate count).
func (c *Controller) Paths(a, b core.NodeID, k int) []Path {
	if k <= 0 {
		k = c.k
	}
	return c.g.KShortestPaths(a, b, k)
}

// Home returns the home DC a host or group was attached to.
func (c *Controller) Home(host core.NodeID) (core.NodeID, bool) {
	home, ok := c.homes[host]
	return home, ok
}

// PinFlow installs per-flow next-hop entries for flow along path, so its
// traffic toward dst (its cloud destination — receiver host or multicast
// group) rides exactly that DC path regardless of the shared tables. An
// extra entry per transit DC keys on the egress DC itself, so service
// traffic addressed to the DC (coded parity, for example) follows the pin
// too. Re-pinning replaces the previous path's entries.
func (c *Controller) PinFlow(flow core.FlowID, dst core.NodeID, path Path) {
	c.UnpinFlow(flow)
	if len(path.Nodes) < 2 {
		return
	}
	var pin *flowPin
	if n := len(c.pinFree); n > 0 {
		pin = c.pinFree[n-1]
		c.pinFree = c.pinFree[:n-1]
	} else {
		pin = &flowPin{}
	}
	pin.dst = dst
	pin.path = append(pin.path[:0], path.Nodes...)
	pin.entries = pin.entries[:0]
	egress := path.Nodes[len(path.Nodes)-1]
	for i := 0; i+1 < len(path.Nodes); i++ {
		dt := c.dcs[path.Nodes[i]]
		if dt == nil || dt.fsink == nil {
			continue
		}
		via := path.Nodes[i+1]
		dt.fsink.SetFlowRoute(flow, dst, via)
		pin.entries = append(pin.entries, pinEntry{path.Nodes[i], dst})
		c.stats.Pushes++
		if egress != dst {
			dt.fsink.SetFlowRoute(flow, egress, via)
			pin.entries = append(pin.entries, pinEntry{path.Nodes[i], egress})
			c.stats.Pushes++
		}
	}
	c.pins[flow] = pin
}

// UnpinFlow removes a flow's pinned entries (no-op when not pinned).
func (c *Controller) UnpinFlow(flow core.FlowID) {
	pin, ok := c.pins[flow]
	if !ok {
		return
	}
	for _, e := range pin.entries {
		if dt := c.dcs[e.dc]; dt != nil && dt.fsink != nil {
			dt.fsink.DeleteFlowRoute(flow, e.dst)
			c.stats.Pushes++
		}
	}
	delete(c.pins, flow)
	// Recycle — except while notifications run, where pending notes may
	// still alias this pin's path slice.
	if !c.notifying {
		c.pinFree = append(c.pinFree, pin)
	}
}

// PinnedPath returns a flow's pinned DC path, if any (copied — callers
// must not be able to corrupt the controller's path-death detection).
func (c *Controller) PinnedPath(flow core.FlowID) ([]core.NodeID, bool) {
	pin, ok := c.pins[flow]
	if !ok {
		return nil, false
	}
	return append([]core.NodeID(nil), pin.path...), true
}

// WatchFlow subscribes an unpinned flow to primary-path changes between
// its two DCs: after any recompute that moves the shortest a→b path,
// OnFlowPath fires with the old and new paths. Returns the current
// primary (nil when none exists) so callers seed their own path state
// without a second SPF.
func (c *Controller) WatchFlow(flow core.FlowID, a, b core.NodeID) []core.NodeID {
	// Seed from the same table walk the change detector uses — a
	// source-rooted SPF can disagree with the installed hop-by-hop route
	// on equal-cost topologies, which would mislabel the first recompute
	// as a reroute.
	var w *flowWatch
	if n := len(c.watchFree); n > 0 {
		w = c.watchFree[n-1]
		c.watchFree = c.watchFree[:n-1]
	} else {
		w = &flowWatch{}
	}
	w.a, w.b = a, b
	w.last = c.appendPrimary(w.last[:0], a, b)
	c.watches[flow] = w
	// Copy: a caller mutating the result must not corrupt the watch's
	// change detection.
	return append([]core.NodeID(nil), w.last...)
}

// UnwatchFlow cancels a WatchFlow subscription.
func (c *Controller) UnwatchFlow(flow core.FlowID) {
	w, ok := c.watches[flow]
	if !ok {
		return
	}
	delete(c.watches, flow)
	// Recycle — except while notifications run, where pending notes may
	// still alias this watch's last-path slice.
	if !c.notifying {
		c.watchFree = append(c.watchFree, w)
	}
}

// PinnedCount reports how many flows currently hold pinned paths.
// Together with WatchedCount it is the chaos harness's leak check:
// after every flow closes, both must read zero.
func (c *Controller) PinnedCount() int { return len(c.pins) }

// WatchedCount reports how many flows currently hold primary-path
// watches (WatchFlow subscriptions not yet cancelled).
func (c *Controller) WatchedCount() int { return len(c.watches) }

// IsWatched reports whether the flow holds a live WatchFlow
// subscription. A flow must never be pinned and watched at once — the
// resolver installs exactly one of the two — and the chaos harness's
// flap invariant asserts it.
func (c *Controller) IsWatched(flow core.FlowID) bool {
	_, ok := c.watches[flow]
	return ok
}

// pathDead reports whether any link of a pinned path is missing or down.
func (c *Controller) pathDead(path []core.NodeID) bool {
	for i := 0; i+1 < len(path); i++ {
		l := c.g.Link(path[i], path[i+1])
		if l == nil || l.State == LinkDown {
			return true
		}
	}
	return false
}

// PathCost returns the current one-way latency along an explicit DC path
// (endpoints included), or ok=false when any link is missing or down.
// Pinned flows price their predictions on this, not the primary path.
// It sums honest latencies (Link.Latency), not congestion-inflated
// weights: a pinned flow on a hot link is steered-around by routing but
// does not actually get slower in proportion to the penalty.
func (c *Controller) PathCost(path []core.NodeID) (core.Time, bool) {
	if len(path) < 2 {
		return 0, len(path) == 1
	}
	var sum core.Time
	for i := 0; i+1 < len(path); i++ {
		l := c.g.Link(path[i], path[i+1])
		if l == nil {
			return 0, false
		}
		w, up := l.Latency()
		if !up {
			return 0, false
		}
		sum += w
	}
	return sum, true
}

// pathNote is one pending OnFlowPath notification.
type pathNote struct {
	flow      core.FlowID
	old, next []core.NodeID
	broken    bool
}

// notifyFlowPaths runs after a recompute: it collects every pinned flow
// whose path died and every watched flow whose primary moved, then fires
// OnFlowPath for each (outside the iteration, so handlers may re-pin).
// Buffers are controller-owned and reused; an idle sweep (no notes)
// allocates nothing.
func (c *Controller) notifyFlowPaths() {
	if c.OnFlowPath == nil {
		return
	}
	notes := c.noteBuf[:0]
	ids := sortedFlowIDsInto(c.idBuf[:0], c.pins)
	for _, flow := range ids {
		if pin := c.pins[flow]; c.pathDead(pin.path) {
			notes = append(notes, pathNote{flow, pin.path, nil, true})
		}
	}
	// Many flows often watch the same DC pair; walk the freshly built
	// next-hop tables (O(hops) per pair) instead of re-running SPF.
	ids = sortedFlowIDsInto(ids[:0], c.watches)
	clear(c.primBuf)
	for _, flow := range ids {
		w := c.watches[flow]
		pair := [2]core.NodeID{w.a, w.b}
		cur, seen := c.primBuf[pair]
		if !seen {
			cur = c.primaryFromTables(w.a, w.b)
			c.primBuf[pair] = cur
		}
		if !sameNodes(cur, w.last) {
			old := w.last
			w.last = append([]core.NodeID(nil), cur...)
			notes = append(notes, pathNote{flow, old, cur, false})
		}
	}
	c.idBuf = ids
	c.noteBuf = notes
	c.notifying = true
	for _, n := range notes {
		c.OnFlowPath(n.flow, n.old, n.next, n.broken)
	}
	c.notifying = false
}

// primaryFromTables reconstructs the primary a→b path by walking the
// next-hop tables Recompute just rebuilt — O(hops), no extra SPF. Nil
// when no route exists (or the tables are inconsistent mid-walk).
func (c *Controller) primaryFromTables(a, b core.NodeID) []core.NodeID {
	p := c.appendPrimary(nil, a, b)
	if len(p) == 0 {
		return nil
	}
	return p
}

// appendPrimary is primaryFromTables into a caller-owned buffer; the
// result is buf[:0] when no route exists.
func (c *Controller) appendPrimary(buf []core.NodeID, a, b core.NodeID) []core.NodeID {
	buf = buf[:0]
	if a == b || c.nhM == nil {
		return buf
	}
	ai, ok1 := c.idxOf[a]
	bi, ok2 := c.idxOf[b]
	if !ok1 || !ok2 {
		return buf
	}
	n := len(c.nodeList)
	buf = append(buf, a)
	for at := ai; at != bi; {
		via := c.nhM[int(at)*n+int(bi)]
		if via == 0 || len(buf) > n {
			return buf[:0]
		}
		buf = append(buf, via)
		at = c.idxOf[via]
	}
	return buf
}

// sortedFlowIDsInto appends map keys to buf in ascending order, for
// deterministic notification sweeps without per-recompute allocation.
func sortedFlowIDsInto[V any](buf []core.FlowID, m map[core.FlowID]V) []core.FlowID {
	for id := range m {
		buf = append(buf, id)
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf
}

// Recompute rebuilds the all-pairs tables from current link health and
// pushes the deltas to every sink. Unchanged entries are not re-pushed.
// Link-scoped events go through recomputeLinks (incremental.go) instead,
// which recomputes only the affected sources; this full form remains the
// entry point for structural changes and the legacy fallback.
func (c *Controller) Recompute() {
	c.stats.Recomputes++
	c.ensureTopo()
	c.beginUpdate()
	aff := c.affBuf[:0]
	for i := range c.nodeList {
		aff = append(aff, int32(i))
	}
	c.affBuf = aff
	c.computeTrees(aff)
	changed := 0
	for _, i := range aff {
		s := c.nodeList[i]
		changed += c.refreshSource(s, c.trees[s], i)
	}
	c.endUpdate(changed)
}

// beginUpdate opens a table-update session: the first modifying push of
// the session advances the table epoch (lazily, so no-op recomputes never
// burn an epoch).
func (c *Controller) beginUpdate() {
	c.inUpdate = true
	c.epochBumped = false
}

// endUpdate closes the session: reroute accounting, flow-path
// notifications, the OnRecompute hook, and — when routes actually moved —
// the epoch-advance hook that triggers the hosting runtime's
// drain-then-retire of the previous table version.
func (c *Controller) endUpdate(changed int) {
	c.inUpdate = false
	if changed > 0 {
		c.stats.Reroutes++
	}
	c.notifyFlowPaths()
	if c.OnRecompute != nil {
		c.OnRecompute()
	}
	if c.epochBumped && c.OnEpochAdvance != nil {
		c.OnEpochAdvance(c.epoch)
	}
}

// epochWrite runs before a modifying table push: it opens the session's
// new epoch on first use and announces it to the written sink, which
// snapshots its pre-write state for old-epoch lookups (make-before-break).
func (c *Controller) epochWrite(dt *dcTables) {
	if !c.inUpdate {
		return
	}
	if !c.epochBumped {
		c.epoch++
		c.epochBumped = true
		c.stats.EpochAdvances++
	}
	if dt.esink != nil && dt.sinkEpoch != c.epoch {
		dt.esink.BeginEpoch(c.epoch)
		dt.sinkEpoch = c.epoch
	}
}

// CurrentEpoch returns the current table version. Packets entering the
// overlay are tagged with it so forwarders can keep resolving their
// routes against that version mid-flight across a reroute.
func (c *Controller) CurrentEpoch() uint64 { return c.epoch }

// RetireEpoch drops every sink's previous-epoch routes. The hosting
// runtime calls it (per OnEpochAdvance) once in-flight traffic tagged
// with the older epoch has drained; epoch names the epoch whose
// PREDECESSOR is being retired — i.e. pass the value OnEpochAdvance
// delivered. Stale retires (the tables have advanced again since) are
// no-ops at the sinks.
func (c *Controller) RetireEpoch(epoch uint64) {
	for _, dc := range c.g.Nodes() {
		if dt := c.dcs[dc]; dt != nil && dt.esink != nil {
			dt.esink.RetireEpoch(epoch)
		}
	}
	c.stats.EpochRetires++
}

// desiredVia resolves a host destination to its next hop at dc: none when
// dc is the host's home (direct delivery), otherwise the hop toward the
// home DC. Returns 0 for "no entry".
func (c *Controller) desiredVia(dc, host core.NodeID) core.NodeID {
	home, ok := c.homes[host]
	if !ok || home == dc {
		return 0
	}
	return c.nhLookup(dc, home)
}

// nhLookup reads the routed next hop a→b from the index-space table
// (0 = no route, or tables not yet computed).
func (c *Controller) nhLookup(a, b core.NodeID) core.NodeID {
	ai, ok1 := c.idxOf[a]
	bi, ok2 := c.idxOf[b]
	if !ok1 || !ok2 || c.nhM == nil {
		return 0
	}
	return c.nhM[int(ai)*len(c.nodeList)+int(bi)]
}

// pushDC reconciles the (dc, destination-DC) entry at dstIdx against
// dt's installed row, returning 1 when an existing next hop moved to a
// different valid hop. Modifying pushes inside a recompute session
// advance the table epoch first (epochWrite), so the sink snapshots the
// old version before the write lands.
func (c *Controller) pushDC(dt *dcTables, dstIdx int32, dst, via core.NodeID) int {
	if dt == nil || dt.sink == nil {
		return 0
	}
	for int(dstIdx) >= len(dt.instDC) {
		// Sink registered after the last topology rebuild: its row starts
		// empty and grows here (the index assignment is current).
		dt.instDC = append(dt.instDC, 0)
	}
	old := dt.instDC[dstIdx]
	if via == 0 {
		if old != 0 {
			c.epochWrite(dt)
			dt.sink.DeleteRoute(dst)
			dt.instDC[dstIdx] = 0
			c.stats.Pushes++
		}
		return 0
	}
	if old == via {
		return 0
	}
	c.epochWrite(dt)
	dt.sink.SetRoute(dst, via)
	dt.instDC[dstIdx] = via
	c.stats.Pushes++
	if old != 0 {
		c.stats.RouteChanges++
		return 1
	}
	return 0
}

// pushHost is pushDC for a host-slot entry.
func (c *Controller) pushHost(dt *dcTables, slot int32, host, via core.NodeID) int {
	if dt == nil || dt.sink == nil {
		return 0
	}
	old := dt.instHost[slot]
	if via == 0 {
		if old != 0 {
			c.epochWrite(dt)
			dt.sink.DeleteRoute(host)
			dt.instHost[slot] = 0
			c.stats.Pushes++
		}
		return 0
	}
	if old == via {
		return 0
	}
	c.epochWrite(dt)
	dt.sink.SetRoute(host, via)
	dt.instHost[slot] = via
	c.stats.Pushes++
	if old != 0 {
		c.stats.RouteChanges++
		return 1
	}
	return 0
}
