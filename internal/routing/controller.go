package routing

import "jqos/internal/core"

// RouteSink receives one DC's route pushes: next hops toward the other
// DCs (a host or group is reached through its home DC's route, so no push
// names one), per-flow pinned entries for flows with an explicit path
// policy, and table-epoch announcements. Every sink hears BeginEpoch
// before any write of the new epoch lands anywhere, so all DCs hold the
// same table version and a packet's tag names the same version at every
// hop; RetireEpoch comes once the old epoch's routes may go. Between the
// two the sink answers lookups for both epochs, which is what makes
// reroutes make-before-break: in-flight packets tagged with the old epoch
// keep resolving the old next hops while new traffic rides the new table.
// forward.Forwarder is the production sink; tests use map-backed fakes.
type RouteSink interface {
	SetRoute(dst, via core.NodeID)
	DeleteRoute(dst core.NodeID)
	SetFlowRoute(flow core.FlowID, dst, via core.NodeID)
	DeleteFlowRoute(flow core.FlowID, dst core.NodeID)
	BeginEpoch(epoch uint64)
	RetireEpoch(epoch uint64)
}

// Stats counts control-plane activity.
type Stats struct {
	// Recomputes is the number of table computation events, each one
	// Dijkstra per source.
	Recomputes uint64
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
	// Unreachable is the number of ordered DC pairs with no path after
	// the last recompute.
	Unreachable int
}

// dcTables is one registered DC's push state: its sink and the installed
// next hops by destination-DC index, 0 = no entry.
type dcTables struct {
	sink   RouteSink
	instDC []core.NodeID
}

// Controller is the centralized routing control plane: it owns the link
// graph, recomputes all-pairs shortest paths when the graph or link health
// changes, and pushes per-DC next-hop tables toward the other DCs to the
// registered RouteSinks. Hosts and multicast groups only record their
// home DC: the data plane reaches one through the route to its home.
type Controller struct {
	g   *Graph
	k   int // alternate paths kept per pair (Paths default)
	dcs map[core.NodeID]*dcTables
	// homes maps host (or multicast-group) IDs to their home DC.
	homes map[core.NodeID]core.NodeID

	// distM/nhM are the routed tables in index space (row = source DC,
	// column = destination DC; distM infCost / nhM 0 = no path). distM
	// holds the honest latency of the weight-selected path (congestion
	// inflates the selection weight, never this figure — see Link.Cost
	// vs Link.Latency).
	distM []core.Time
	nhM   []core.NodeID

	// pins holds per-flow pinned paths: the only per-flow state the
	// controller keeps, because it pushes it into the sinks.
	pins map[core.FlowID]*flowPin

	// OnRecompute, when set, fires at the end of every Recompute. The
	// hosting runtime re-derives its flows' paths from here: it reads
	// PathCost, Primary and Paths against the fresh tables and pins or
	// unpins what moved. Handlers must not mutate links (no recursive
	// recompute).
	OnRecompute func()

	// OnEpochAdvance, when set, fires after any recompute that opened a
	// new table epoch (i.e. actually modified pushed routes). The hosting
	// runtime schedules the drain of in-flight old-epoch traffic and then
	// calls RetireEpoch.
	OnEpochAdvance func(epoch uint64)

	// Route engine state (spf.go). nodeList/idxOf/adj mirror the graph in
	// index space and rebuild only on structural changes (topoGen vs
	// Graph.gen); work is the one Dijkstra's scratch tree and yen the
	// candidate store of Paths.
	nodeList []core.NodeID
	listBuf  []core.NodeID // previous nodeList, for table remaps
	idxOf    map[core.NodeID]int32
	adj      [][]adjEdge
	topoGen  uint64
	work     spfWork
	yen      yenWork

	// Table-epoch state: epoch is the current table version, which every
	// sink holds; epochBumped marks whether the in-progress update already
	// opened (and announced) a new epoch.
	epoch       uint64
	epochBumped bool
	inUpdate    bool

	// pinFree recycles pins, so flow churn pins allocation-free in
	// steady state.
	pinFree []*flowPin
	walkBuf []core.NodeID // Primary's result, reused

	stats Stats
}

// flowPin is one flow's pinned path and the sink entries installed for it.
type flowPin struct {
	path    []core.NodeID // DC path, endpoints included
	entries []pinEntry    // what was pushed, for clean removal
}

type pinEntry struct {
	dc, dst core.NodeID
}

// NewController creates an empty control plane keeping k alternate paths
// per DC pair (k < 1 is treated as 1).
func NewController(k int) *Controller {
	if k < 1 {
		k = 1
	}
	return &Controller{
		g:     NewGraph(),
		k:     k,
		dcs:   make(map[core.NodeID]*dcTables),
		homes: make(map[core.NodeID]core.NodeID),
		pins:  make(map[core.FlowID]*flowPin),
		idxOf: make(map[core.NodeID]int32),
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
}

// AttachHost binds a host (or multicast-group) destination to its home
// DC. Nothing is pushed: every DC reaches it through its route to home.
func (c *Controller) AttachHost(host, home core.NodeID) {
	c.homes[host] = home
}

// SetLink installs or re-bases the inter-DC link a↔b (one-way latency)
// and recomputes tables.
func (c *Controller) SetLink(a, b core.NodeID, base core.Time) {
	c.g.SetLink(a, b, base)
	c.Recompute()
}

// SetLinkHealth applies a monitor verdict: the link's state and (for
// degraded or refreshed links) its estimated one-way cost (0 keeps the
// configured base). A change recomputes the tables and re-pushes what
// moved.
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
	c.Recompute()
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
	pin.path = append(pin.path[:0], path.Nodes...)
	pin.entries = pin.entries[:0]
	egress := path.Nodes[len(path.Nodes)-1]
	for i := 0; i+1 < len(path.Nodes); i++ {
		dt := c.dcs[path.Nodes[i]]
		if dt == nil {
			continue
		}
		via := path.Nodes[i+1]
		dt.sink.SetFlowRoute(flow, dst, via)
		pin.entries = append(pin.entries, pinEntry{path.Nodes[i], dst})
		c.stats.Pushes++
		if egress != dst {
			dt.sink.SetFlowRoute(flow, egress, via)
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
		c.dcs[e.dc].sink.DeleteFlowRoute(flow, e.dst)
		c.stats.Pushes++
	}
	delete(c.pins, flow)
	c.pinFree = append(c.pinFree, pin)
}

// PinnedCount reports how many flows currently hold pinned paths — the
// chaos harness's leak check: after every flow closes, it must read zero.
func (c *Controller) PinnedCount() int { return len(c.pins) }

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

// Primary returns the primary a→b path, endpoints included, by walking
// the next-hop tables Recompute built — O(hops), no extra SPF, and so it
// agrees with the installed hop-by-hop route even on equal-cost
// topologies where a source-rooted SPF could pick another tie. The result
// is empty when no route exists (or the tables are inconsistent
// mid-walk); it is the controller's buffer, valid until the next call.
func (c *Controller) Primary(a, b core.NodeID) []core.NodeID {
	buf := c.walkBuf[:0]
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
	c.walkBuf = buf
	return buf
}

// Recompute rebuilds the all-pairs tables from current link health and
// pushes the deltas to every sink. Unchanged entries are not re-pushed.
// Every table change — link edits, health verdicts, utilization
// reweights — runs it: one Dijkstra per source into the one scratch
// tree, so the tables are a function of the graph's state alone, never of
// the events that led there.
func (c *Controller) Recompute() {
	c.stats.Recomputes++
	c.ensureTopo()
	c.refreshWeights()
	c.beginUpdate()
	changed, unreach := 0, 0
	for i := range c.nodeList {
		c.work.begin(len(c.nodeList))
		c.spf(int32(i), -1)
		ch, u := c.refreshSource(int32(i))
		changed += ch
		unreach += u
	}
	c.stats.Unreachable = unreach
	c.endUpdate(changed)
}

// refreshSource folds the scratch tree of source sIdx into the routed
// distM/nhM rows and reconciles its pushed entries in ascending DC-ID
// order. It returns the number of installed next hops that moved and of
// DCs left unreachable.
func (c *Controller) refreshSource(sIdx int32) (changed, unreach int) {
	w := &c.work
	dt := c.dcs[c.nodeList[sIdx]]
	n := len(c.nodeList)
	base := int(sIdx) * n
	for j := int32(0); j < int32(n); j++ {
		if j == sIdx {
			continue
		}
		var via core.NodeID
		c.distM[base+int(j)] = infCost
		if w.dist[j] != infCost {
			c.distM[base+int(j)] = w.lat[j]
			via = c.nodeList[w.firstHop(j)]
		} else {
			unreach++
		}
		c.nhM[base+int(j)] = via
		changed += c.push(dt, j, c.nodeList[j], via)
	}
	return changed, unreach
}

// beginUpdate opens a table-update session: the first modifying push of
// the session advances the table epoch (lazily, so no-op recomputes never
// burn an epoch).
func (c *Controller) beginUpdate() {
	c.inUpdate = true
	c.epochBumped = false
}

// endUpdate closes the session: reroute accounting, the OnRecompute hook,
// and — when routes actually moved —
// the epoch-advance hook that triggers the hosting runtime's
// drain-then-retire of the previous table version.
func (c *Controller) endUpdate(changed int) {
	c.inUpdate = false
	if changed > 0 {
		c.stats.Reroutes++
	}
	if c.OnRecompute != nil {
		c.OnRecompute()
	}
	if c.epochBumped && c.OnEpochAdvance != nil {
		c.OnEpochAdvance(c.epoch)
	}
}

// epochWrite runs before a modifying table push: on the session's first
// one it opens the new epoch and announces it to every sink, in graph
// order, so each snapshots its pre-write state for old-epoch lookups
// (make-before-break) and no DC is left on an older version.
func (c *Controller) epochWrite() {
	if !c.inUpdate || c.epochBumped {
		return
	}
	c.epoch++
	c.epochBumped = true
	c.stats.EpochAdvances++
	for _, dc := range c.g.Nodes() {
		if dt := c.dcs[dc]; dt != nil {
			dt.sink.BeginEpoch(c.epoch)
		}
	}
}

// RetireEpoch drops every sink's previous-epoch routes. The hosting
// runtime calls it (per OnEpochAdvance) once in-flight traffic tagged
// with the older epoch has drained; epoch names the epoch whose
// PREDECESSOR is being retired — i.e. pass the value OnEpochAdvance
// delivered. Stale retires (the tables have advanced again since) are
// no-ops at the sinks.
func (c *Controller) RetireEpoch(epoch uint64) {
	for _, dc := range c.g.Nodes() {
		if dt := c.dcs[dc]; dt != nil {
			dt.sink.RetireEpoch(epoch)
		}
	}
	c.stats.EpochRetires++
}

// push reconciles one installed entry of dt — the next hop toward the DC
// dst at destination index i — with via (0 = no entry), returning 1 when
// an existing next hop moved to a different valid hop. The row grows on
// demand: a sink registered after the last index rebuild starts with an
// empty one. Modifying pushes inside a recompute session advance the
// table epoch first (epochWrite), so the sink snapshots the old version
// before the write lands.
func (c *Controller) push(dt *dcTables, i int32, dst, via core.NodeID) int {
	if dt == nil {
		return 0
	}
	for int(i) >= len(dt.instDC) {
		dt.instDC = append(dt.instDC, 0)
	}
	old := dt.instDC[i]
	if old == via {
		return 0
	}
	c.epochWrite()
	if via == 0 {
		dt.sink.DeleteRoute(dst)
	} else {
		dt.sink.SetRoute(dst, via)
	}
	dt.instDC[i] = via
	c.stats.Pushes++
	if old == 0 || via == 0 {
		return 0
	}
	c.stats.RouteChanges++
	return 1
}
