// Package forward implements the J-QoS forwarding service (§3.1): next-hop
// routing over the small cloud overlay, unicast and multicast fan-out, and
// the duplication helpers behind multipath and partial-overlay use cases
// (Figure 3). Route decisions are centrally computed and pushed to each DC,
// matching the paper's "simple, centralized" model.
package forward

import (
	"fmt"
	"sort"

	"jqos/internal/core"
)

// Stats counts forwarding activity.
type Stats struct {
	Unicast   uint64 // packets forwarded to a single next hop
	Multicast uint64 // packets fanned out to a group
	Copies    uint64 // total copies emitted
	NoRoute   uint64 // packets dropped for lack of a route
	// FlowPinned counts copies that followed a per-flow pinned next hop
	// instead of the shared table (path-pinned flows).
	FlowPinned uint64
	// OldEpochResolves counts packets resolved against the previous table
	// epoch during a make-before-break drain window — in-flight traffic
	// that would have been re-resolved (and possibly reordered or
	// blackholed) by an in-place table swap.
	OldEpochResolves uint64
}

// flowKey names one per-flow pinned entry: the flow plus the destination
// the pin applies to (pins are directional — reverse traffic of the same
// flow rides the shared tables).
type flowKey struct {
	flow core.FlowID
	dst  core.NodeID
}

// Forwarder is the forwarding state of one DC node. The emits Forward and
// ForwardTagged return are the forwarder's own buffer, valid until the next
// call into it.
type Forwarder struct {
	self core.NodeID
	// routes maps a destination DC to the next hop toward it. Tables name
	// DCs only: a host or group has no entry, and the hosting core reaches
	// it through the route to its home DC (dataplane.Core.send).
	routes map[core.NodeID]core.NodeID
	// flowRoutes maps (flow, destination) to a pinned next hop that
	// outranks the shared table — the routing controller pushes these for
	// flows with a path policy (Cheapest / Pinned-to-kth-alternate).
	flowRoutes map[flowKey]core.NodeID
	// groups maps a multicast group ID to its member endpoints.
	groups map[core.NodeID][]core.NodeID

	// Make-before-break state: epoch is the current table version
	// (announced by the controller via BeginEpoch); while prevLive,
	// prevRoutes overlays the OLD value of every entry the current epoch
	// changed (0 = the old table had no entry), so packets tagged with the
	// previous epoch keep resolving the routes they entered the overlay
	// under until the controller retires them. Only one previous version
	// is kept — a new BeginEpoch force-retires the older overlay.
	epoch      uint64
	prevLive   bool
	prevRoutes map[core.NodeID]core.NodeID

	stats Stats

	out []core.Emit // ForwardTagged's answer
}

// New creates a forwarder for the DC with identity self.
func New(self core.NodeID) *Forwarder {
	return &Forwarder{
		self:       self,
		routes:     make(map[core.NodeID]core.NodeID),
		flowRoutes: make(map[flowKey]core.NodeID),
		groups:     make(map[core.NodeID][]core.NodeID),
	}
}

// Stats returns a copy of the counters.
func (f *Forwarder) Stats() Stats { return f.stats }

// SetRoute installs next hop via for destination dst. via == dst means
// direct delivery.
func (f *Forwarder) SetRoute(dst, via core.NodeID) {
	f.saveOld(dst)
	f.routes[dst] = via
}

// DeleteRoute removes the route for dst.
func (f *Forwarder) DeleteRoute(dst core.NodeID) {
	f.saveOld(dst)
	delete(f.routes, dst)
}

// saveOld snapshots dst's pre-write value into the previous-epoch overlay
// (first write per entry per epoch wins — that IS the old table's value).
func (f *Forwarder) saveOld(dst core.NodeID) {
	if !f.prevLive {
		return
	}
	if _, saved := f.prevRoutes[dst]; saved {
		return
	}
	f.prevRoutes[dst] = f.routes[dst] // zero value = no prior entry
}

// BeginEpoch opens table version epoch (routing.RouteSink). From here
// until RetireEpoch, writes snapshot their previous values so old-epoch
// lookups still resolve. An un-retired older overlay is force-dropped:
// the drain window ended the moment its successor epoch opened.
func (f *Forwarder) BeginEpoch(epoch uint64) {
	if f.prevRoutes == nil {
		f.prevRoutes = make(map[core.NodeID]core.NodeID)
	} else {
		clear(f.prevRoutes)
	}
	f.epoch = epoch
	f.prevLive = true
}

// RetireEpoch drops the overlay protecting epoch's predecessor (no-op
// unless epoch is still current — a stale retire races a newer epoch
// that already force-dropped it).
func (f *Forwarder) RetireEpoch(epoch uint64) {
	if epoch != f.epoch || !f.prevLive {
		return
	}
	f.prevLive = false
	clear(f.prevRoutes)
}

// Epoch returns the current table version.
func (f *Forwarder) Epoch() uint64 { return f.epoch }

// EpochTag returns the current table version's 2-bit wire tag.
func (f *Forwarder) EpochTag() uint8 { return uint8(f.epoch & 3) }

// RouteTagged resolves dst against the table version carried by a
// packet's 2-bit epoch tag: the current table when the tag matches (or no
// older version is live), the previous version otherwise — the saved old
// value for entries the current epoch changed, the (shared) current table
// for everything else.
func (f *Forwarder) RouteTagged(tag uint8, dst core.NodeID) (core.NodeID, bool) {
	if f.prevLive && tag != f.EpochTag() {
		if old, saved := f.prevRoutes[dst]; saved {
			return old, old != 0
		}
	}
	return f.Route(dst)
}

// ForwardTagged produces the Emits that relay one message toward dst under
// the table version named by the packet's epoch tag. A multicast
// destination fans out to the current group membership (groups are member
// sets, not hops — there is nothing to drain); a unicast one goes to its
// tagged next hop, or to dst itself when that table has no entry. The
// message bytes are shared across copies (links never mutate payloads).
// Self-loops are dropped defensively: a route pointing back at this DC
// would otherwise ping-pong forever.
func (f *Forwarder) ForwardTagged(tag uint8, dst core.NodeID, msg []byte) []core.Emit {
	out := core.RecycleEmits(f.out)
	if members, ok := f.groups[dst]; ok {
		for _, m := range members {
			if m != f.self {
				out = append(out, core.Emit{To: m, Msg: msg})
			}
		}
		if len(out) > 0 {
			f.stats.Multicast++
		}
	} else {
		if f.prevLive && tag != f.EpochTag() {
			f.stats.OldEpochResolves++
		}
		hop, ok := f.RouteTagged(tag, dst)
		if !ok {
			hop = dst
		}
		if hop != f.self {
			out = append(out, core.Emit{To: hop, Msg: msg})
			f.stats.Unicast++
		}
	}
	f.out = out
	if len(out) == 0 {
		f.stats.NoRoute++
	}
	f.stats.Copies += uint64(len(out))
	return out
}

// Forward is ForwardTagged under the current table version.
func (f *Forwarder) Forward(dst core.NodeID, msg []byte) []core.Emit {
	return f.ForwardTagged(f.EpochTag(), dst, msg)
}

// Route returns the installed next hop for dst, if any. Transmit paths use
// it to reach nodes this DC has no direct link to (multi-hop overlays).
func (f *Forwarder) Route(dst core.NodeID) (core.NodeID, bool) {
	via, ok := f.routes[dst]
	return via, ok
}

// SetFlowRoute pins the next hop for one flow's traffic toward dst,
// outranking the shared table. Routing controllers push these entries for
// flows with an explicit path policy.
func (f *Forwarder) SetFlowRoute(flow core.FlowID, dst, via core.NodeID) {
	f.flowRoutes[flowKey{flow, dst}] = via
}

// DeleteFlowRoute removes a pinned entry.
func (f *Forwarder) DeleteFlowRoute(flow core.FlowID, dst core.NodeID) {
	delete(f.flowRoutes, flowKey{flow, dst})
}

// FlowRoute returns the pinned next hop for (flow, dst), if any.
func (f *Forwarder) FlowRoute(flow core.FlowID, dst core.NodeID) (core.NodeID, bool) {
	via, ok := f.flowRoutes[flowKey{flow, dst}]
	return via, ok
}

// FlowRouteCount returns the number of pinned entries (diagnostics).
func (f *Forwarder) FlowRouteCount() int { return len(f.flowRoutes) }

// SetGroup installs (or replaces) a multicast group. Members are stored
// sorted so fan-out order is deterministic.
func (f *Forwarder) SetGroup(group core.NodeID, members ...core.NodeID) {
	ms := append([]core.NodeID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	f.groups[group] = ms
}

// Group returns the members of a group (nil if unknown).
func (f *Forwarder) Group(group core.NodeID) []core.NodeID { return f.groups[group] }

// IsGroup reports whether dst names a multicast group on this DC.
func (f *Forwarder) IsGroup(dst core.NodeID) bool {
	_, ok := f.groups[dst]
	return ok
}

// NotePinned counts one copy sent over a per-flow pinned hop. The hosting
// DC resolves pins itself (FlowRoute) so the chosen hop goes on the wire
// directly rather than re-resolved through the shared table, and calls
// this once the copy left. A relayed message counts like the unicast
// Forward it stands in for, so per-DC copy totals compare across pinned
// and unpinned flows; an engine emit (coded parity) moves FlowPinned only,
// because unpinned engine emits bypass the forwarder entirely.
func (f *Forwarder) NotePinned(relayed bool) {
	f.stats.FlowPinned++
	if relayed {
		f.stats.Unicast++
		f.stats.Copies++
	}
}

// String implements fmt.Stringer for debugging.
func (f *Forwarder) String() string {
	return fmt.Sprintf("forwarder(%v: %d routes, %d groups)", f.self, len(f.routes), len(f.groups))
}
