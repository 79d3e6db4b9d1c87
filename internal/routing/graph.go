// Package routing is the J-QoS overlay control plane: it holds the
// inter-DC link graph, computes all-pairs shortest paths (and k-alternate
// paths) over it, and pushes next-hop tables to every DC's forwarder —
// the paper's "centrally computed routes pushed to each DC" (§3.1,
// Figure 3) done properly, so sparse, large, failure-prone overlays work.
//
// The package has three layers:
//
//   - Graph: the weighted inter-DC link graph with per-link health state.
//   - Controller: one route engine, a deterministic index-space Dijkstra
//     (spf.go). Every graph change recomputes every source's tree and
//     pushes the entries that moved to RouteSinks, so the tables are a
//     function of the graph's state alone; Yen's k-shortest paths run
//     their spur searches on the same Dijkstra.
//   - Monitor: per-link probe bookkeeping (RTT/loss estimators, fail /
//     degrade / recover state machine) that feeds the controller.
//
// Like the protocol engines, everything here is sans-IO: probes are sent
// and timed by the hosting runtime (the emulated deployment or a real
// transport), which reports outcomes to the Monitor.
package routing

import (
	"sort"

	"jqos/internal/core"
)

// LinkState is the health of one inter-DC link as seen by the monitor.
type LinkState uint8

const (
	// LinkUp is a healthy link; path cost is its base (or refreshed)
	// one-way latency.
	LinkUp LinkState = iota
	// LinkDegraded is a usable but impaired link; path cost is the
	// estimated latency inflated by the observed loss.
	LinkDegraded
	// LinkDown removes the link from path computation entirely.
	LinkDown
)

// String implements fmt.Stringer.
func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkDegraded:
		return "degraded"
	case LinkDown:
		return "down"
	default:
		return "unknown"
	}
}

// Link is one bidirectional inter-DC edge. Base is the configured one-way
// latency; Est, when nonzero, is a monitor-refreshed estimate that
// overrides Base in path costs (both are one-way). Util and Congest are
// the load-telemetry layer: Util is the last reported utilization (raw,
// for inspection) and Congest the effective weight multiplier the
// controller derived from it (congestMultiplier; 0 or 1 = no inflation).
type Link struct {
	A, B    core.NodeID
	Base    core.Time
	State   LinkState
	Est     core.Time
	Util    float64
	Congest float64
}

// Latency returns the link's current one-way latency estimate — the
// monitor's refreshed figure (Est) or the configured base — WITHOUT
// congestion inflation: the honest number latency predictions must sum.
// ok is false when the link is down.
func (l *Link) Latency() (core.Time, bool) {
	if l.State == LinkDown {
		return 0, false
	}
	if l.Est > 0 {
		return l.Est, true
	}
	return l.Base, true
}

// Cost returns the link's current path WEIGHT: its latency inflated by
// the congestion multiplier when utilization telemetry marked the link
// hot. Route computation minimizes this; latency predictions must use
// Latency instead — the inflation steers traffic, it does not delay it.
// ok is false when the link is down and must not carry traffic.
func (l *Link) Cost() (core.Time, bool) {
	w, up := l.Latency()
	if !up {
		return 0, false
	}
	if l.Congest > 1 {
		w = core.Time(float64(w) * l.Congest)
	}
	return w, true
}

// Graph is the inter-DC link graph. Nodes are DC IDs; edges are symmetric
// Links. All iteration orders are deterministic (sorted by node ID).
type Graph struct {
	nodes map[core.NodeID]bool
	order []core.NodeID // sorted node IDs
	links map[[2]core.NodeID]*Link
	nbrs  map[core.NodeID][]core.NodeID // sorted adjacency
	// gen counts structural changes (nodes or links added/removed) so the
	// controller's index-space adjacency cache knows when it is stale.
	// Weight and health changes mutate Link fields in place and do not
	// bump it.
	gen uint64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodes: make(map[core.NodeID]bool),
		links: make(map[[2]core.NodeID]*Link),
		nbrs:  make(map[core.NodeID][]core.NodeID),
	}
}

// linkKey normalizes an undirected pair.
func linkKey(a, b core.NodeID) [2]core.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]core.NodeID{a, b}
}

// insortID inserts v into the ascending slice s if absent, returning the
// (possibly grown) slice. The package keeps every node collection sorted
// so iteration — and therefore route computation — is deterministic.
func insortID(s []core.NodeID, v core.NodeID) []core.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// AddNode registers a DC vertex (idempotent).
func (g *Graph) AddNode(id core.NodeID) {
	if g.nodes[id] {
		return
	}
	g.nodes[id] = true
	g.order = insortID(g.order, id)
	g.gen++
}

// HasNode reports whether id is a registered vertex.
func (g *Graph) HasNode(id core.NodeID) bool { return g.nodes[id] }

// Nodes returns the vertices in ascending ID order (shared slice; callers
// must not mutate).
func (g *Graph) Nodes() []core.NodeID { return g.order }

// SetLink installs (or re-bases) the symmetric edge a↔b with one-way
// latency base, registering the endpoints as needed. Re-basing resets the
// health state to LinkUp.
func (g *Graph) SetLink(a, b core.NodeID, base core.Time) *Link {
	if a == b {
		panic("routing: self-loop link")
	}
	g.AddNode(a)
	g.AddNode(b)
	k := linkKey(a, b)
	l, ok := g.links[k]
	if !ok {
		l = &Link{A: k[0], B: k[1]}
		g.links[k] = l
		g.addNeighbor(a, b)
		g.addNeighbor(b, a)
		g.gen++
	}
	l.Base = base
	l.State = LinkUp
	l.Est = 0
	l.Util = 0
	l.Congest = 0
	return l
}

func (g *Graph) addNeighbor(a, b core.NodeID) {
	g.nbrs[a] = insortID(g.nbrs[a], b)
}

// Link returns the edge a↔b, or nil.
func (g *Graph) Link(a, b core.NodeID) *Link { return g.links[linkKey(a, b)] }

// Neighbors returns a's adjacent vertices in ascending ID order (shared
// slice; callers must not mutate).
func (g *Graph) Neighbors(a core.NodeID) []core.NodeID { return g.nbrs[a] }
