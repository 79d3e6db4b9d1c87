package routing

import (
	"math"
	"slices"

	"jqos/internal/core"
)

// This file is the controller's one route engine: an index-space
// Dijkstra over a snapshot of the graph (positions in
// Controller.nodeList), run into one reused scratch tree. Recompute runs
// it once per source; Paths runs Yen's spur searches on it, with banned
// nodes and edges as generation-stamped marks.

// Path is one loop-free route through the DC graph, endpoints included.
type Path struct {
	Nodes []core.NodeID
	Cost  core.Time
}

const infCost = core.Time(math.MaxInt64)

// adjEdge is one directed adjacency entry of the index-space graph: the
// neighbor's index, the shared undirected Link, and a snapshot of its
// weight/latency/health (refreshWeights) so the Dijkstra inner loop reads
// flat fields instead of re-deriving congestion-inflated costs per
// relaxation. Only structural changes rebuild the adjacency.
type adjEdge struct {
	to   int32
	up   bool
	w    core.Time // selection weight (Link.Cost)
	lat  core.Time // honest latency (Link.Latency)
	link *Link
}

// refreshWeights snapshots every edge's current cost/latency/state. It
// runs before each recompute and each Paths call.
func (c *Controller) refreshWeights() {
	for i := range c.adj {
		row := c.adj[i]
		for j := range row {
			e := &row[j]
			e.w, e.up = e.link.Cost()
			if e.up {
				e.lat, _ = e.link.Latency()
			}
		}
	}
}

// spfWork is the controller's reusable Dijkstra state: the binary-heap
// frontier and one shortest-path tree, kept across searches so they
// allocate nothing in steady state. dist is the weight the tree minimized
// (congestion-inflated; infCost = unreachable), lat the honest latency
// accumulated along the chosen edges, prev the tree parent (-1 = none),
// and first a lazily filled first-hop memo (-2 = unknown, -1 =
// unreachable/self). A node is settled when done[i] == gen, banned when
// banNode[i] == gen, and the edge from the source to i is banned when
// banEdge[i] == gen: opening a generation (begin) lifts every mark at once.
type spfWork struct {
	frontier []heapItem
	src      int32
	dist     []core.Time
	lat      []core.Time
	prev     []int32
	first    []int32
	done     []uint32
	banNode  []uint32
	banEdge  []uint32
	gen      uint32
}

// heapItem is one frontier entry. Ties on dist break on index, which —
// because nodeList is sorted ascending — is the node-ID tie-break.
type heapItem struct {
	dist core.Time
	idx  int32
}

func heapLess(a, b heapItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.idx < b.idx
}

func (w *spfWork) push(it heapItem) {
	w.frontier = append(w.frontier, it)
	i := len(w.frontier) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(w.frontier[i], w.frontier[p]) {
			break
		}
		w.frontier[i], w.frontier[p] = w.frontier[p], w.frontier[i]
		i = p
	}
}

func (w *spfWork) pop() heapItem {
	h := w.frontier
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	w.frontier = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && heapLess(h[l], h[small]) {
			small = l
		}
		if r < n && heapLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// begin sizes the scratch tree to n nodes and opens a new generation of
// marks for the next search.
func (w *spfWork) begin(n int) {
	if cap(w.dist) < n {
		w.dist = make([]core.Time, n)
		w.lat = make([]core.Time, n)
		w.prev = make([]int32, n)
		w.first = make([]int32, n)
		w.done = make([]uint32, n)
		w.banNode = make([]uint32, n)
		w.banEdge = make([]uint32, n)
	}
	w.dist, w.lat, w.prev, w.first = w.dist[:n], w.lat[:n], w.prev[:n], w.first[:n]
	w.done, w.banNode, w.banEdge = w.done[:n], w.banNode[:n], w.banEdge[:n]
	w.gen++
	if w.gen == 0 {
		clear(w.done)
		clear(w.banNode)
		clear(w.banEdge)
		w.gen = 1
	}
}

// spf runs one deterministic Dijkstra from src into the scratch tree,
// skipping the nodes and source edges banned in the current generation,
// and stops once stop (-1 = none) is settled: its path is final then.
// Edges relax on weight (Link.Cost, which congestion inflates) while the
// honest latency of the selected tree is carried alongside — a route
// steered off a hot link must not inherit its phantom delay in latency
// predictions. The frontier pops equal distances by index, and an
// equal-cost relaxation keeps the lower-index predecessor. Settled nodes
// are never relaxed again: on a zero-weight link the tie-break could
// otherwise rewrite two of them into each other's predecessor, a prev
// cycle that hangs path reconstruction.
func (c *Controller) spf(src, stop int32) {
	w := &c.work
	for i := range w.dist {
		w.dist[i] = infCost
		w.lat[i] = 0
		w.prev[i] = -1
		w.first[i] = -2
	}
	w.src = src
	w.dist[src] = 0
	w.first[src] = -1
	w.frontier = append(w.frontier[:0], heapItem{dist: 0, idx: src})
	for len(w.frontier) > 0 {
		it := w.pop()
		if w.done[it.idx] == w.gen {
			continue
		}
		w.done[it.idx] = w.gen
		if it.idx == stop {
			return
		}
		for _, e := range c.adj[it.idx] {
			if !e.up || w.done[e.to] == w.gen || w.banNode[e.to] == w.gen ||
				(it.idx == src && w.banEdge[e.to] == w.gen) {
				continue
			}
			nd := it.dist + e.w
			switch {
			case nd < w.dist[e.to]:
				w.dist[e.to] = nd
				w.lat[e.to] = w.lat[it.idx] + e.lat
				w.prev[e.to] = it.idx
				w.push(heapItem{dist: nd, idx: e.to})
			case nd == w.dist[e.to] && it.idx < w.prev[e.to]:
				w.prev[e.to] = it.idx
				w.lat[e.to] = w.lat[it.idx] + e.lat
			}
		}
	}
}

// firstHop resolves the first hop from the tree's source toward dstIdx,
// memoized with path compression (-1 = unreachable or self).
func (w *spfWork) firstHop(dstIdx int32) int32 {
	f := w.first[dstIdx]
	if f != -2 {
		return f
	}
	p := w.prev[dstIdx]
	var res int32
	switch {
	case p == -1:
		res = -1
	case p == w.src:
		res = dstIdx
	default:
		res = w.firstHop(p)
	}
	w.first[dstIdx] = res
	return res
}

// ensureTopo refreshes the index-space view after structural graph
// changes: nodeList/idxOf and the adjacency always, and — when nodes
// joined — the routed distM/nhM tables and each DC's installed row, all
// remapped onto the new index assignment (nodes
// are never removed, so every previous ID keeps a slot and an unchanged
// count means an unchanged assignment). Pure weight/health changes leave
// the structure generation alone, so the common case is a cheap
// generation compare.
func (c *Controller) ensureTopo() {
	if c.adj != nil && c.topoGen == c.g.gen {
		return
	}
	c.topoGen = c.g.gen
	prev := append(c.listBuf[:0], c.nodeList...)
	c.listBuf = prev
	c.nodeList = append(c.nodeList[:0], c.g.order...)
	n := len(c.nodeList)
	if len(prev) != n {
		clear(c.idxOf)
		for i, id := range c.nodeList {
			c.idxOf[id] = int32(i)
		}
		c.remapTables(prev)
	}
	if cap(c.adj) < n {
		c.adj = make([][]adjEdge, n)
	}
	c.adj = c.adj[:n]
	for i, id := range c.nodeList {
		row := c.adj[i][:0]
		for _, nb := range c.g.nbrs[id] {
			row = append(row, adjEdge{to: c.idxOf[nb], link: c.g.links[linkKey(id, nb)]})
		}
		c.adj[i] = row
	}
}

// remapTables moves every index-keyed table from the assignment prev to
// the current one; slots of new nodes start unrouted.
func (c *Controller) remapTables(prev []core.NodeID) {
	n, on := len(c.nodeList), len(prev)
	dist, nh := make([]core.Time, n*n), make([]core.NodeID, n*n)
	for i := range dist {
		dist[i] = infCost
	}
	for oi, a := range prev {
		ai := int(c.idxOf[a])
		for oj, b := range prev {
			bi := int(c.idxOf[b])
			dist[ai*n+bi] = c.distM[oi*on+oj]
			nh[ai*n+bi] = c.nhM[oi*on+oj]
		}
	}
	c.distM, c.nhM = dist, nh
	for _, dt := range c.dcs {
		row := make([]core.NodeID, n)
		for oi, id := range prev {
			if oi < len(dt.instDC) {
				row[c.idxOf[id]] = dt.instDC[oi]
			}
		}
		dt.instDC = row
	}
}

// yenWork is Paths' controller-owned candidate store: every path a call
// considers is a span of pool (node indices), so a call allocates only
// what it returns.
type yenWork struct {
	pool  []int32
	acc   []span // paths found, in order
	cands []span // candidates not yet taken
}

type span struct {
	off, n int32
	cost   core.Time
}

func (y *yenWork) nodes(s span) []int32 { return y.pool[s.off : s.off+s.n] }

// has reports whether any of ss holds exactly the nodes of s.
func (y *yenWork) has(ss []span, s span) bool {
	for _, o := range ss {
		if slices.Equal(y.nodes(o), y.nodes(s)) {
			return true
		}
	}
	return false
}

// less orders candidate paths: cost, then hop count, then node IDs
// (index order is ID order).
func (y *yenWork) less(a, b span) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.n != b.n {
		return a.n < b.n
	}
	return slices.Compare(y.nodes(a), y.nodes(b)) < 0
}

// appendPath appends root (the nodes before the spur) and the scratch
// tree's path from its source to dst to the pool, returning its span.
func (y *yenWork) appendPath(w *spfWork, root []int32, dst int32, cost core.Time) span {
	hops := 0
	for at := dst; at != w.src; at = w.prev[at] {
		hops++
	}
	s := span{off: int32(len(y.pool)), n: int32(len(root) + hops + 1), cost: cost}
	y.pool = append(y.pool, root...)
	y.pool = slices.Grow(y.pool, hops+1)[:int(s.off+s.n)]
	at := dst
	for i := s.n - 1; i >= int32(len(root)); i-- {
		y.pool[s.off+i] = at
		at = w.prev[at]
	}
	return s
}

// edgeW is the snapshot weight of the up edge a→b (0 if none).
func (c *Controller) edgeW(a, b int32) core.Time {
	for _, e := range c.adj[a] {
		if e.to == b && e.up {
			return e.w
		}
	}
	return 0
}

// Paths returns up to k loop-free paths a→b in ascending cost order
// (Yen's algorithm over the health-filtered graph; k ≤ 0 uses the
// controller's configured alternate count). The first path is the
// primary route; the rest are the alternates a failure would fall back
// to. Equal-cost candidates order by hop count then node IDs, keeping
// the result deterministic. The paths' nodes share one array.
func (c *Controller) Paths(a, b core.NodeID, k int) []Path {
	if k <= 0 {
		k = c.k
	}
	c.ensureTopo()
	ai, ok1 := c.idxOf[a]
	bi, ok2 := c.idxOf[b]
	if !ok1 || !ok2 {
		return nil
	}
	c.refreshWeights()
	w, y, n := &c.work, &c.yen, len(c.nodeList)
	w.begin(n)
	c.spf(ai, bi)
	if w.dist[bi] == infCost {
		return nil
	}
	y.pool, y.cands = y.pool[:0], y.cands[:0]
	y.acc = append(y.acc[:0], y.appendPath(w, nil, bi, w.dist[bi]))
	for len(y.acc) < k {
		last := y.acc[len(y.acc)-1]
		var rootCost core.Time
		// Spur from every node of the previously found path.
		for i := int32(0); i < last.n-1; i++ {
			prevNodes := y.nodes(last)
			if i > 0 {
				rootCost += c.edgeW(prevNodes[i-1], prevNodes[i])
			}
			w.begin(n)
			for _, p := range y.acc {
				if p.n > i+1 && slices.Equal(y.nodes(p)[:i+1], prevNodes[:i+1]) {
					w.banEdge[y.pool[p.off+i+1]] = w.gen
				}
			}
			for _, x := range prevNodes[:i] {
				w.banNode[x] = w.gen
			}
			c.spf(prevNodes[i], bi)
			if w.dist[bi] == infCost {
				continue
			}
			cand := y.appendPath(w, prevNodes[:i], bi, rootCost+w.dist[bi])
			if y.has(y.acc, cand) || y.has(y.cands, cand) {
				y.pool = y.pool[:cand.off]
				continue
			}
			y.cands = append(y.cands, cand)
		}
		if len(y.cands) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(y.cands); i++ {
			if y.less(y.cands[i], y.cands[best]) {
				best = i
			}
		}
		y.acc = append(y.acc, y.cands[best])
		y.cands = append(y.cands[:best], y.cands[best+1:]...)
	}
	total := 0
	for _, s := range y.acc {
		total += int(s.n)
	}
	out, ids := make([]Path, len(y.acc)), make([]core.NodeID, total)
	for i, s := range y.acc {
		p := ids[:s.n:s.n]
		ids = ids[s.n:]
		for j, x := range y.nodes(s) {
			p[j] = c.nodeList[x]
		}
		out[i] = Path{Nodes: p, Cost: s.cost}
	}
	return out
}
