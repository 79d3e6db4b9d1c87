package routing

import "jqos/internal/core"

// This file is the delta engine behind the controller's table updates:
// per-source shortest-path trees cached in index space, an affected-source
// cut that limits a link event's recompute to the sources whose routing
// can actually change, and a heap-reusing Dijkstra for the sources that
// do. The map-based shortestFrom in spf.go remains the engine for
// Yen's k-alternates, where banned-edge filtering dominates; table
// (re)computation runs exclusively through the index-space core below.

// srcTree is one source DC's cached shortest-path tree over the graph's
// index space (positions in Controller.nodeList). dist is the weight the
// tree minimized (congestion-inflated; infCost = unreachable), lat the
// honest latency accumulated along the chosen edges, prev the tree parent
// (-1 = none), and first a lazily filled first-hop memo (-2 = unknown,
// -1 = unreachable/self).
type srcTree struct {
	src     int32
	dist    []core.Time
	lat     []core.Time
	prev    []int32
	first   []int32
	unreach int  // (src, dst) pairs charged to Stats.Unreachable
	valid   bool // false until the tree reflects the current topology
}

// adjEdge is one directed adjacency entry of the index-space graph: the
// neighbor's index, the shared undirected Link, and a per-recompute-event
// snapshot of its weight/latency/health (refreshWeights) so the Dijkstra
// inner loop reads flat fields instead of re-deriving congestion-inflated
// costs per relaxation. Only structural changes rebuild the adjacency.
type adjEdge struct {
	to   int32
	up   bool
	w    core.Time // selection weight (Link.Cost)
	lat  core.Time // honest latency (Link.Latency)
	link *Link
}

// refreshWeights snapshots every edge's current cost/latency/state. It
// runs once per recompute event, before any tree computation.
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
// frontier and the settled marks, kept across recomputes so they allocate
// nothing in steady state.
type spfWork struct {
	frontier []heapItem
	done     []bool
}

// heapItem is one frontier entry. Ties on dist break on index, which —
// because nodeList is sorted ascending — is exactly the node-ID
// tie-break the map-based engine uses.
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

// ensureTopo refreshes the index-space view after structural graph
// changes: nodeList/idxOf/adjacency, the routed distM/nhM tables (cleared
// — the full recompute this rebuild forces rewrites every row), each DC's
// installed rows (remapped to the new index assignment), the host home
// caches, and every cached tree (invalidated). Pure weight/health changes
// leave the structure generation alone, so the common case is a cheap
// generation compare.
func (c *Controller) ensureTopo() {
	if c.adj != nil && c.topoGen == c.g.gen {
		return
	}
	c.topoGen = c.g.gen
	prev := append(c.listBuf[:0], c.nodeList...)
	c.listBuf = prev
	c.nodeList = append(c.nodeList[:0], c.g.order...)
	if c.idxOf == nil {
		c.idxOf = make(map[core.NodeID]int32, len(c.nodeList))
	}
	clear(c.idxOf)
	for i, id := range c.nodeList {
		c.idxOf[id] = int32(i)
	}
	n := len(c.nodeList)
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
	if cap(c.distM) < n*n {
		c.distM = make([]core.Time, n*n)
		c.nhM = make([]core.NodeID, n*n)
	}
	c.distM = c.distM[:n*n]
	c.nhM = c.nhM[:n*n]
	for i := range c.distM {
		c.distM[i] = infCost
		c.nhM[i] = 0
	}
	// Remap installed DC rows onto the new index assignment (nodes are
	// never removed, so every previous ID still has an index) and make
	// sure host rows cover every slot.
	for _, dt := range c.dcs {
		row := make([]core.NodeID, n)
		for oldIdx, id := range prev {
			if oldIdx < len(dt.instDC) && dt.instDC[oldIdx] != 0 {
				row[c.idxOf[id]] = dt.instDC[oldIdx]
			}
		}
		dt.instDC = row
		for len(dt.instHost) < len(c.hostID) {
			dt.instHost = append(dt.instHost, 0)
		}
	}
	for slot, h := range c.hostID {
		if hi, ok := c.idxOf[c.homes[h]]; ok {
			c.hostHomeIdx[slot] = hi
		} else {
			c.hostHomeIdx[slot] = -1
		}
	}
	for _, t := range c.trees {
		t.valid = false
	}
}

// tree returns (building as needed) the cached tree for source s, with
// its slices sized to the current node count.
func (c *Controller) tree(s core.NodeID) *srcTree {
	t := c.trees[s]
	if t == nil {
		t = &srcTree{}
		c.trees[s] = t
	}
	n := len(c.nodeList)
	if cap(t.dist) < n {
		t.dist = make([]core.Time, n)
		t.lat = make([]core.Time, n)
		t.prev = make([]int32, n)
		t.first = make([]int32, n)
	}
	t.dist, t.lat = t.dist[:n], t.lat[:n]
	t.prev, t.first = t.prev[:n], t.first[:n]
	return t
}

// spfInto runs one deterministic index-space Dijkstra from srcIdx into t,
// reusing t's slices and w's frontier. Semantics mirror shortestFrom:
// relax on Link.Cost (congestion-inflated weight), carry Link.Latency
// (the honest figure) alongside, break frontier ties on index, and keep
// the lower-index predecessor on equal-cost relaxations.
func (c *Controller) spfInto(t *srcTree, srcIdx int32, w *spfWork) {
	n := len(c.nodeList)
	for i := 0; i < n; i++ {
		t.dist[i] = infCost
		t.lat[i] = 0
		t.prev[i] = -1
		t.first[i] = -2
	}
	if cap(w.done) < n {
		w.done = make([]bool, n)
	}
	w.done = w.done[:n]
	for i := range w.done {
		w.done[i] = false
	}
	t.src = srcIdx
	t.dist[srcIdx] = 0
	t.first[srcIdx] = -1
	w.frontier = w.frontier[:0]
	w.push(heapItem{dist: 0, idx: srcIdx})
	for len(w.frontier) > 0 {
		it := w.pop()
		if w.done[it.idx] {
			continue
		}
		w.done[it.idx] = true
		for _, e := range c.adj[it.idx] {
			if !e.up || w.done[e.to] {
				continue
			}
			nd := it.dist + e.w
			switch {
			case nd < t.dist[e.to]:
				t.dist[e.to] = nd
				t.lat[e.to] = t.lat[it.idx] + e.lat
				t.prev[e.to] = it.idx
				w.push(heapItem{dist: nd, idx: e.to})
			case nd == t.dist[e.to] && it.idx < t.prev[e.to]:
				t.prev[e.to] = it.idx
				t.lat[e.to] = t.lat[it.idx] + e.lat
			}
		}
	}
	t.valid = true
}

// firstHop resolves the first hop from the tree's source toward dstIdx,
// memoized with path compression (-1 = unreachable or self).
func (t *srcTree) firstHop(dstIdx int32) int32 {
	f := t.first[dstIdx]
	if f != -2 {
		return f
	}
	p := t.prev[dstIdx]
	var res int32
	switch {
	case p == -1:
		res = -1
	case p == t.src:
		res = dstIdx
	default:
		res = t.firstHop(p)
	}
	t.first[dstIdx] = res
	return res
}

// satAdd adds a weight to a tree distance, saturating at infCost so an
// unreachable endpoint can never look improvable via overflow.
func satAdd(d, w core.Time) core.Time {
	if d >= infCost-w {
		return infCost
	}
	return d + w
}

// affectedSources computes, into c.affBuf, the sorted index set of
// sources whose routing a change on the given links can alter: sources
// whose current tree uses a changed link (a tree edge is exactly a
// (parent, child) pair), plus — when the link is up — sources for which
// the link's new weight would shorten a path (dist[a]+w < dist[b] or the
// converse, the classic dynamic-SPF improvement cut). Sources with no
// valid cached tree are always affected.
func (c *Controller) affectedSources(links [][2]core.NodeID) []int32 {
	buf := c.affBuf[:0]
	for i, s := range c.nodeList {
		t := c.trees[s]
		if t == nil || !t.valid {
			buf = append(buf, int32(i))
			continue
		}
		for _, lk := range links {
			ai, aok := c.idxOf[lk[0]]
			bi, bok := c.idxOf[lk[1]]
			if !aok || !bok {
				continue
			}
			if t.prev[ai] == bi || t.prev[bi] == ai {
				buf = append(buf, int32(i))
				break
			}
			l := c.g.links[linkKey(lk[0], lk[1])]
			if l == nil {
				continue
			}
			w, up := l.Cost()
			if up && (satAdd(t.dist[ai], w) < t.dist[bi] || satAdd(t.dist[bi], w) < t.dist[ai]) {
				buf = append(buf, int32(i))
				break
			}
		}
	}
	c.affBuf = buf
	return buf
}

// computeTrees runs the per-source Dijkstras for the given source
// indices, one after another on the controller's one reusable heap: the
// graphs an overlay has (a handful of DCs) are too small for a fan-out to
// pay for itself.
func (c *Controller) computeTrees(idxs []int32) {
	c.refreshWeights()
	for _, i := range idxs {
		c.spfInto(c.tree(c.nodeList[i]), i, &c.work)
	}
}

// refreshSource folds source s's freshly computed tree into the routed
// distM/nhM rows and reconciles s's pushed entries (DC destinations
// first, then hosts — both in ascending ID order), returning the number
// of installed next hops that moved. Unreachable accounting is
// per-source so incremental updates keep Stats.Unreachable exact.
func (c *Controller) refreshSource(s core.NodeID, t *srcTree, sIdx int32) int {
	dt := c.dcs[s]
	n := len(c.nodeList)
	base := int(sIdx) * n
	changed := 0
	unreach := 0
	for j := 0; j < n; j++ {
		if int32(j) == sIdx {
			continue
		}
		if t.dist[j] == infCost {
			c.distM[base+j] = infCost
			c.nhM[base+j] = 0
			unreach++
			c.pushDC(dt, int32(j), c.nodeList[j], 0)
			continue
		}
		c.distM[base+j] = t.lat[j]
		via := c.nodeList[t.firstHop(int32(j))]
		c.nhM[base+j] = via
		changed += c.pushDC(dt, int32(j), c.nodeList[j], via)
	}
	for _, slot := range c.hostIter {
		home := c.hostHomeIdx[slot]
		var via core.NodeID
		if home >= 0 && home != sIdx {
			via = c.nhM[base+int(home)]
		}
		if via == 0 && home != sIdx {
			unreach++
		}
		changed += c.pushHost(dt, slot, c.hostID[slot], via)
	}
	c.stats.Unreachable += unreach - c.unreachBySrc[s]
	c.unreachBySrc[s] = unreach
	return changed
}

// recomputeLinks is the delta entry point for link-scoped events (health
// verdicts, utilization reweights): recompute only the affected sources,
// falling back to the full rebuild when the topology changed structurally
// since the trees were built (or in the differential test's oracle). The
// notification tail (flow-path notes, OnRecompute, epoch advance) runs
// identically to Recompute — incremental is an optimization, never a
// behavior change.
func (c *Controller) recomputeLinks(links ...[2]core.NodeID) {
	if !c.incremental || c.adj == nil || c.topoGen != c.g.gen {
		c.Recompute()
		return
	}
	c.stats.Recomputes++
	c.stats.IncrementalRecomputes++
	c.beginUpdate()
	aff := c.affectedSources(links)
	c.stats.SourcesRecomputed += uint64(len(aff))
	c.computeTrees(aff)
	changed := 0
	for _, i := range aff {
		s := c.nodeList[i]
		changed += c.refreshSource(s, c.trees[s], i)
	}
	c.endUpdate(changed)
}
