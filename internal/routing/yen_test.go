package routing

import (
	"container/heap"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"jqos/internal/core"
)

// This file is the reference model of Controller.Paths: a map-based
// Dijkstra over container/heap and Yen's algorithm on top of it.
// TestPathsMatchReference holds the two to the same paths, in the same
// order, at the same costs.

type pqItem struct {
	node core.NodeID
	dist core.Time
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node
}
func (q pq) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)   { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any     { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

type spfResult struct {
	dist map[core.NodeID]core.Time
	prev map[core.NodeID]core.NodeID
}

// shortestFrom runs Dijkstra from src over up-links, skipping banned edges
// and vertices (nil = none). The frontier orders equal distances by node
// ID, and an equal-cost relaxation keeps the lower-ID predecessor.
func (g *Graph) shortestFrom(src core.NodeID, bannedEdge map[[2]core.NodeID]bool, bannedNode map[core.NodeID]bool) spfResult {
	res := spfResult{dist: map[core.NodeID]core.Time{}, prev: map[core.NodeID]core.NodeID{}}
	if !g.nodes[src] || bannedNode[src] {
		return res
	}
	res.dist[src] = 0
	frontier := pq{{node: src}}
	done := map[core.NodeID]bool{}
	for len(frontier) > 0 {
		it := heap.Pop(&frontier).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, nb := range g.Neighbors(it.node) {
			if done[nb] || bannedNode[nb] || bannedEdge[linkKey(it.node, nb)] {
				continue
			}
			w, up := g.Link(it.node, nb).Cost()
			if !up {
				continue
			}
			nd := it.dist + w
			old, seen := res.dist[nb]
			switch {
			case !seen || nd < old:
				res.dist[nb] = nd
				res.prev[nb] = it.node
				heap.Push(&frontier, pqItem{node: nb, dist: nd})
			case nd == old && it.node < res.prev[nb]:
				res.prev[nb] = it.node
			}
		}
	}
	return res
}

// pathTo reconstructs src→dst from a shortest-path tree (nil if dst is
// unreachable).
func (r spfResult) pathTo(src, dst core.NodeID) []core.NodeID {
	if _, ok := r.dist[dst]; !ok {
		return nil
	}
	var rev []core.NodeID
	for at := dst; ; at = r.prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
	}
	slices.Reverse(rev)
	return rev
}

// ShortestPath returns the least-weight path src→dst over up-links, or
// ok=false when none exists.
func (g *Graph) ShortestPath(src, dst core.NodeID) (Path, bool) {
	res := g.shortestFrom(src, nil, nil)
	nodes := res.pathTo(src, dst)
	if nodes == nil {
		return Path{}, false
	}
	return Path{Nodes: nodes, Cost: res.dist[dst]}, true
}

// KShortestPaths returns up to k loop-free paths src→dst in ascending
// cost order, by Yen's algorithm. Equal-cost candidates order by path
// length then lexicographic node IDs.
func (g *Graph) KShortestPaths(src, dst core.NodeID, k int) []Path {
	first, ok := g.ShortestPath(src, dst)
	if k <= 0 || !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	has := func(ps []Path, q Path) bool {
		return slices.ContainsFunc(ps, func(p Path) bool { return slices.Equal(p.Nodes, q.Nodes) })
	}
	for len(paths) < k {
		prev := paths[len(paths)-1].Nodes
		for i := 0; i < len(prev)-1; i++ {
			spur := prev[i]
			rootNodes := prev[:i+1]
			var rootCost core.Time
			for j := 0; j+1 < len(rootNodes); j++ {
				w, _ := g.Link(rootNodes[j], rootNodes[j+1]).Cost()
				rootCost += w
			}
			bannedEdge := make(map[[2]core.NodeID]bool)
			for _, p := range paths {
				if len(p.Nodes) > i && slices.Equal(p.Nodes[:i+1], rootNodes) {
					bannedEdge[linkKey(p.Nodes[i], p.Nodes[i+1])] = true
				}
			}
			bannedNode := make(map[core.NodeID]bool)
			for _, n := range rootNodes[:i] {
				bannedNode[n] = true
			}
			res := g.shortestFrom(spur, bannedEdge, bannedNode)
			spurNodes := res.pathTo(spur, dst)
			if spurNodes == nil {
				continue
			}
			cand := Path{Nodes: append(slices.Clone(rootNodes[:i]), spurNodes...), Cost: rootCost + res.dist[dst]}
			if !has(paths, cand) && !has(candidates, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(candidates); i++ {
			if refPathLess(candidates[i], candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

// refPathLess orders candidate paths: cost, then hop count, then node IDs.
func refPathLess(a, b Path) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if len(a.Nodes) != len(b.Nodes) {
		return len(a.Nodes) < len(b.Nodes)
	}
	return slices.Compare(a.Nodes, b.Nodes) < 0
}

// TestPathsMatchReference holds Paths to the reference Yen over random
// graphs whose latencies lie on a 5 ms grid (so equal-cost candidates are
// common), with down, degraded and congested links: every pair, k from 1
// to 5, the same paths in the same order at the same costs.
func TestPathsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		c := NewController(2)
		for id := core.NodeID(1); id <= core.NodeID(n); id++ {
			c.AddDC(id, newFakeSink())
		}
		for b := core.NodeID(2); b <= core.NodeID(n); b++ {
			c.SetLink(core.NodeID(1+rng.Intn(int(b)-1)), b, time.Duration(5*(1+rng.Intn(6)))*time.Millisecond)
		}
		for i := 0; i < n; i++ {
			if a, b := core.NodeID(1+rng.Intn(n)), core.NodeID(1+rng.Intn(n)); a != b {
				c.SetLink(a, b, time.Duration(5*rng.Intn(7))*time.Millisecond)
			}
		}
		for _, l := range sortedLinks(c.g) {
			switch rng.Intn(8) {
			case 0:
				c.SetLinkHealth(l.A, l.B, LinkDown, 0)
			case 1:
				c.SetLinkHealth(l.A, l.B, LinkDegraded, time.Duration(5*(1+rng.Intn(6)))*time.Millisecond)
			case 2:
				c.SetLinkUtilizations([]UtilizationReport{{l.A, l.B, 1}})
			}
		}
		for a := core.NodeID(1); a <= core.NodeID(n+1); a++ {
			for b := core.NodeID(1); b <= core.NodeID(n+1); b++ {
				k := 1 + rng.Intn(5)
				got, want := c.Paths(a, b, k), c.g.KShortestPaths(a, b, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Paths(%v, %v, %d)\ngot  %v\nwant %v", seed, a, b, k, got, want)
				}
			}
		}
	}
}

// TestPathsAllocateWhatTheyReturn: once the controller's buffers have
// grown, a Paths call allocates the []Path it returns and one node array.
func TestPathsAllocateWhatTheyReturn(t *testing.T) {
	c := benchController()
	c.Paths(1, 26, 3)
	if allocs := testing.AllocsPerRun(50, func() { c.Paths(1, 26, 3) }); allocs != 2 {
		t.Fatalf("Paths allocates %.1f times per call, want 2", allocs)
	}
}
