package routing

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"jqos/internal/core"
)

// diffWorld is one controller plus the sinks recording what it pushed.
type diffWorld struct {
	c     *Controller
	sinks map[core.NodeID]*fakeSink
}

func newDiffWorld(n int, hosts map[core.NodeID]core.NodeID) *diffWorld {
	w := &diffWorld{c: NewController(2), sinks: make(map[core.NodeID]*fakeSink)}
	for id := core.NodeID(1); id <= core.NodeID(n); id++ {
		s := newFakeSink()
		w.sinks[id] = s
		w.c.AddDC(id, s)
	}
	for h := core.NodeID(100); h < core.NodeID(100+len(hosts)); h++ {
		w.c.AttachHost(h, hosts[h])
	}
	return w
}

// sortedLinks lists g's links in key order.
func sortedLinks(g *Graph) []*Link {
	var ls []*Link
	for _, l := range g.links {
		ls = append(ls, l)
	}
	slices.SortFunc(ls, func(a, b *Link) int {
		if a.A != b.A {
			return cmp.Compare(a.A, b.A)
		}
		return cmp.Compare(a.B, b.B)
	})
	return ls
}

// TestTablesIndependentOfHistory: random graphs driven through random link
// events must, after every event, route exactly as a controller built
// fresh from the same links in their current state — the same routed
// tables, the same unreachable count and the same pushed routes. Latencies
// lie on a 5 ms grid, so equal-cost paths are common: a table that kept a
// tie from an earlier event instead of the lower-ID predecessor shows up
// here as a difference.
func TestTablesIndependentOfHistory(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(9)
		hosts := make(map[core.NodeID]core.NodeID)
		for h := core.NodeID(100); h < core.NodeID(100+n+rng.Intn(n)); h++ {
			hosts[h] = core.NodeID(1 + rng.Intn(n))
		}
		live := newDiffWorld(n, hosts)
		var links [][2]core.NodeID
		step := 0
		apply := func(what string, f func(c *Controller)) {
			t.Helper()
			f(live.c)
			step++
			fresh := newDiffWorld(n, hosts)
			for _, l := range sortedLinks(live.c.g) {
				fresh.c.SetLink(l.A, l.B, l.Base)
				*fresh.c.g.Link(l.A, l.B) = *l
			}
			fresh.c.Recompute()
			if !reflect.DeepEqual(live.c.nhM, fresh.c.nhM) {
				t.Fatalf("seed %d step %d (%s): next-hop tables differ\nlive  %v\nfresh %v", seed, step, what, live.c.nhM, fresh.c.nhM)
			}
			if !reflect.DeepEqual(live.c.distM, fresh.c.distM) {
				t.Fatalf("seed %d step %d (%s): routed latencies differ\nlive  %v\nfresh %v", seed, step, what, live.c.distM, fresh.c.distM)
			}
			if a, b := live.c.Stats().Unreachable, fresh.c.Stats().Unreachable; a != b {
				t.Fatalf("seed %d step %d (%s): Unreachable %d (live) vs %d (fresh)", seed, step, what, a, b)
			}
			for id, s := range live.sinks {
				if !reflect.DeepEqual(s.routes, fresh.sinks[id].routes) {
					t.Fatalf("seed %d step %d (%s): DC %v pushed routes differ\nlive  %v\nfresh %v", seed, step, what, id, s.routes, fresh.sinks[id].routes)
				}
			}
		}
		lat := func() core.Time { return time.Duration(5*(1+rng.Intn(12))) * time.Millisecond }
		setLink := func(a, b core.NodeID) {
			x := lat()
			apply("SetLink", func(c *Controller) { c.SetLink(a, b, x) })
			if !slices.Contains(links, linkKey(a, b)) {
				links = append(links, linkKey(a, b))
			}
		}
		// A random spanning tree, then a few chords.
		for b := core.NodeID(2); b <= core.NodeID(n); b++ {
			setLink(core.NodeID(1+rng.Intn(int(b)-1)), b)
		}
		for i := 0; i < n/2; i++ {
			if a, b := core.NodeID(1+rng.Intn(n)), core.NodeID(1+rng.Intn(n)); a != b {
				setLink(a, b)
			}
		}

		for i := 0; i < 80; i++ {
			lk := links[rng.Intn(len(links))]
			switch r := rng.Intn(20); {
			case r == 0:
				if a, b := core.NodeID(1+rng.Intn(n)), core.NodeID(1+rng.Intn(n)); a != b {
					setLink(a, b)
				}
			case r == 1 && len(links) > 1:
				apply("RemoveLink", func(c *Controller) { c.RemoveLink(lk[0], lk[1]) })
				links = slices.DeleteFunc(links, func(l [2]core.NodeID) bool { return l == lk })
			case r < 11:
				state := LinkState(rng.Intn(3))
				var est core.Time
				if state != LinkDown && rng.Intn(2) == 0 {
					est = lat()
				}
				apply("SetLinkHealth", func(c *Controller) { c.SetLinkHealth(lk[0], lk[1], state, est) })
			default:
				var reports []UtilizationReport
				for _, l := range links {
					if rng.Intn(3) == 0 {
						reports = append(reports, UtilizationReport{A: l[0], B: l[1], Util: rng.Float64()})
					}
				}
				apply("SetLinkUtilizations", func(c *Controller) { c.SetLinkUtilizations(reports) })
			}
		}
	}
}

// TestIndexRebuildKeepsTables: Paths after AddDC rebuilds the index space
// before any recompute; the routed tables must survive the remap.
func TestIndexRebuildKeepsTables(t *testing.T) {
	c := NewController(2)
	for _, id := range []core.NodeID{10, 20, 30} {
		c.AddDC(id, newFakeSink())
	}
	c.SetLink(10, 20, 10*time.Millisecond)
	c.SetLink(20, 30, 10*time.Millisecond)
	c.AttachHost(100, 30)
	c.AddDC(5, newFakeSink()) // sorts first: every index shifts
	if ps := c.Paths(10, 30, 1); len(ps) != 1 {
		t.Fatalf("Paths(10, 30) = %v", ps)
	}
	if d, ok := c.PathLatency(10, 30); !ok || d != 20*time.Millisecond {
		t.Fatalf("PathLatency(10, 30) = %v %v after the rebuild, want 20ms", d, ok)
	}
	for _, dst := range []core.NodeID{30, 100} {
		if via, ok := c.NextHop(10, dst); !ok || via != 20 {
			t.Fatalf("NextHop(10, %v) = %v %v after the rebuild, want 20", dst, via, ok)
		}
	}
	if p := c.Primary(10, 30); !slices.Equal(p, []core.NodeID{10, 20, 30}) {
		t.Fatalf("primary 10→30 = %v after the rebuild", p)
	}
	if _, ok := c.PathLatency(5, 10); ok {
		t.Fatal("the new DC is routed before any recompute")
	}
}
