package routing

import (
	"math/rand"
	"reflect"
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

// TestIncrementalMatchesFullRecompute is the delta engine's oracle: random
// graphs driven through random link events on two controllers — one
// normal, one forced onto the full all-pairs Recompute for every event —
// must agree on every routed table and every pushed route after each
// event. The affected-source cut is the only thing that differs between
// the two, so one source too few in it shows up here as a stale row.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(9)
		hosts := make(map[core.NodeID]core.NodeID)
		for h := core.NodeID(100); h < core.NodeID(100+n+rng.Intn(n)); h++ {
			hosts[h] = core.NodeID(1 + rng.Intn(n))
		}
		inc, full := newDiffWorld(n, hosts), newDiffWorld(n, hosts)
		full.c.incremental = false

		var links [][2]core.NodeID
		step := 0
		both := func(what string, f func(c *Controller)) {
			t.Helper()
			f(inc.c)
			f(full.c)
			step++
			if !reflect.DeepEqual(inc.c.nhM, full.c.nhM) {
				t.Fatalf("seed %d step %d (%s): next-hop tables differ\nincremental %v\nfull        %v", seed, step, what, inc.c.nhM, full.c.nhM)
			}
			if !reflect.DeepEqual(inc.c.distM, full.c.distM) {
				t.Fatalf("seed %d step %d (%s): routed latencies differ\nincremental %v\nfull        %v", seed, step, what, inc.c.distM, full.c.distM)
			}
			if a, b := inc.c.Stats().Unreachable, full.c.Stats().Unreachable; a != b {
				t.Fatalf("seed %d step %d (%s): Unreachable %d (incremental) vs %d (full)", seed, step, what, a, b)
			}
			for id, s := range inc.sinks {
				if !reflect.DeepEqual(s.routes, full.sinks[id].routes) {
					t.Fatalf("seed %d step %d (%s): DC %v pushed routes differ\nincremental %v\nfull        %v", seed, step, what, id, s.routes, full.sinks[id].routes)
				}
			}
		}
		// Latencies carry a random sub-millisecond part so equal-cost
		// ties — where any shortest path is a right answer — do not occur.
		lat := func() core.Time {
			return time.Duration(5+rng.Intn(60))*time.Millisecond + time.Duration(rng.Intn(1_000_000))
		}
		setLink := func(a, b core.NodeID) {
			x := lat()
			both("SetLink", func(c *Controller) { c.SetLink(a, b, x) })
			for _, lk := range links {
				if lk == linkKey(a, b) {
					return
				}
			}
			links = append(links, linkKey(a, b))
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
				both("RemoveLink", func(c *Controller) { c.RemoveLink(lk[0], lk[1]) })
				for j := range links {
					if links[j] == lk {
						links = append(links[:j], links[j+1:]...)
						break
					}
				}
			case r < 11:
				state := LinkState(rng.Intn(3))
				var est core.Time
				if state != LinkDown && rng.Intn(2) == 0 {
					est = lat()
				}
				both("SetLinkHealth", func(c *Controller) { c.SetLinkHealth(lk[0], lk[1], state, est) })
			default:
				var reports []UtilizationReport
				for _, l := range links {
					if rng.Intn(3) == 0 {
						reports = append(reports, UtilizationReport{A: l[0], B: l[1], Util: rng.Float64()})
					}
				}
				both("SetLinkUtilizations", func(c *Controller) { c.SetLinkUtilizations(reports) })
			}
		}
		if inc.c.Stats().IncrementalRecomputes == 0 {
			t.Fatalf("seed %d: the incremental path never ran", seed)
		}
		if full.c.Stats().IncrementalRecomputes != 0 {
			t.Fatalf("seed %d: the oracle took the incremental path", seed)
		}
	}
}
