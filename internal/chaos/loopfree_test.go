package chaos

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/forward"
	"jqos/internal/routing"
)

// walkDst is one destination the walker follows packets toward: a host,
// its home DC, and the flow whose pinned entries the packets carry (0 for
// none).
type walkDst struct {
	flow       core.FlowID
	host, home core.NodeID
}

// walker follows a packet's next hops through the DCs' forwarding state,
// resolved as Core.send resolves them: the flow's pinned next hop first,
// then — the tables naming DCs only — the tagged table's hop toward the
// host's home DC. It is the forwarding-loop checker: with every DC on one
// table version, no (DC, destination, live tag) may revisit a DC, and
// under the current tag none may dead-end short of the home DC while a
// path exists.
type walker struct {
	fw   map[core.NodeID]*forward.Forwarder
	dcs  []core.NodeID
	ctrl *routing.Controller
}

// check walks every DC, destination and tag some DC holds as current or
// previous, and returns the first failure.
func (w walker) check(dsts []walkDst) error {
	var tags []uint8
	for _, dc := range w.dcs {
		e := w.fw[dc].Epoch()
		for _, tag := range []uint8{uint8(e & 3), uint8((e + 3) & 3)} {
			if !slices.Contains(tags, tag) {
				tags = append(tags, tag)
			}
		}
	}
	for _, from := range w.dcs {
		for _, d := range dsts {
			for _, tag := range tags {
				if err := w.walk(from, d, tag); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// walk follows one packet for d, tagged tag, from DC from to d's home.
func (w walker) walk(from core.NodeID, d walkDst, tag uint8) error {
	path := []core.NodeID{from}
	for at := from; at != d.home; {
		next, ok := w.next(at, d, tag)
		if !ok {
			if _, reach := w.ctrl.PathLatency(at, d.home); reach && tag == w.fw[from].EpochTag() {
				return fmt.Errorf("tag %d packet for host %v dead-ends at %v: %v", tag, d.host, at, path)
			}
			return nil
		}
		path = append(path, next)
		if slices.Contains(path[:len(path)-1], next) {
			return fmt.Errorf("tag %d packet for host %v (flow %d) loops: %v", tag, d.host, d.flow, path)
		}
		at = next
	}
	return nil
}

// next is the DC a packet for d leaves at toward; ok is false where the
// tables name no hop. A host has no table entry of its own, so it
// resolves through d.home exactly as Core.send does: the tagged hop
// toward the home DC.
func (w walker) next(at core.NodeID, d walkDst, tag uint8) (core.NodeID, bool) {
	f := w.fw[at]
	if via, ok := f.FlowRoute(d.flow, d.host); d.flow != 0 && ok {
		return via, true
	}
	return f.RouteTagged(tag, d.home)
}

// toggleWorld is a bare controller over real forwarders, one host per DC
// (host ID = DC ID + 100), built from all links up with the set-up epoch
// retired.
func toggleWorld(links [][2]core.NodeID, lat map[[2]core.NodeID]time.Duration) (walker, []walkDst) {
	c := routing.NewController(2)
	w := walker{fw: make(map[core.NodeID]*forward.Forwarder), ctrl: c}
	var last uint64
	c.OnEpochAdvance = func(e uint64) { last = e }
	for _, l := range links {
		for _, dc := range l {
			if w.fw[dc] == nil {
				w.fw[dc] = forward.New(dc)
				w.dcs = append(w.dcs, dc)
				c.AddDC(dc, w.fw[dc])
			}
		}
	}
	for _, l := range links {
		c.SetLink(l[0], l[1], lat[l])
	}
	var dsts []walkDst
	for _, dc := range w.dcs {
		c.AttachHost(dc+100, dc)
		dsts = append(dsts, walkDst{host: dc + 100, home: dc})
	}
	c.RetireEpoch(last)
	return w, dsts
}

// TestForwardingLoopFreeUnderToggles applies every sequence of up to three
// link down/up toggles, each a SetLinkHealth from the state before it with
// no retire in between, to the chaos world's 4-DC graph and to K5, and
// walks every DC's forwarding state after every step: no packet in any
// live table version may revisit a DC.
func TestForwardingLoopFreeUnderToggles(t *testing.T) {
	const ms = time.Millisecond
	chaosGraph := map[[2]core.NodeID]time.Duration{
		{1, 2}: 30 * ms, {2, 3}: 30 * ms, {1, 3}: 70 * ms, {3, 4}: 20 * ms, {1, 4}: 90 * ms,
	}
	k5 := map[[2]core.NodeID]time.Duration{}
	for a := core.NodeID(1); a <= 5; a++ {
		for b := a + 1; b <= 5; b++ {
			k5[[2]core.NodeID{a, b}] = time.Duration(10+10*((a+2*b)%5)) * ms
		}
	}
	for _, g := range []struct {
		name string
		lat  map[[2]core.NodeID]time.Duration
	}{{"chaos", chaosGraph}, {"K5", k5}} {
		var links [][2]core.NodeID
		for l := range g.lat {
			links = append(links, l)
		}
		slices.SortFunc(links, func(a, b [2]core.NodeID) int {
			if a[0] != b[0] {
				return int(a[0]) - int(b[0])
			}
			return int(a[1]) - int(b[1])
		})
		var seqs [][]int
		var grow func(seq []int)
		grow = func(seq []int) {
			for i := range links {
				s := append(slices.Clone(seq), i)
				seqs = append(seqs, s)
				if len(s) < 3 {
					grow(s)
				}
			}
		}
		grow(nil)

		failed, first := 0, ""
		for _, seq := range seqs {
			w, dsts := toggleWorld(links, g.lat)
			down := map[int]bool{}
			var steps []string
			for _, i := range seq {
				l := links[i]
				down[i] = !down[i]
				state, verb := routing.LinkUp, "up"
				if down[i] {
					state, verb = routing.LinkDown, "down"
				}
				w.ctrl.SetLinkHealth(l[0], l[1], state, 0)
				steps = append(steps, fmt.Sprintf("%v-%v %s", l[0], l[1], verb))
				if err := w.check(dsts); err != nil {
					if failed++; failed == 1 {
						first = fmt.Sprintf("%v: %v", steps, err)
					}
					break
				}
			}
		}
		if failed > 0 {
			t.Errorf("%s graph: %d of %d toggle sequences break forwarding; first: %s", g.name, failed, len(seqs), first)
		}
	}
}

// TestChaosSeedsForwardLoopFree runs the ten golden chaos seeds with the
// walker chained after the deployment's own post-recompute pass, over
// every flow's hosts and the flow's pinned entries.
func TestChaosSeedsForwardLoopFree(t *testing.T) {
	if testing.Short() {
		t.Skip("ten chaos runs")
	}
	horizon := Profile{}.withDefaults().Horizon
	for seed := int64(1); seed <= 10; seed++ {
		w, err := BuildWorld(seed)
		if err != nil {
			t.Fatal(err)
		}
		ctrl := w.D.Routing()
		wk := walker{fw: make(map[core.NodeID]*forward.Forwarder), dcs: w.DCs, ctrl: ctrl}
		for _, dc := range w.DCs {
			wk.fw[dc] = w.D.DC(dc).Forwarder()
		}
		var dsts []walkDst
		for _, f := range w.Flows {
			sp := f.Spec()
			for _, h := range []core.NodeID{sp.Src, sp.Dst} {
				home, _ := ctrl.Home(h)
				dsts = append(dsts, walkDst{host: h, home: home})
			}
			home, _ := ctrl.Home(sp.Dst)
			dsts = append(dsts, walkDst{flow: f.ID(), host: sp.Dst, home: home})
		}
		var fail error
		own := ctrl.OnRecompute
		ctrl.OnRecompute = func() {
			own()
			if fail == nil {
				if err := wk.check(dsts); err != nil {
					fail = fmt.Errorf("at %v: %w", w.D.Sim().Now(), err)
				}
			}
		}
		if _, err := RunScenario(w, Fuzz(seed, Profile{}, w.DCs, w.Links), horizon); err != nil {
			t.Fatal(err)
		}
		if fail != nil {
			t.Errorf("seed %d: %v", seed, fail)
		}
	}
}
