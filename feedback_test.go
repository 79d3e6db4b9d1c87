package jqos

import (
	"slices"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/feedback"
	"jqos/internal/sched"
	"jqos/internal/telemetry"
)

// feedbackWorld is four DCs with feedback on: a→b→c is the short way
// from a to c, a→d→c the long one. Nothing carries traffic; the tests
// drive the subscriptions and the egress queues directly.
type feedbackWorld struct {
	d          *Deployment
	a, b, c, x core.NodeID // x is the detour DC
	hostA      core.NodeID
	hostA2     core.NodeID
	hostB      core.NodeID
	hostC      core.NodeID
	heard      []feedback.LinkClass
}

func newFeedbackWorld(t *testing.T) *feedbackWorld {
	t.Helper()
	cfg := DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Scheduler = SchedulerConfig{
		Weights:       map[Service]int{ServiceForwarding: 8, ServiceCaching: 1},
		QueueBytes:    64 << 10,
		LowWatermark:  0.125,
		HighWatermark: 0.5,
	}
	cfg.Feedback.Enabled = true
	w := &feedbackWorld{d: NewDeploymentWithConfig(1, cfg)}
	d := w.d
	w.a = d.AddDC("a", dataset.RegionUSEast)
	w.b = d.AddDC("b", dataset.RegionUSWest)
	w.c = d.AddDC("c", dataset.RegionEU)
	w.x = d.AddDC("x", dataset.RegionAsia)
	d.ConnectDCs(w.a, w.b, 10*time.Millisecond)
	d.ConnectDCs(w.b, w.c, 10*time.Millisecond)
	d.ConnectDCs(w.a, w.x, 30*time.Millisecond)
	d.ConnectDCs(w.x, w.c, 30*time.Millisecond)
	w.hostA = d.AddHost(w.a, 5*time.Millisecond)
	w.hostA2 = d.AddHost(w.a, 5*time.Millisecond)
	w.hostB = d.AddHost(w.b, 5*time.Millisecond)
	w.hostC = d.AddHost(w.c, 5*time.Millisecond)
	return w
}

// flow registers a fixed-service flow that records the congestion
// signals it hears; rate > 0 gives it a contract, and with it a pacer.
func (w *feedbackWorld) flow(t *testing.T, src, dst core.NodeID, svc Service, rate int64) *Flow {
	t.Helper()
	spec := FlowSpec{Src: src, Dst: dst, Budget: time.Second, Service: svc, ServiceFixed: true,
		OnEvent: func(_ *Flow, e telemetry.Event) {
			if e.Kind == telemetry.KindCongestionSignal {
				w.heard = append(w.heard, feedback.LinkClass{From: e.LinkA, To: e.LinkB, Class: e.Class})
			}
		}}
	if rate > 0 {
		spec.Rate, spec.Burst = rate, 4<<10
	}
	f, err := w.d.RegisterFlow(spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func wantNodes(t *testing.T, what string, got, want []core.NodeID) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

func wantFlows(t *testing.T, what string, got []*Flow, want ...*Flow) {
	t.Helper()
	if !slices.Equal(got, want) {
		ids := func(fs []*Flow) (out []core.FlowID) {
			for _, f := range fs {
				out = append(out, f.id)
			}
			return out
		}
		t.Fatalf("%s = flows %v, want %v", what, ids(got), ids(want))
	}
}

// TestFeedbackSubscriptions: a signal names a directed link and a class,
// and reaches the open flows whose announced path carries that link in
// that class, at their ingress. Ingresses come back distinct and
// ascending, flows at one ingress ascending; a reroute or a class change
// re-keys a flow, and a closed flow hears nothing.
func TestFeedbackSubscriptions(t *testing.T) {
	w := newFeedbackWorld(t)
	p := w.d.fb
	a, b, c, x := w.a, w.b, w.c, w.x
	fwd, cach := core.ServiceForwarding, core.ServiceCaching
	// The ingress-b flow comes first, so the walk meets ingress b before
	// ingress a.
	f1 := w.flow(t, w.hostB, w.hostC, ServiceForwarding, 0)
	f2 := w.flow(t, w.hostA, w.hostC, ServiceForwarding, 0)
	f3 := w.flow(t, w.hostA2, w.hostC, ServiceForwarding, 0)
	wantNodes(t, "f1 path", f1.activePath, []core.NodeID{b, c})
	wantNodes(t, "f2 path", f2.activePath, []core.NodeID{a, b, c})
	wantNodes(t, "f3 path", f3.activePath, []core.NodeID{a, b, c})

	wantNodes(t, "ingresses(a→b)", p.ingresses(a, b, fwd), []core.NodeID{a})
	wantNodes(t, "ingresses(b→c)", p.ingresses(b, c, fwd), []core.NodeID{a, b})
	wantNodes(t, "caching ingresses(b→c)", p.ingresses(b, c, cach), nil)
	wantNodes(t, "reverse ingresses(c→b)", p.ingresses(c, b, fwd), nil)
	wantFlows(t, "listeners at a of b→c", p.listeners(a, b, c, fwd), f2, f3)
	wantFlows(t, "listeners at b of b→c", p.listeners(b, b, c, fwd), f1)
	if n := w.d.Snapshot().Feedback.SubscribedFlows; n != 3 {
		t.Fatalf("SubscribedFlows = %d, want 3", n)
	}

	// Reroute, the way the post-recompute pass moves a flow: f2 leaves
	// a→b→c for a→x→c, and the old links forget it.
	f2.activePath = []core.NodeID{a, x, c}
	f2.updateFeedbackSub()
	wantFlows(t, "listeners on the old path", p.listeners(a, a, b, fwd), f3)
	wantFlows(t, "listeners on the new path", p.listeners(a, a, x, fwd), f2)

	// A class change re-keys the subscription.
	f3.setService(ServiceCaching, ReasonCongestion)
	wantFlows(t, "forwarding listeners after the class change", p.listeners(a, a, b, fwd))
	wantFlows(t, "caching listeners after the class change", p.listeners(a, a, b, cach), f3)

	// A closed flow hears nothing.
	f1.Close()
	f2.Close()
	wantNodes(t, "ingresses(b→c) after close", p.ingresses(b, c, fwd), nil)
	wantNodes(t, "ingresses(x→c) after close", p.ingresses(x, c, fwd), nil)
	if n := w.d.Snapshot().Feedback.SubscribedFlows; n != 1 {
		t.Fatalf("SubscribedFlows = %d after two closes, want 1", n)
	}
	f3.Close()
	wantNodes(t, "caching ingresses(b→c) after close", p.ingresses(b, c, cach), nil)
	if n := w.d.Snapshot().Feedback.SubscribedFlows; n != 0 {
		t.Fatalf("SubscribedFlows = %d after every close, want 0", n)
	}
}

// TestFeedbackChangeUnfreezes: only a real change of a flow's announced
// (path, class) unfreezes its pacer. An identical re-resolution, or a
// flow with no path announcing none again, leaves a Hot freeze in place:
// a saturated queue emits no further transitions, so a spuriously
// unfrozen pacer would climb straight back into it.
func TestFeedbackChangeUnfreezes(t *testing.T) {
	w := newFeedbackWorld(t)
	f := w.flow(t, w.hostA, w.hostC, ServiceForwarding, 100_000)
	local := w.flow(t, w.hostA, w.hostA2, ServiceForwarding, 100_000) // one DC: no path
	wantNodes(t, "f path", f.activePath, []core.NodeID{w.a, w.b, w.c})
	if local.activePath != nil || local.pacer == nil {
		t.Fatalf("same-DC flow: path %v, pacer %v", local.activePath, local.pacer)
	}
	freeze := func(f *Flow) {
		t.Helper()
		f.pacer.OnSignal(w.d.sim.Now(), feedback.LinkClass{}, feedback.Hot)
		if f.pacer.HotLinks() != 1 {
			t.Fatal("Hot signal did not freeze the pacer")
		}
	}
	check := func(what string, f *Flow, wantFrozen bool) {
		t.Helper()
		if frozen := f.pacer.HotLinks() > 0; frozen != wantFrozen {
			t.Fatalf("%s: pacer frozen %v, want %v", what, frozen, wantFrozen)
		}
	}

	freeze(f)
	f.updateFeedbackSub()
	check("same path, same class", f, true)
	f.resolvePath() // a fresh primary slice with the same DCs
	f.updateFeedbackSub()
	check("identical re-resolution", f, true)

	f.setService(ServiceCaching, ReasonCongestion)
	check("class change", f, false)

	freeze(f)
	f.activePath = []core.NodeID{w.a, w.x, w.c}
	f.updateFeedbackSub()
	check("path change", f, false)

	freeze(f)
	f.activePath = nil
	f.updateFeedbackSub()
	check("path lost", f, false)
	freeze(f)
	f.updateFeedbackSub()
	check("still no path", f, true)

	freeze(local)
	local.updateFeedbackSub()
	check("same-DC flow re-announcing no path", local, true)
}

// TestFeedbackRefreshOrder: the refresh loop re-announces every class
// queue still Hot in ascending (from, to, class), whatever order the
// queues went Hot in, re-arms while any is, and stops once none is.
func TestFeedbackRefreshOrder(t *testing.T) {
	w := newFeedbackWorld(t)
	p := w.d.fb
	a, b, c := w.a, w.b, w.c
	fwd, cach := core.ServiceForwarding, core.ServiceCaching
	// One listener per queue, each at the queue's own DC, so every
	// refresh is delivered locally while refresh runs.
	w.flow(t, w.hostB, w.hostC, ServiceForwarding, 0)
	w.flow(t, w.hostB, w.hostC, ServiceCaching, 0)
	w.flow(t, w.hostA, w.hostC, ServiceForwarding, 0)

	var queues []*egressQueue
	heat := func(from, to core.NodeID, class core.Service) {
		dc := w.d.dcs[from]
		q := dc.egress[to]
		if q == nil {
			q = newEgressQueue(dc, to)
			if dc.egress == nil {
				dc.egress = make(map[core.NodeID]*egressQueue)
			}
			dc.egress[to] = q
			queues = append(queues, q)
		}
		for q.drr.State(class) != sched.QueueHot {
			if !q.drr.EnqueueStamped(class, 1, make([]byte, 1000), 0) {
				t.Fatal("class queue full before it went Hot")
			}
		}
	}
	heat(b, c, fwd)
	heat(b, c, cach)
	heat(a, b, fwd)

	w.heard = nil
	p.refreshTimer.Stop()
	p.refresh()
	want := []feedback.LinkClass{{From: a, To: b, Class: fwd}, {From: b, To: c, Class: cach}, {From: b, To: c, Class: fwd}}
	if !slices.Equal(w.heard, want) {
		t.Fatalf("refresh announced %v, want %v", w.heard, want)
	}
	if p.stats.HotRefreshes != 3 || !p.refreshTimer.Armed() {
		t.Fatalf("HotRefreshes = %d, re-armed %v; want 3, true", p.stats.HotRefreshes, p.refreshTimer.Armed())
	}

	for _, q := range queues {
		for {
			if _, ok := q.drr.Dequeue(); !ok {
				break
			}
		}
	}
	w.heard = nil
	p.refreshTimer.Stop()
	p.refresh()
	if len(w.heard) != 0 || p.stats.HotRefreshes != 3 || p.refreshTimer.Armed() {
		t.Fatalf("cooled queues: announced %v, HotRefreshes %d, re-armed %v", w.heard, p.stats.HotRefreshes, p.refreshTimer.Armed())
	}
}
