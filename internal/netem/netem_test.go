package netem

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"jqos/internal/core"
)

func TestSimulatorOrdering(t *testing.T) {
	sim := NewSimulator(1)
	var order []int
	sim.At(30*time.Millisecond, func() { order = append(order, 3) })
	sim.At(10*time.Millisecond, func() { order = append(order, 1) })
	sim.At(20*time.Millisecond, func() { order = append(order, 2) })
	sim.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if sim.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v", sim.Now())
	}
	if sim.Steps() != 3 {
		t.Errorf("Steps = %d", sim.Steps())
	}
}

func TestSimulatorFIFOWithinTimestamp(t *testing.T) {
	sim := NewSimulator(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		sim.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	sim.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	sim := NewSimulator(1)
	var fired []core.Time
	sim.After(time.Millisecond, func() {
		fired = append(fired, sim.Now())
		sim.After(2*time.Millisecond, func() {
			fired = append(fired, sim.Now())
		})
	})
	sim.Run()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 3*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestSimulatorPastPanics(t *testing.T) {
	sim := NewSimulator(1)
	sim.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		sim.At(5*time.Millisecond, func() {})
	})
	sim.Run()
}

func TestRunUntilAdvancesClock(t *testing.T) {
	sim := NewSimulator(1)
	ran := false
	sim.At(5*time.Millisecond, func() { ran = true })
	sim.RunUntil(3 * time.Millisecond)
	if ran || sim.Now() != 3*time.Millisecond {
		t.Errorf("early event ran=%v now=%v", ran, sim.Now())
	}
	if sim.Pending() != 1 {
		t.Errorf("Pending = %d", sim.Pending())
	}
	sim.RunFor(10 * time.Millisecond)
	if !ran || sim.Now() != 13*time.Millisecond {
		t.Errorf("ran=%v now=%v", ran, sim.Now())
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	run := func() []int64 {
		sim := NewSimulator(99)
		link := NewLink(sim, UniformJitter{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}, Bernoulli{P: 0.3})
		var arrivals []int64
		for i := 0; i < 200; i++ {
			i := i
			sim.At(core.Time(i)*time.Millisecond, func() {
				link.Send(100, func(at core.Time) { arrivals = append(arrivals, int64(at)) })
			})
		}
		sim.Run()
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := Bernoulli{P: 0.1}
	lost := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.Lose(0, r) {
			lost++
		}
	}
	if rate := float64(lost) / n; math.Abs(rate-0.1) > 0.005 {
		t.Errorf("loss rate = %v, want ~0.1", rate)
	}
}

func TestNoLoss(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	if (NoLoss{}).Lose(0, r) {
		t.Error("NoLoss lost a packet")
	}
}

func TestGoogleBurstProducesBursts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := NewGoogleBurst()
	losses, bursts, run := 0, 0, 0
	const n = 500000
	maxBurst := 0
	for i := 0; i < n; i++ {
		if m.Lose(0, r) {
			losses++
			run++
			if run > maxBurst {
				maxBurst = run
			}
		} else {
			if run > 0 {
				bursts++
			}
			run = 0
		}
	}
	// Expected loss rate ≈ pFirst/(pFirst+ (1-pNext)) stationary ≈ 2%.
	rate := float64(losses) / n
	if rate < 0.01 || rate > 0.04 {
		t.Errorf("loss rate = %v", rate)
	}
	// Mean burst length should be ≈ 1/(1-pNext) = 2.
	mean := float64(losses) / float64(bursts)
	if mean < 1.7 || mean > 2.3 {
		t.Errorf("mean burst = %v, want ~2", mean)
	}
	if maxBurst < 4 {
		t.Errorf("max burst = %d, expected multi-packet bursts", maxBurst)
	}
}

func TestGilbertElliottStates(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := &GilbertElliott{PGoodToBad: 0.01, PBadToGood: 0.2, LossGood: 0, LossBad: 1}
	losses := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if m.Lose(0, r) {
			losses++
		}
	}
	// Stationary bad fraction = 0.01/(0.01+0.2) ≈ 4.8%.
	rate := float64(losses) / n
	if rate < 0.03 || rate > 0.07 {
		t.Errorf("bad-state loss fraction = %v", rate)
	}
}

func TestOutageSchedule(t *testing.T) {
	o := &OutageSchedule{}
	o.AddOutage(10*time.Second, 2*time.Second)
	o.AddOutage(1*time.Second, 1*time.Second)
	r := rand.New(rand.NewSource(1))
	cases := []struct {
		at   core.Time
		want bool
	}{
		{0, false},
		{1 * time.Second, true},
		{1999 * time.Millisecond, true},
		{2 * time.Second, false},
		{11 * time.Second, true},
		{12 * time.Second, false},
		{30 * time.Second, false},
	}
	for _, c := range cases {
		if got := o.Lose(c.at, r); got != c.want {
			t.Errorf("Lose(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestRandomOutages(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	o := RandomOutages(r, time.Hour, 1.0/60, time.Second, 3*time.Second)
	if len(o.Windows) == 0 {
		t.Fatal("no outages generated")
	}
	for i, w := range o.Windows {
		if d := w.To - w.From; d < time.Second || d > 3*time.Second {
			t.Errorf("window %d duration %v", i, d)
		}
		if i > 0 && w.From < o.Windows[i-1].From {
			t.Error("windows unsorted")
		}
	}
	if empty := RandomOutages(r, time.Hour, 0, time.Second, time.Second); len(empty.Windows) != 0 {
		t.Error("rate 0 produced outages")
	}
}

func TestComposite(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	o := &OutageSchedule{}
	o.AddOutage(0, time.Second)
	c := Composite{Bernoulli{P: 0}, o}
	if !c.Lose(500*time.Millisecond, r) {
		t.Error("composite missed outage")
	}
	if c.Lose(2*time.Second, r) {
		t.Error("composite lost outside outage")
	}
}

func TestDelayModels(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	if d := (FixedDelay(5 * time.Millisecond)).Delay(0, r); d != 5*time.Millisecond {
		t.Errorf("FixedDelay = %v", d)
	}
	u := UniformJitter{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := u.Delay(0, r)
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("UniformJitter out of range: %v", d)
		}
	}
	if d := (UniformJitter{Base: time.Millisecond}).Delay(0, r); d != time.Millisecond {
		t.Errorf("zero jitter = %v", d)
	}
	nj := NormalJitter{Base: 10 * time.Millisecond, Sigma: 2 * time.Millisecond, Floor: 9 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		if d := nj.Delay(0, r); d < 9*time.Millisecond {
			t.Fatalf("NormalJitter below floor: %v", d)
		}
	}
}

func TestHeavyTailJitter(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	h := HeavyTailJitter{Base: 50 * time.Millisecond, Sigma: 2 * time.Millisecond,
		PTail: 0.05, TailLo: 100 * time.Millisecond, Alpha: 1.5}
	tail := 0
	const n = 20000
	for i := 0; i < n; i++ {
		d := h.Delay(0, r)
		if d >= 140*time.Millisecond {
			tail++
		}
		if d < 25*time.Millisecond {
			t.Fatalf("delay below floor: %v", d)
		}
	}
	frac := float64(tail) / n
	if frac < 0.02 || frac > 0.09 {
		t.Errorf("tail fraction = %v, want ~0.05", frac)
	}
}

func TestLinkDeliveryAndStats(t *testing.T) {
	sim := NewSimulator(10)
	link := NewLink(sim, FixedDelay(10*time.Millisecond), nil)
	var arrivals []core.Time
	ok := link.Send(500, func(at core.Time) { arrivals = append(arrivals, at) })
	if !ok {
		t.Fatal("send rejected")
	}
	sim.Run()
	if len(arrivals) != 1 || arrivals[0] != 10*time.Millisecond {
		t.Errorf("arrivals %v, want one at 10ms", arrivals)
	}
}

func TestLinkLossAccounting(t *testing.T) {
	sim := NewSimulator(11)
	link := NewLink(sim, nil, Bernoulli{P: 1})
	if link.Send(100, func(core.Time) { t.Error("delivered through P=1 loss") }) {
		t.Error("send accepted")
	}
	sim.Run()
}

func TestLinkSerializationAndQueue(t *testing.T) {
	sim := NewSimulator(12)
	link := NewLink(sim, FixedDelay(0), nil)
	link.Rate = 1000 // bytes/sec → 1 ms per byte
	var arrivals []core.Time
	// Two 10-byte packets sent back to back: second must queue behind first.
	link.Send(10, func(at core.Time) { arrivals = append(arrivals, at) })
	link.Send(10, func(at core.Time) { arrivals = append(arrivals, at) })
	sim.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 10*time.Millisecond || arrivals[1] != 20*time.Millisecond {
		t.Errorf("serialization wrong: %v", arrivals)
	}
}

func TestLinkTailDrop(t *testing.T) {
	sim := NewSimulator(13)
	link := NewLink(sim, nil, nil)
	link.Rate = 1000
	link.MaxQueue = 15 * time.Millisecond
	accepted, arrived := 0, 0
	for i := 0; i < 5; i++ { // each packet takes 10ms to serialize
		if link.Send(10, func(core.Time) { arrived++ }) {
			accepted++
		}
	}
	sim.Run()
	// First departs at 10ms (wait 0), second waits 10, third would wait 20 > 15.
	if accepted != 2 || arrived != 2 {
		t.Errorf("accepted %d, arrived %d; want 2 and 2 (3 tail drops)", accepted, arrived)
	}
}

func TestLinkSetLoss(t *testing.T) {
	sim := NewSimulator(14)
	link := NewLink(sim, nil, nil)
	link.SetLoss(Bernoulli{P: 1})
	if link.Send(1, func(core.Time) {}) {
		t.Error("send survived after SetLoss(P=1)")
	}
	link.SetLoss(nil)
	if !link.Send(1, func(core.Time) {}) {
		t.Error("send failed after SetLoss(nil)")
	}
	sim.Run()
}

func TestNetworkDelivery(t *testing.T) {
	sim := NewSimulator(15)
	net := NewNetwork()
	var got []byte
	var gotFrom core.NodeID
	net.AddNode(1, nil)
	net.AddNode(2, func(from, to core.NodeID, data []byte) {
		gotFrom, got = from, data
	})
	net.Connect(1, 2, NewLink(sim, FixedDelay(time.Millisecond), nil))
	var taps int
	net.Tap = func(from, to core.NodeID, size int) { taps += size }
	if !net.Send(1, 2, []byte("hi")) {
		t.Fatal("send failed")
	}
	sim.Run()
	if string(got) != "hi" || gotFrom != 1 {
		t.Errorf("delivery: %q from %v", got, gotFrom)
	}
	if taps != 2 {
		t.Errorf("tap bytes = %d", taps)
	}
	if !net.HasRoute(1, 2) || net.HasRoute(2, 1) {
		t.Error("HasRoute wrong")
	}
	if net.LinkBetween(1, 2) == nil {
		t.Error("LinkBetween nil")
	}
}

// TestNetworkSendAllocatesNothing pins the steady state of a datagram's
// trip: Send takes a delivery record off the free list, the event calls the
// record's own pre-bound run, and running it puts the record back — no
// closure per delivery.
func TestNetworkSendAllocatesNothing(t *testing.T) {
	sim := NewSimulator(15)
	net := NewNetwork()
	var got int
	net.AddNode(2, func(from, to core.NodeID, data []byte) { got += len(data) })
	net.Connect(1, 2, NewLink(sim, UniformJitter{Base: time.Millisecond, Jitter: time.Millisecond}, nil))
	msg := []byte("datagram")
	burst := func() {
		for i := 0; i < 8; i++ {
			net.Send(1, 2, msg)
		}
		sim.Run()
	}
	burst() // grows the event heap and the free list to eight in flight
	if n := testing.AllocsPerRun(100, burst); n != 0 {
		t.Errorf("Network.Send and its delivery allocate %v times per burst of 8, want 0", n)
	}
	if want := 102 * 8 * len(msg); got != want { // the warm-up burst, AllocsPerRun's own, and its 100
		t.Errorf("handler saw %d bytes, want %d", got, want)
	}
	held := 0
	for d := net.free; d != nil; d = d.next {
		if d.data != nil {
			t.Error("a free delivery record still references its datagram")
		}
		held++
	}
	if held != 8 {
		t.Errorf("free list holds %d records after bursts of 8 in flight", held)
	}
}

// TestNetworkDeliveryReentrant: the handler may send from inside a delivery
// (every DC does), and may replace the handler its own delivery is running
// under; the handler is looked up at arrival time, and the record in hand
// is reusable by the nested send.
func TestNetworkDeliveryReentrant(t *testing.T) {
	sim := NewSimulator(15)
	net := NewNetwork()
	net.ConnectBidirectional(1, 2, func() *Link { return NewLink(sim, FixedDelay(time.Millisecond), nil) })
	var trail []string
	net.AddNode(1, func(from, to core.NodeID, data []byte) { trail = append(trail, "1:"+string(data)) })
	net.AddNode(2, func(from, to core.NodeID, data []byte) {
		trail = append(trail, "2:"+string(data))
		net.Send(2, 1, append([]byte("re:"), data...))
		net.AddNode(2, func(from, to core.NodeID, data []byte) { trail = append(trail, "2':"+string(data)) })
	})
	net.Send(1, 2, []byte("a"))
	net.Send(1, 2, []byte("b"))
	sim.Run()
	if got := strings.Join(trail, " "); got != "2:a 2':b 1:re:a" {
		t.Errorf("deliveries ran as %q", got)
	}
}

func TestNetworkUnknownRoutePanics(t *testing.T) {
	net := NewNetwork()
	defer func() {
		if recover() == nil {
			t.Error("send on missing link did not panic")
		}
	}()
	net.Send(1, 2, []byte("x"))
}

func TestNetworkNilLinkPanics(t *testing.T) {
	net := NewNetwork()
	defer func() {
		if recover() == nil {
			t.Error("Connect(nil) did not panic")
		}
	}()
	net.Connect(1, 2, nil)
}

func TestNetworkDeliveryToUnregisteredNode(t *testing.T) {
	sim := NewSimulator(18)
	net := NewNetwork()
	net.Connect(1, 9, NewLink(sim, nil, nil))
	if !net.Send(1, 9, []byte("into the void")) {
		t.Error("send to unregistered node rejected")
	}
	sim.Run() // must not panic
}

func TestConnectBidirectional(t *testing.T) {
	sim := NewSimulator(19)
	net := NewNetwork()
	calls := 0
	net.ConnectBidirectional(1, 2, func() *Link {
		calls++
		return NewLink(sim, nil, nil)
	})
	if calls != 2 {
		t.Errorf("maker called %d times", calls)
	}
	if !net.HasRoute(1, 2) || !net.HasRoute(2, 1) {
		t.Error("bidirectional routes missing")
	}
	if net.LinkBetween(1, 2) == net.LinkBetween(2, 1) {
		t.Error("directions share a link")
	}
}

// TestEventHeapMatchesSort is the differential oracle for the typed heap:
// 10⁵ random pushes interleaved with pops must leave in exactly the order
// sorting by (at, seq) gives, and a drained heap must hold no closure.
func TestEventHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var pushed, popped []event
	var seq uint64
	var floor core.Time // pops so far reached this time; later pushes stay at or after it, as in the simulator
	pop := func() {
		e := h.pop()
		floor = e.at
		e.fn = nil
		popped = append(popped, e)
	}
	for len(pushed) < 100000 {
		if len(h) > 0 && rng.Intn(3) == 0 {
			pop()
			continue
		}
		seq++
		// A narrow time range, so ties are common and seq decides.
		e := event{at: floor + core.Time(rng.Intn(50)), seq: seq, fn: func() {}}
		h.push(e)
		e.fn = nil
		pushed = append(pushed, e)
	}
	for !h.empty() {
		if next := h.nextTime(); next != h[0].at {
			t.Fatalf("nextTime = %v, head at %v", next, h[0].at)
		}
		pop()
	}
	sort.Slice(pushed, func(i, j int) bool { return pushed[i].before(&pushed[j]) })
	for i := range pushed {
		if popped[i].at != pushed[i].at || popped[i].seq != pushed[i].seq {
			t.Fatalf("pop %d = (%v, %d), sorted order has (%v, %d)", i, popped[i].at, popped[i].seq, pushed[i].at, pushed[i].seq)
		}
	}
	for i, e := range h[:cap(h)] {
		if e.fn != nil || e.arrive != nil {
			t.Fatalf("drained heap still references a closure in slot %d", i)
		}
	}
}

func BenchmarkSimulatorEventLoop(b *testing.B) {
	sim := NewSimulator(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.After(time.Microsecond, func() {})
		sim.RunFor(2 * time.Microsecond)
	}
}

// BenchmarkNetworkSend is a datagram through Network.Send to its handler,
// the path every emulated message takes (gated at 0 allocs/op).
func BenchmarkNetworkSend(b *testing.B) {
	sim := NewSimulator(1)
	net := NewNetwork()
	net.AddNode(2, func(from, to core.NodeID, data []byte) {})
	net.Connect(1, 2, NewLink(sim, UniformJitter{Base: time.Millisecond, Jitter: time.Millisecond}, Bernoulli{P: 0.01}))
	msg := make([]byte, 512)
	for i := 0; i < 1024; i++ {
		net.Send(1, 2, msg)
	}
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(1, 2, msg)
		if i%1024 == 1023 {
			sim.RunFor(10 * time.Millisecond)
		}
	}
	sim.Run()
}

func BenchmarkLinkSend(b *testing.B) {
	sim := NewSimulator(1)
	link := NewLink(sim, UniformJitter{Base: time.Millisecond, Jitter: time.Millisecond}, Bernoulli{P: 0.01})
	sink := func(core.Time) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		link.Send(512, sink)
		if i%1024 == 0 {
			sim.RunFor(10 * time.Millisecond)
		}
	}
	sim.Run()
}
