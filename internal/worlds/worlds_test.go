package worlds

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/stats"
)

const ms = time.Millisecond

// The goldens depend on node IDs: DCs are numbered first, then hosts pair
// by pair, sender before receiver. A builder that reorders its calls moves
// every seeded output.
func TestNodeLayout(t *testing.T) {
	endpoints := func(f *jqos.Flow) [2]core.NodeID { return [2]core.NodeID{f.Spec().Src, f.Spec().Dst} }

	t.Run("bottleneck", func(t *testing.T) {
		cfg := ContendedConfig()
		d, dc1, dc2 := Bottleneck(1, cfg)
		if dc1 != 1 || dc2 != 2 {
			t.Fatalf("DCs %v %v, want 1 2", dc1, dc2)
		}
		if x, ok := d.Link(dc1, dc2).Shape(); !ok || x != 20*ms {
			t.Fatalf("link shape %v %v, want 20ms", x, ok)
		}
		for _, l := range [][2]core.NodeID{{dc1, dc2}, {dc2, dc1}} {
			if r := d.Network().LinkBetween(l[0], l[1]).Rate; r != cfg.LinkCapacity || r != 1_000_000 {
				t.Fatalf("link %v serializes at %d, want the 1 MB/s accounting capacity", l, r)
			}
		}
		if src, dst := HostPair(d, dc1, dc2); src != 3 || dst != 4 {
			t.Fatalf("first host pair %v %v, want 3 4", src, dst)
		}
	})

	t.Run("contended", func(t *testing.T) {
		w, err := NewContended(1, ContendedConfig(), jqos.FlowSpec{Service: jqos.ServiceCaching}, 100*ms, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if w.DC1 != 1 || w.DC2 != 2 {
			t.Fatalf("DCs %v %v, want 1 2", w.DC1, w.DC2)
		}
		got := [][2]core.NodeID{endpoints(w.Bulks[0]), endpoints(w.Bulks[1]), endpoints(w.Inter)}
		if want := [][2]core.NodeID{{3, 4}, {5, 6}, {7, 8}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("flow endpoints %v, want %v", got, want)
		}
		if ids := []jqos.FlowID{w.Bulks[0].ID(), w.Bulks[1].ID(), w.Inter.ID()}; !reflect.DeepEqual(ids, []jqos.FlowID{1, 2, 3}) {
			t.Fatalf("flow IDs %v, want 1 2 3", ids)
		}
		for _, f := range w.Bulks {
			if s := f.Spec(); s.Service != jqos.ServiceCaching || !s.ServiceFixed || s.Budget != 500*ms {
				t.Fatalf("bulk spec %+v: want fixed caching, 500ms budget", s)
			}
		}
		if s := w.Inter.Spec(); s.Service != jqos.ServiceForwarding || !s.ServiceFixed || s.Budget != 100*ms {
			t.Fatalf("interactive spec %+v: want fixed forwarding, 100ms budget", s)
		}
	})

	t.Run("paper", func(t *testing.T) {
		cfg := ContendedConfig() // accounting capacity alone must not pace the testbed
		d, dc1, dc2 := Paper(1, cfg)
		if dc1 != 1 || dc2 != 2 {
			t.Fatalf("DCs %v %v, want 1 2", dc1, dc2)
		}
		if x, ok := d.Link(dc1, dc2).Shape(); !ok || x != 40*ms {
			t.Fatalf("link shape %v %v, want 40ms", x, ok)
		}
		if r := d.Network().LinkBetween(dc1, dc2).Rate; r != 0 {
			t.Fatalf("paper world's link serializes at %d, want unpaced", r)
		}
		if src, dst := HostPair(d, dc1, dc2); src != 3 || dst != 4 {
			t.Fatalf("first host pair %v %v, want 3 4", src, dst)
		}
	})

	t.Run("diamond", func(t *testing.T) {
		d, dcs := Diamond(1, jqos.DefaultConfig(), 15*ms, 25*ms)
		if dcs != [4]core.NodeID{1, 2, 3, 4} {
			t.Fatalf("DCs %v, want 1 2 3 4", dcs)
		}
		shapes := map[[2]core.NodeID]time.Duration{}
		for a := core.NodeID(1); a <= 4; a++ {
			for b := a + 1; b <= 4; b++ {
				if x, ok := d.Link(a, b).Shape(); ok {
					shapes[[2]core.NodeID{a, b}] = x
				}
			}
		}
		want := map[[2]core.NodeID]time.Duration{{1, 2}: 15 * ms, {2, 4}: 15 * ms, {1, 3}: 25 * ms, {3, 4}: 25 * ms}
		if !reflect.DeepEqual(shapes, want) {
			t.Fatalf("links %v, want %v", shapes, want)
		}
		if src, dst := HostPair(d, dcs[0], dcs[3]); src != 5 || dst != 6 {
			t.Fatalf("first host pair %v %v, want 5 6", src, dst)
		}
	})
}

// ContendedConfig hands out a fresh weight map each time: a Config keeps
// the map it is given, and two deployments must not share one.
func TestContendedConfigIsFresh(t *testing.T) {
	a, b := ContendedConfig(), ContendedConfig()
	a.Scheduler.Weights[jqos.ServiceCoding] = 3
	want := map[jqos.Service]int{jqos.ServiceForwarding: 8, jqos.ServiceCaching: 1}
	if !reflect.DeepEqual(b.Scheduler.Weights, want) {
		t.Fatalf("second config's weights %v, want %v", b.Scheduler.Weights, want)
	}
	if b.LinkCapacity != 1_000_000 || b.Scheduler.QueueBytes != 64<<10 {
		t.Fatalf("capacity %d queue %d", b.LinkCapacity, b.Scheduler.QueueBytes)
	}
}

func TestCBRTimes(t *testing.T) {
	d, dc1, dc2 := Paper(1, jqos.DefaultConfig())
	src, dst := HostPair(d, dc1, dc2)
	f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: time.Second, Service: jqos.ServiceForwarding, ServiceFixed: true})
	if err != nil {
		t.Fatal(err)
	}
	var at []time.Duration
	var sizes []int
	d.Network().Tap = func(from, _ core.NodeID, size int) {
		if from == src {
			at = append(at, d.Now())
			sizes = append(sizes, size)
		}
	}
	CBR(d, f, 100, 10*ms, 5*ms, 45*ms) // until is exclusive: no packet at 45 ms
	d.Run(time.Second)
	if want := []time.Duration{5 * ms, 15 * ms, 25 * ms, 35 * ms}; !reflect.DeepEqual(at, want) {
		t.Fatalf("sent at %v, want %v", at, want)
	}
	for _, s := range sizes {
		if s != sizes[0] || s < 100 {
			t.Fatalf("datagram sizes %v: want equal, payload 100 B plus header", sizes)
		}
	}
}

// At an instant the three flows share, the bulk packets leave first and in
// flow order, then the interactive one — the order the hand-written loops
// had (one event sending bulk 0 then bulk 1, a later event for the
// interactive flow).
func TestContendedLoadOrder(t *testing.T) {
	w, err := NewContended(1, ContendedConfig(), jqos.FlowSpec{Service: jqos.ServiceCaching}, 100*ms, 20*ms)
	if err != nil {
		t.Fatal(err)
	}
	sends := map[time.Duration][]core.NodeID{}
	w.D.Network().Tap = func(from, _ core.NodeID, _ int) {
		if from >= 3 && from%2 == 1 { // a sending host
			sends[w.D.Now()] = append(sends[w.D.Now()], from)
		}
	}
	w.D.Run(time.Second)
	if len(sends) != 20 {
		t.Fatalf("packets left at %d instants, want one per ms over 20 ms", len(sends))
	}
	for at, from := range sends {
		want := []core.NodeID{3, 5}
		if at%(5*ms) == 0 {
			want = []core.NodeID{3, 5, 7}
		}
		if !reflect.DeepEqual(from, want) {
			t.Fatalf("t=%v: packets left hosts %v, want %v", at, from, want)
		}
	}
	if m := w.Inter.Metrics(); m.Sent != 4 {
		t.Fatalf("interactive flow sent %d, want 4 (every 5 ms over 20 ms)", m.Sent)
	}
}

// naiveRecorder is the per-delivery model: keep every delivery, compute
// everything at the end.
type naiveRecorder struct{ sent, lat []time.Duration }

func (n *naiveRecorder) bucket(b int, bucket time.Duration) (count int, sum time.Duration) {
	for i, s := range n.sent {
		if s >= time.Duration(b)*bucket && s < time.Duration(b+1)*bucket {
			count++
			sum += n.lat[i]
		}
	}
	return count, sum
}

func TestRecorderMatchesNaiveModel(t *testing.T) {
	d, dc1, dc2 := Paper(1, jqos.DefaultConfig())
	_, host := HostPair(d, dc1, dc2)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		bucket := time.Duration(1+rng.Intn(300)) * ms
		span := time.Duration(rng.Intn(4000)) * ms // not always a whole number of buckets
		nBuckets := int(span / bucket)
		rec := Record(d, host, span, bucket)
		var model naiveRecorder
		var worst time.Duration
		empty := -1
		if nBuckets > 0 {
			empty = rng.Intn(nBuckets) // nothing is sent from this bucket
		}
		for i := 0; i < 500; i++ {
			// Sends from one bucket before 0 to one past the span.
			sent := time.Duration(rng.Int63n(int64(span+2*bucket))) - bucket
			if sent >= 0 && int(sent/bucket) == empty {
				continue
			}
			lat := time.Duration(rng.Intn(200_000)) * time.Microsecond
			rec.observe(core.Delivery{Packet: core.Packet{Sent: sent}, At: sent + lat})
			worst = max(worst, lat)
			if sent >= 0 {
				model.sent, model.lat = append(model.sent, sent), append(model.lat, lat)
			}
		}
		if rec.Worst != worst {
			t.Fatalf("trial %d: worst %v, want %v (over every delivery, bucketed or not)", trial, rec.Worst, worst)
		}
		if len(rec.Counts) != nBuckets || len(rec.Sums) != nBuckets {
			t.Fatalf("trial %d: %d/%d buckets, want %d", trial, len(rec.Counts), len(rec.Sums), nBuckets)
		}
		want := stats.Series{Name: "x"}
		for b := 0; b < nBuckets; b++ {
			n, sum := model.bucket(b, bucket)
			if rec.Counts[b] != n || rec.Sums[b] != sum {
				t.Fatalf("trial %d bucket %d: count %d sum %v, want %d %v", trial, b, rec.Counts[b], rec.Sums[b], n, sum)
			}
			if b == empty && n != 0 {
				t.Fatalf("trial %d: bucket %d should be empty", trial, b)
			}
			if n > 0 {
				want.Append((time.Duration(b) * bucket).Seconds(), float64(sum/time.Duration(n))/float64(ms))
			}
		}
		if got := rec.Series("x"); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: series %v, want %v", trial, got, want)
		}
	}
}

// A zero bucket records the worst latency and nothing else.
func TestRecorderWorstOnly(t *testing.T) {
	d, dc1, dc2 := Paper(1, jqos.DefaultConfig())
	_, host := HostPair(d, dc1, dc2)
	rec := Record(d, host, 0, 0)
	rec.observe(core.Delivery{Packet: core.Packet{Sent: 10 * ms}, At: 52 * ms})
	rec.observe(core.Delivery{Packet: core.Packet{Sent: 20 * ms}, At: 31 * ms})
	if rec.Worst != 42*ms || len(rec.Counts) != 0 || len(rec.Series("x").Points) != 0 {
		t.Fatalf("worst %v counts %v", rec.Worst, rec.Counts)
	}
}

// rerouteLoop is what internal/experiments/reroute.go did by hand before
// Recorder (its delivery handler and its series loop, copied as they
// stood): the recorder must produce the same latency series from the same
// deliveries.
func rerouteLoop(span, bucket time.Duration, deliveries []core.Delivery) stats.Series {
	nBuckets := int(span / bucket)
	sums := make([]time.Duration, nBuckets)
	counts := make([]int, nBuckets)
	for _, del := range deliveries {
		b := int(del.Packet.Sent / bucket)
		if b >= 0 && b < nBuckets {
			sums[b] += del.At - del.Packet.Sent
			counts[b]++
		}
	}
	latency := stats.Series{Name: "mean delivery latency (ms)"}
	for b := 0; b < nBuckets; b++ {
		x := (time.Duration(b) * bucket).Seconds()
		if counts[b] > 0 {
			mean := sums[b] / time.Duration(counts[b])
			latency.Append(x, float64(mean)/float64(time.Millisecond))
		}
	}
	return latency
}

func TestRecorderSeriesMatchesRerouteLoop(t *testing.T) {
	const span, bucket, spacing = 4 * time.Second, 200 * ms, 5 * ms
	// The experiment's shape: CBR at 5 ms, 43 ms on the primary path, a
	// detection gap with nothing delivered, 63 ms on the alternate.
	var deliveries []core.Delivery
	for sent := time.Duration(0); sent < span+bucket; sent += spacing {
		lat := 43*ms + sent%(3*ms)
		switch {
		case sent >= 1300*ms && sent < 1900*ms:
			continue
		case sent >= 1900*ms && sent < 2700*ms:
			lat += 20 * ms
		}
		deliveries = append(deliveries, core.Delivery{Packet: core.Packet{Sent: sent}, At: sent + lat})
	}
	d, dc1, dc2 := Paper(1, jqos.DefaultConfig())
	_, host := HostPair(d, dc1, dc2)
	rec := Record(d, host, span, bucket)
	for _, del := range deliveries {
		rec.observe(del)
	}
	want := rerouteLoop(span, bucket, deliveries)
	if got := rec.Series("mean delivery latency (ms)"); !reflect.DeepEqual(got, want) {
		t.Fatalf("series\n got %v\nwant %v", got, want)
	}
	if len(want.Points) != 18 { // 20 buckets, those at 1.4 s and 1.6 s empty
		t.Fatalf("fixed input yields %d points, want 18", len(want.Points))
	}
}
