package sched

import (
	"testing"

	"jqos/internal/core"
)

func msg(n int) []byte { return make([]byte, n) }

// drain dequeues everything, returning the class sequence.
func drain(s *DRR) []core.Service {
	var out []core.Service
	for {
		it, ok := s.Dequeue()
		if !ok {
			return out
		}
		out = append(out, it.Class)
	}
}

func TestDequeueEmpty(t *testing.T) {
	s := New(Config{Weights: map[core.Service]int{}})
	if _, ok := s.Dequeue(); ok {
		t.Fatal("dequeue from empty scheduler returned a packet")
	}
	if s.Len() != 0 || s.Stats().QueuedBytes != 0 {
		t.Fatalf("empty scheduler reports len=%d bytes=%d", s.Len(), s.Stats().QueuedBytes)
	}
}

func TestFIFOWithinClass(t *testing.T) {
	s := New(Config{Weights: map[core.Service]int{}})
	for i := 1; i <= 5; i++ {
		if !s.EnqueueStamped(core.ServiceForwarding, core.FlowID(i), msg(100), 0) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	for i := 1; i <= 5; i++ {
		it, ok := s.Dequeue()
		if !ok || it.Flow != core.FlowID(i) {
			t.Fatalf("dequeue %d: got flow %d ok=%v", i, it.Flow, ok)
		}
	}
}

// TestWeightedShares backlogs two classes and checks dequeued bytes track
// the configured weights over a long drain.
func TestWeightedShares(t *testing.T) {
	s := New(Config{
		Weights: map[core.Service]int{
			core.ServiceForwarding: 4,
			core.ServiceCaching:    1,
		},
		QueueBytes: -1,
	})
	const n = 1000
	for i := 0; i < n; i++ {
		s.EnqueueStamped(core.ServiceForwarding, 1, msg(1000), 0)
		s.EnqueueStamped(core.ServiceCaching, 2, msg(1000), 0)
	}
	// Dequeue only half the backlog so both classes stay backlogged —
	// shares are only defined under contention.
	var fwd, cch int
	for i := 0; i < n; i++ {
		it, ok := s.Dequeue()
		if !ok {
			t.Fatal("scheduler ran dry mid-contention")
		}
		switch it.Class {
		case core.ServiceForwarding:
			fwd++
		case core.ServiceCaching:
			cch++
		}
	}
	ratio := float64(fwd) / float64(cch)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("weight-4:1 contention dequeued %d:%d (ratio %.2f), want ~4", fwd, cch, ratio)
	}
}

// TestWorkConserving: an idle high-weight class must not hold back the
// only backlogged one.
func TestWorkConserving(t *testing.T) {
	s := New(Config{Weights: map[core.Service]int{core.ServiceForwarding: 100}})
	for i := 0; i < 50; i++ {
		s.EnqueueStamped(core.ServiceCaching, 1, msg(500), 0)
	}
	got := drain(s)
	if len(got) != 50 {
		t.Fatalf("drained %d of 50 packets", len(got))
	}
	for _, c := range got {
		if c != core.ServiceCaching {
			t.Fatalf("unexpected class %v", c)
		}
	}
}

// TestOversizedPacketAccumulatesDeficit: a packet bigger than one
// quantum×weight grant must still dequeue after enough rounds.
func TestOversizedPacketAccumulatesDeficit(t *testing.T) {
	s := New(Config{Weights: map[core.Service]int{core.ServiceCoding: 1}})
	s.EnqueueStamped(core.ServiceCoding, 7, msg(10*quantum-50), 0) // needs 10 grants
	s.EnqueueStamped(core.ServiceForwarding, 8, msg(50), 0)
	got := drain(s)
	if len(got) != 2 {
		t.Fatalf("drained %d of 2", len(got))
	}
	st := s.Stats()
	if st.Rounds < 10 {
		t.Errorf("oversized packet dequeued after %d rounds, want ≥10", st.Rounds)
	}
}

func TestByteCapDropsFromTail(t *testing.T) {
	s := New(Config{
		Weights:    map[core.Service]int{},
		QueueBytes: 2500,
	})
	for i := 0; i < 5; i++ {
		s.EnqueueStamped(core.ServiceCaching, 3, msg(1000), 0)
	}
	st := s.Stats()
	c := st.PerClass[core.ServiceCaching]
	if c.EnqueuedPackets != 2 || c.DroppedPackets != 3 {
		t.Fatalf("cap 2500: enqueued=%d dropped=%d, want 2/3", c.EnqueuedPackets, c.DroppedPackets)
	}
	if c.DroppedBytes != 3000 {
		t.Errorf("dropped bytes = %d, want 3000", c.DroppedBytes)
	}
	// The cap is per class: another class still accepts.
	if !s.EnqueueStamped(core.ServiceForwarding, 4, msg(1000), 0) {
		t.Error("sibling class rejected under another class's cap")
	}
	// Draining frees cap space.
	s.Dequeue()
	if !s.EnqueueStamped(core.ServiceCaching, 3, msg(1000), 0) {
		t.Error("enqueue rejected after drain freed cap space")
	}
}

// TestOversizedPacketAdmittedWhenEmpty: the byte cap bounds backlog,
// not packet size — a message larger than the whole cap still traverses
// an idle queue instead of blackholing forever.
func TestOversizedPacketAdmittedWhenEmpty(t *testing.T) {
	s := New(Config{Weights: map[core.Service]int{}, QueueBytes: 1000})
	if !s.EnqueueStamped(core.ServiceForwarding, 1, msg(5000), 0) {
		t.Fatal("oversized packet rejected by an empty queue")
	}
	// With the oversized packet in place, the backlog is over cap: the
	// next arrival drops.
	if s.EnqueueStamped(core.ServiceForwarding, 1, msg(100), 0) {
		t.Fatal("arrival admitted over an above-cap backlog")
	}
	it, ok := s.Dequeue()
	if !ok || len(it.Msg) != 5000 {
		t.Fatalf("oversized packet not released: ok=%v len=%d", ok, len(it.Msg))
	}
	// Drained: the queue admits again.
	if !s.EnqueueStamped(core.ServiceForwarding, 1, msg(100), 0) {
		t.Fatal("queue wedged after oversized packet drained")
	}
}

func TestUnknownClassRejected(t *testing.T) {
	s := New(Config{Weights: map[core.Service]int{}})
	if s.EnqueueStamped(core.Service(250), 1, msg(10), 0) {
		t.Fatal("unknown class accepted")
	}
	if s.Len() != 0 {
		t.Fatal("unknown class entered a queue")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := New(Config{Weights: map[core.Service]int{}})
	s.EnqueueStamped(core.ServiceForwarding, 1, msg(100), 0)
	s.EnqueueStamped(core.ServiceForwarding, 1, msg(200), 0)
	s.EnqueueStamped(core.ServiceCaching, 2, msg(300), 0)
	if s.Len() != 3 || s.Stats().QueuedBytes != 600 {
		t.Fatalf("queued len=%d bytes=%d, want 3/600", s.Len(), s.Stats().QueuedBytes)
	}
	s.Dequeue()
	st := s.Stats()
	if st.QueuedPackets != 2 {
		t.Fatalf("after one dequeue queued=%d", st.QueuedPackets)
	}
	f := st.PerClass[core.ServiceForwarding]
	if f.EnqueuedBytes != 300 || f.EnqueuedPackets != 2 {
		t.Errorf("forwarding enqueued %d/%d, want 300/2", f.EnqueuedBytes, f.EnqueuedPackets)
	}
	drain(s)
	st = s.Stats()
	if st.QueuedPackets != 0 || st.QueuedBytes != 0 {
		t.Fatalf("post-drain depth %d/%d", st.QueuedPackets, st.QueuedBytes)
	}
	total := uint64(0)
	for _, c := range st.PerClass {
		total += c.DequeuedPackets
	}
	if total != 3 {
		t.Fatalf("dequeued %d of 3", total)
	}
}

// TestRingGrowthPreservesOrder pushes past several growth boundaries with
// interleaved pops so the ring wraps, then checks FIFO order survived.
func TestRingGrowthPreservesOrder(t *testing.T) {
	s := New(Config{Weights: map[core.Service]int{}, QueueBytes: -1})
	next := core.FlowID(1)
	want := core.FlowID(1)
	for step := 0; step < 200; step++ {
		for i := 0; i < 3; i++ {
			s.EnqueueStamped(core.ServiceCoding, next, msg(10), 0)
			next++
		}
		it, ok := s.Dequeue()
		if !ok || it.Flow != want {
			t.Fatalf("step %d: got flow %d ok=%v, want %d", step, it.Flow, ok, want)
		}
		want++
	}
	for {
		it, ok := s.Dequeue()
		if !ok {
			break
		}
		if it.Flow != want {
			t.Fatalf("drain: got flow %d, want %d", it.Flow, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained through flow %d, want %d", want-1, next-1)
	}
}

func TestDisabledConfig(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero config reads as enabled")
	}
	if !(Config{Weights: map[core.Service]int{}}).Enabled() {
		t.Fatal("empty-map config reads as disabled")
	}
}

// TestWatermarkHysteresis walks one class queue through the full state
// machine: Clear → Warm → Hot on the way up, and (hysteresis) Hot only
// cools after falling below the LOW watermark, Warm only clears below
// half of it.
func TestWatermarkHysteresis(t *testing.T) {
	// Cap 1000 → low 250, high 750 with the defaults.
	s := New(Config{Weights: map[core.Service]int{}, QueueBytes: 1000})
	type flip struct {
		st    QueueState
		depth int64
	}
	var flips []flip
	s.OnStateChange = func(cls core.Service, st QueueState, depth int64) {
		if cls != core.ServiceCaching {
			t.Fatalf("transition on class %v", cls)
		}
		flips = append(flips, flip{st, depth})
	}
	enq := func(n int) {
		if !s.EnqueueStamped(core.ServiceCaching, 1, msg(n), 0) {
			t.Fatalf("enqueue %d rejected at depth %d", n, s.Stats().QueuedBytes)
		}
	}
	deq := func() {
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("dequeue ran dry")
		}
	}

	enq(100) // 100: still Clear
	if s.State(core.ServiceCaching) != QueueClear {
		t.Fatalf("state at 100 = %v", s.State(core.ServiceCaching))
	}
	enq(200) // 300: past low → Warm
	if s.State(core.ServiceCaching) != QueueWarm {
		t.Fatalf("state at 300 = %v", s.State(core.ServiceCaching))
	}
	enq(200) // 500: inside the band → still Warm
	enq(300) // 800: past high → Hot
	if s.State(core.ServiceCaching) != QueueHot {
		t.Fatalf("state at 800 = %v", s.State(core.ServiceCaching))
	}
	deq() // 700: below high but above low → STAYS Hot (hysteresis)
	if s.State(core.ServiceCaching) != QueueHot {
		t.Fatalf("state at 700 = %v, want hot", s.State(core.ServiceCaching))
	}
	deq() // 500
	deq() // 300
	if s.State(core.ServiceCaching) != QueueHot {
		t.Fatalf("state at 300 = %v, want hot", s.State(core.ServiceCaching))
	}
	deq() // 0 ≤ low → empties: Clear
	if s.State(core.ServiceCaching) != QueueClear {
		t.Fatalf("state after drain = %v", s.State(core.ServiceCaching))
	}

	want := []flip{{QueueWarm, 300}, {QueueHot, 800}, {QueueClear, 0}}
	if len(flips) != len(want) {
		t.Fatalf("flips = %+v, want %+v", flips, want)
	}
	for i := range want {
		if flips[i] != want[i] {
			t.Fatalf("flip %d = %+v, want %+v", i, flips[i], want[i])
		}
	}
	if st := s.Stats().PerClass[core.ServiceCaching]; st.StateChanges != uint64(len(want)) || st.State != QueueClear {
		t.Fatalf("stats state=%v changes=%d", st.State, st.StateChanges)
	}
}

// TestWatermarkCoolsThroughWarm checks the downward path when the queue
// does not fully drain: Hot → Warm at the low watermark, Warm → Clear
// at half of it.
func TestWatermarkCoolsThroughWarm(t *testing.T) {
	s := New(Config{Weights: map[core.Service]int{}, QueueBytes: 1000})
	for i := 0; i < 8; i++ {
		s.EnqueueStamped(core.ServiceCoding, 1, msg(100), 0) // 800 → Hot
	}
	if s.State(core.ServiceCoding) != QueueHot {
		t.Fatalf("state = %v, want hot", s.State(core.ServiceCoding))
	}
	for i := 0; i < 6; i++ { // 200 ≤ low → Warm
		s.Dequeue()
	}
	if s.State(core.ServiceCoding) != QueueWarm {
		t.Fatalf("state at 200 = %v, want warm", s.State(core.ServiceCoding))
	}
	s.Dequeue() // 100 ≤ low/2 → Clear
	if s.State(core.ServiceCoding) != QueueClear {
		t.Fatalf("state at 100 = %v, want clear", s.State(core.ServiceCoding))
	}
}

// TestWatermarkConfig checks defaulting and clamping: custom fractions
// take effect, an inverted band is repaired, and an unbounded queue
// falls back to the default cap as its watermark basis.
func TestWatermarkConfig(t *testing.T) {
	s := New(Config{Weights: map[core.Service]int{}, QueueBytes: 1000,
		LowWatermark: 0.5, HighWatermark: 0.9})
	if s.low != 500 || s.high != 900 {
		t.Fatalf("custom watermarks = %d/%d, want 500/900", s.low, s.high)
	}
	s = New(Config{Weights: map[core.Service]int{}, QueueBytes: 1000,
		LowWatermark: 0.9, HighWatermark: 0.6})
	if s.low >= s.high {
		t.Fatalf("inverted band not repaired: %d/%d", s.low, s.high)
	}
	s = New(Config{Weights: map[core.Service]int{}, QueueBytes: -1})
	if s.low != DefaultQueueBytes/4 || s.high != DefaultQueueBytes*3/4 {
		t.Fatalf("unbounded basis = %d/%d", s.low, s.high)
	}
}

// TestConfigShareHelpers pins the admission-sizing helpers to the
// scheduler's own defaulting rules.
func TestConfigShareHelpers(t *testing.T) {
	cfg := Config{Weights: map[core.Service]int{
		core.ServiceForwarding: 8,
		core.ServiceCaching:    0, // clamps to 1
	}}
	if w := cfg.WeightOf(core.ServiceForwarding); w != 8 {
		t.Fatalf("WeightOf(fwd) = %d", w)
	}
	if w := cfg.WeightOf(core.ServiceCaching); w != 1 {
		t.Fatalf("WeightOf(caching) = %d, want clamp to 1", w)
	}
	if w := cfg.WeightOf(core.ServiceCoding); w != 1 {
		t.Fatalf("WeightOf(absent) = %d, want 1", w)
	}
	if tw := cfg.TotalWeight(); tw != 8+1+1+1 {
		t.Fatalf("TotalWeight = %d, want 11", tw)
	}
	// The Internet queue idles in steady state: the contention
	// denominator admission sizes against excludes its weight.
	if cw := cfg.ContendedWeight(); cw != 8+1+1 {
		t.Fatalf("ContendedWeight = %d, want 10", cw)
	}
	if q := (Config{}).EffectiveQueueBytes(); q != DefaultQueueBytes {
		t.Fatalf("EffectiveQueueBytes zero = %d", q)
	}
	if q := (Config{QueueBytes: 42}).EffectiveQueueBytes(); q != 42 {
		t.Fatalf("EffectiveQueueBytes explicit = %d", q)
	}
	if q := (Config{QueueBytes: -5}).EffectiveQueueBytes(); q != -1 {
		t.Fatalf("EffectiveQueueBytes unbounded = %d", q)
	}
}
