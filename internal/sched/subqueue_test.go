package sched

import (
	"testing"

	"jqos/internal/core"
)

func TestPerFlowSubqueueFairness(t *testing.T) {
	s := New(Config{
		Weights:       map[core.Service]int{core.ServiceForwarding: 1},
		QueueBytes:    -1,
		PerFlowQueues: true,
	})
	bulk, inter := core.FlowID(1), core.FlowID(2)
	// Bulk floods first; interactive arrives behind the whole backlog.
	for i := 0; i < 10; i++ {
		if !s.EnqueueStamped(core.ServiceForwarding, bulk, make([]byte, 1000), 0) {
			t.Fatal("bulk enqueue rejected")
		}
	}
	for i := 0; i < 2; i++ {
		if !s.EnqueueStamped(core.ServiceForwarding, inter, make([]byte, 200), 0) {
			t.Fatal("interactive enqueue rejected")
		}
	}
	// Under a single FIFO the interactive packets would drain 11th and
	// 12th; the nested flow DRR must interleave them near the front.
	var interServed []int
	for i := 0; i < 12; i++ {
		it, ok := s.Dequeue()
		if !ok {
			t.Fatalf("ran dry at %d", i)
		}
		if it.Flow == inter {
			interServed = append(interServed, i)
		}
	}
	if len(interServed) != 2 {
		t.Fatalf("interactive served %d times, want 2", len(interServed))
	}
	if interServed[1] > 4 {
		t.Fatalf("interactive packets served at positions %v — starved behind bulk", interServed)
	}
	if s.Len() != 0 || s.Stats().QueuedBytes != 0 {
		t.Fatalf("residue after drain: %d pkts %d bytes", s.Len(), s.Stats().QueuedBytes)
	}
	if fqs := s.Stats().PerClass[core.ServiceForwarding].FlowQueues; fqs != 0 {
		t.Fatalf("drained class still holds %d sub-queues", fqs)
	}
}

func TestPerFlowVictimDrop(t *testing.T) {
	s := New(Config{
		Weights:       map[core.Service]int{core.ServiceForwarding: 1},
		QueueBytes:    5000,
		PerFlowQueues: true,
	})
	bulk, inter := core.FlowID(1), core.FlowID(2)
	var victims []core.FlowID
	var victimBytes int64
	s.OnVictimDrop = func(class core.Service, flow core.FlowID, size int64) {
		victims = append(victims, flow)
		victimBytes += size
	}
	for i := 0; i < 5; i++ {
		if !s.EnqueueStamped(core.ServiceForwarding, bulk, make([]byte, 1000), 0) {
			t.Fatal("bulk fill rejected")
		}
	}
	// The class sits at its cap. The interactive arrival must be
	// admitted by dropping the BULK tail, not rejected.
	if !s.EnqueueStamped(core.ServiceForwarding, inter, make([]byte, 400), 0) {
		t.Fatal("interactive arrival rejected at cap — victim eviction did not run")
	}
	if len(victims) != 1 || victims[0] != bulk || victimBytes != 1000 {
		t.Fatalf("victims %v (%d bytes), want one 1000-byte drop from bulk", victims, victimBytes)
	}
	st := s.Stats().PerClass[core.ServiceForwarding]
	if st.VictimDrops != 1 || st.DroppedPackets != 1 {
		t.Fatalf("victim/dropped = %d/%d, want 1/1", st.VictimDrops, st.DroppedPackets)
	}
	if st.QueuedBytes != 4400 || st.QueuedPackets != 5 {
		t.Fatalf("depth %d bytes %d pkts after eviction", st.QueuedBytes, st.QueuedPackets)
	}

	// The bulk flow's OWN next arrival is the longest queue's — it is
	// rejected outright, no sibling pays.
	if s.EnqueueStamped(core.ServiceForwarding, bulk, make([]byte, 1000), 0) {
		t.Fatal("bulk arrival admitted past cap with bulk itself the longest")
	}
	if len(victims) != 1 {
		t.Fatalf("bulk self-drop evicted a sibling: victims %v", victims)
	}
}

func TestPerFlowVictimDropKeepsOrder(t *testing.T) {
	s := New(Config{
		Weights:       map[core.Service]int{core.ServiceForwarding: 1},
		QueueBytes:    3000,
		PerFlowQueues: true,
	})
	bulk, inter := core.FlowID(1), core.FlowID(2)
	// Three distinguishable bulk packets; the victim drop must take the
	// TAIL (len 3), leaving 1 and 2 to deliver in order.
	for _, n := range []int{1, 2, 3} {
		s.EnqueueStamped(core.ServiceForwarding, bulk, make([]byte, 1000)[:1000-n], 0)
	}
	if !s.EnqueueStamped(core.ServiceForwarding, inter, make([]byte, 900), 0) {
		t.Fatal("interactive rejected")
	}
	var bulkSizes []int
	for {
		it, ok := s.Dequeue()
		if !ok {
			break
		}
		if it.Flow == bulk {
			bulkSizes = append(bulkSizes, len(it.Msg))
		}
	}
	if len(bulkSizes) != 2 || bulkSizes[0] != 999 || bulkSizes[1] != 998 {
		t.Fatalf("bulk survivors %v, want [999 998] (tail dropped, order kept)", bulkSizes)
	}
}

func TestPerFlowClassWeightsStillHold(t *testing.T) {
	// Flow fairness nests INSIDE class weighting: with 3:1 weights and
	// both classes backlogged, dequeued bytes must still split ~3:1
	// whatever the per-class flow mix.
	s := New(Config{
		Weights: map[core.Service]int{
			core.ServiceForwarding: 3,
			core.ServiceCaching:    1,
		},
		QueueBytes:    -1,
		PerFlowQueues: true,
	})
	for i := 0; i < 300; i++ {
		s.EnqueueStamped(core.ServiceForwarding, core.FlowID(1+i%3), make([]byte, 1000), 0)
		s.EnqueueStamped(core.ServiceCaching, core.FlowID(10+i%2), make([]byte, 1000), 0)
	}
	var fwd, cache int
	for i := 0; i < 200; i++ {
		it, ok := s.Dequeue()
		if !ok {
			t.Fatal("ran dry")
		}
		if it.Class == core.ServiceForwarding {
			fwd++
		} else {
			cache++
		}
	}
	ratio := float64(fwd) / float64(cache)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("forwarding:caching = %d:%d (%.2f), want ~3", fwd, cache, ratio)
	}
}

func TestPerFlowSubqueueRecycling(t *testing.T) {
	s := New(Config{
		Weights:       map[core.Service]int{core.ServiceForwarding: 1},
		PerFlowQueues: true,
	})
	// Churn many distinct flows through; live sub-queue state must track
	// only the backlogged ones.
	for round := 0; round < 5; round++ {
		for f := core.FlowID(1); f <= 8; f++ {
			s.EnqueueStamped(core.ServiceForwarding, f, make([]byte, 100), 0)
		}
		if fqs := s.Stats().PerClass[core.ServiceForwarding].FlowQueues; fqs != 8 {
			t.Fatalf("round %d: %d sub-queues, want 8", round, fqs)
		}
		for {
			if _, ok := s.Dequeue(); !ok {
				break
			}
		}
		if fqs := s.Stats().PerClass[core.ServiceForwarding].FlowQueues; fqs != 0 {
			t.Fatalf("round %d: %d sub-queues after drain", round, fqs)
		}
	}
}

// BenchmarkSubqueueEnqueueDequeue gates the per-flow discipline's
// steady-state hot path at 0 allocs/op: sub-queues churn (created on
// enqueue, recycled on drain) every operation, exercising the free list
// and the map slot reuse.
func BenchmarkSubqueueEnqueueDequeue(b *testing.B) {
	s := New(Config{
		Weights: map[core.Service]int{
			core.ServiceForwarding: 8,
			core.ServiceCaching:    1,
		},
		PerFlowQueues: true,
	})
	payload := make([]byte, 1200)
	classes := [2]core.Service{core.ServiceForwarding, core.ServiceCaching}
	// Warm-up: grow rings, free lists, and map buckets past anything the
	// loop reaches.
	for i := 0; i < 64; i++ {
		s.EnqueueStamped(classes[i%2], core.FlowID(1+i%4), payload, 0)
	}
	for {
		if _, ok := s.Dequeue(); !ok {
			break
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.EnqueueStamped(classes[i%2], core.FlowID(1+i%4), payload, 0) {
			b.Fatal("enqueue rejected")
		}
		if _, ok := s.Dequeue(); !ok {
			b.Fatal("dequeue ran dry")
		}
	}
	if s.Len() != 0 {
		b.Fatal("backlog after balanced enqueue/dequeue")
	}
}
