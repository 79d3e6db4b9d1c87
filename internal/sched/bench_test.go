package sched

import (
	"testing"

	"jqos/internal/core"
)

// BenchmarkSchedEnqueueDequeue is the steady-state egress hot path: one
// enqueue plus one dequeue per packet, two classes contending. Every
// inter-DC packet pays this when scheduling is on, so it must stay
// allocation-free (the rings are pre-grown by the warm-up; growth is the
// only allocating path).
func BenchmarkSchedEnqueueDequeue(b *testing.B) {
	s := New(Config{
		Weights: map[core.Service]int{
			core.ServiceForwarding: 8,
			core.ServiceCaching:    1,
		},
	})
	payload := make([]byte, 1200)
	classes := [2]core.Service{core.ServiceForwarding, core.ServiceCaching}
	// Warm-up: grow both rings past any size the loop reaches.
	for i := 0; i < 64; i++ {
		s.EnqueueStamped(classes[i%2], core.FlowID(i), payload, 0)
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
		if !s.EnqueueStamped(classes[i%2], core.FlowID(i), payload, 0) {
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

// BenchmarkSchedBacklogged measures dequeue under a standing multi-class
// backlog — the contended regime where DRR's round-robin actually cycles.
func BenchmarkSchedBacklogged(b *testing.B) {
	s := New(Config{
		Weights: map[core.Service]int{
			core.ServiceForwarding: 4,
			core.ServiceCoding:     2,
			core.ServiceCaching:    1,
		},
		QueueBytes: -1,
	})
	payload := make([]byte, 1200)
	for i := 0; i < 512; i++ {
		s.EnqueueStamped(core.Service(1+i%3), core.FlowID(i), payload, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, ok := s.Dequeue()
		if !ok {
			b.Fatal("ran dry")
		}
		if !s.EnqueueStamped(it.Class, it.Flow, it.Msg, 0) {
			b.Fatal("refill rejected")
		}
	}
}
