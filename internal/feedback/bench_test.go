package feedback

import (
	"testing"

	"jqos/internal/core"
	"jqos/internal/load"
	"jqos/internal/sched"
)

// BenchmarkFeedbackSignal is the congestion-signal hot path: a scheduler
// whose class queue oscillates across both watermarks, every transition
// noted into the broadcaster and periodically flushed. Every scheduled
// packet near a watermark pays Note via the DRR's OnStateChange hook, so
// the path must be allocation-free in steady state (the CI bench gate
// holds it at 0 allocs/op).
func BenchmarkFeedbackSignal(b *testing.B) {
	s := sched.New(sched.Config{
		Weights:    map[core.Service]int{core.ServiceForwarding: 8},
		QueueBytes: 10_000,
	})
	bc := NewBroadcaster()
	s.OnStateChange = func(class core.Service, st sched.QueueState, depth int64) {
		bc.Note(1, 2, class, st, depth)
	}
	payload := make([]byte, 1000)
	// Warm-up: one full oscillation grows the ring, the pending slice,
	// and the coalescing index to steady-state size.
	cycle := func() {
		for i := 0; i < 9; i++ { // 9 kB > high watermark (7.5 kB): Hot
			s.EnqueueStamped(core.ServiceForwarding, 1, payload, 0)
		}
		for { // full drain: Clear
			if _, ok := s.Dequeue(); !ok {
				break
			}
		}
	}
	cycle()
	bc.Flush(func([]Transition) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
		bc.Flush(func([]Transition) {})
	}
	if bc.Noted() == 0 || s.Len() != 0 {
		b.Fatal("benchmark did not exercise the signal path")
	}
}

// BenchmarkPacerAdmit is the paced-admission hot path: every cloud copy
// of a Rate-contracted flow under backpressure pays one bucket Admit at
// the pacer's current rate, with periodic signals and recovery ticks
// mixed in. Must stay allocation-free.
func BenchmarkPacerAdmit(b *testing.B) {
	bucket := load.NewBucket(1_000_000, 64_000)
	p := NewPacer(bucket, PacerConfig{})
	now := core.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1_000_000 // 1 ms per packet
		bucket.Admit(now, 1000)
		switch i & 1023 {
		case 0:
			p.OnSignal(now, LinkClass{}, Hot)
		case 512:
			p.OnSignal(now, LinkClass{}, Clear)
		case 513, 600, 700:
			p.Tick(now)
		}
	}
	if p.Cuts() == 0 {
		b.Fatal("pacer never cut")
	}
}
