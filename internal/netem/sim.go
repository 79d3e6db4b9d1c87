// Package netem is a deterministic discrete-event network emulator. It
// stands in for the paper's testbeds (PlanetLab paths, Emulab topologies,
// emulated WAN impairments): virtual time, an event heap, and links with
// configurable latency, jitter, bandwidth, and loss processes.
//
// Everything is seeded and single-goroutine, so experiment output is
// bit-stable across runs and machines.
package netem

import (
	"container/heap"
	"math/rand"

	"jqos/internal/core"
)

// event is one scheduled callback. seq breaks ties so that events scheduled
// earlier run earlier at equal timestamps (FIFO within a timestamp), which
// keeps runs deterministic.
type event struct {
	at  core.Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)         { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any           { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event         { return h[0] }
func (h *eventHeap) pop() event         { return heap.Pop(h).(event) }
func (h *eventHeap) push(e event)       { heap.Push(h, e) }
func (h eventHeap) empty() bool         { return len(h) == 0 }
func (h eventHeap) nextTime() core.Time { return h[0].at }

// Simulator owns virtual time and the pending event set.
type Simulator struct {
	now    core.Time
	events eventHeap
	seq    uint64
	cur    uint64 // sequence number of the executing event (see Timer)
	rng    *rand.Rand
	steps  uint64
}

// NewSimulator creates a simulator with its own seeded RNG.
func NewSimulator(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now implements core.Clock.
func (s *Simulator) Now() core.Time { return s.now }

// Rand returns the simulator's RNG. All stochastic models in a run draw
// from it (or from RNGs forked via Fork), keeping runs reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fork returns a new RNG seeded from the simulator's RNG, for components
// that want their own stream without coupling to global draw order.
func (s *Simulator) Fork() *rand.Rand { return rand.New(rand.NewSource(s.rng.Int63())) }

// At schedules fn at absolute virtual time t. Scheduling in the past (t <
// Now) panics: it is always a logic error in an event-driven system.
func (s *Simulator) At(t core.Time, fn func()) { s.schedule(t, fn) }

// schedule pushes one event and returns its sequence number.
func (s *Simulator) schedule(t core.Time, fn func()) uint64 {
	if t < s.now {
		panic("netem: scheduling event in the past")
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, fn: fn})
	return s.seq
}

// After schedules fn d after the current time.
func (s *Simulator) After(d core.Time, fn func()) { s.At(s.now+d, fn) }

// Steps reports how many events have executed, a cheap progress and
// runaway-loop diagnostic.
func (s *Simulator) Steps() uint64 { return s.steps }

// Run executes events until none remain.
func (s *Simulator) Run() {
	for !s.events.empty() {
		s.step()
	}
}

// RunUntil executes events with timestamps ≤ t, then advances the clock to
// exactly t (even if no event lands there).
func (s *Simulator) RunUntil(t core.Time) {
	for !s.events.empty() && s.events.nextTime() <= t {
		s.step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor runs for a span of virtual time from now.
func (s *Simulator) RunFor(d core.Time) { s.RunUntil(s.now + d) }

func (s *Simulator) step() {
	e := s.events.pop()
	s.now = e.at
	s.cur = e.seq
	s.steps++
	e.fn()
}

// Pending reports the number of scheduled events, useful in tests to assert
// quiescence.
func (s *Simulator) Pending() int { return len(s.events) }
