// Package netem is a deterministic discrete-event network emulator. It
// stands in for the paper's testbeds (PlanetLab paths, Emulab topologies,
// emulated WAN impairments): virtual time, an event heap, and links with
// configurable latency, jitter, bandwidth, and loss processes.
//
// Everything is seeded and single-goroutine, so experiment output is
// bit-stable across runs and machines.
//
// The pending set is a typed 4-ary heap of events by value ordered by
// (time, scheduling sequence number); scheduling and running an event
// allocate nothing. Neither does a link delivery: Link.Send's caller brings
// its own func(core.Time), and Network.Send schedules a delivery record
// from the network's free list (see delivery). Every Timer arm is one
// event with a fresh sequence number, on purpose: skipping an unchanged
// re-arm would keep the older number and move the firing ahead of
// same-instant arrivals, changing tie order and with it every seeded
// output.
package netem

import (
	"math/rand"

	"jqos/internal/core"
)

// event is one scheduled callback. seq breaks ties so that events scheduled
// earlier run earlier at equal timestamps (FIFO within a timestamp), which
// keeps runs deterministic. Exactly one of fn and arrive is set: arrive is
// handed the event's own time, so a link delivery needs no closure to
// remember when it lands.
// It stays four words: a fifth field would take the struct out of registers
// on every heap move (measured: 11 → 29 ns per schedule-and-run).
type event struct {
	at     core.Time
	seq    uint64
	fn     func()
	arrive func(core.Time)
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a 4-ary min-heap of events held by value: no interface
// boxing, so push and pop allocate nothing once the backing array has
// grown, and half the levels of a binary heap at the depths a busy run
// reaches. (at, seq) is a total order — seq is unique — so the pop
// sequence does not depend on the heap's shape.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = event{} // the vacated slot must not keep a closure alive
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if q[c].before(&q[least]) {
				least = c
			}
		}
		if !q[least].before(&e) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = e
	return top
}

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

// Fork returns a new RNG seeded from the simulator's RNG, for components
// that want their own stream without coupling to global draw order.
func (s *Simulator) Fork() *rand.Rand { return rand.New(rand.NewSource(s.rng.Int63())) }

// At schedules fn at absolute virtual time t. Scheduling in the past (t <
// Now) panics: it is always a logic error in an event-driven system.
func (s *Simulator) At(t core.Time, fn func()) { s.schedule(event{at: t, fn: fn}) }

// schedule numbers and pushes one event and returns its sequence number.
func (s *Simulator) schedule(e event) uint64 {
	if e.at < s.now {
		panic("netem: scheduling event in the past")
	}
	s.seq++
	e.seq = s.seq
	s.events.push(e)
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
	if e.fn != nil {
		e.fn()
	} else {
		e.arrive(e.at)
	}
}

// Pending reports the number of scheduled events, useful in tests to assert
// quiescence.
func (s *Simulator) Pending() int { return len(s.events) }
