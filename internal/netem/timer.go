package netem

import "jqos/internal/core"

// Timer is a re-armable one-shot: allocated once with its callback, then
// armed, superseded and stopped in place. Every (re)arm pushes a fresh
// event with a fresh sequence number — exactly what scheduling through
// At does, so same-timestamp ordering is that of the arm calls — and the
// event the timer currently answers to is the only one that runs the
// callback. Superseded and stopped firings stay in the heap until their
// time and drain as no-ops, so callers carry no generation counter and
// build no closure per arm.
type Timer struct {
	sim  *Simulator
	fn   func()
	fire func() // t.onEvent, bound once
	seq  uint64 // sequence number of the live event; 0 = not armed
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func (s *Simulator) NewTimer(fn func()) *Timer {
	t := &Timer{sim: s, fn: fn}
	t.fire = t.onEvent
	return t
}

// Reset arms the timer for absolute time at, superseding any pending
// firing. A deadline already past fires at the current instant.
func (t *Timer) Reset(at core.Time) {
	if at < t.sim.now {
		at = t.sim.now
	}
	t.seq = t.sim.schedule(event{at: at, fn: t.fire})
}

// Arm arms the timer to fire after d unless it is already armed — the
// idempotent form for "make sure a run is coming" call sites. The timer
// disarms before its callback runs, so the callback re-arms with Arm.
func (t *Timer) Arm(d core.Time) {
	if t.seq == 0 {
		t.Reset(t.sim.now + d)
	}
}

// Stop cancels the pending firing, if any.
func (t *Timer) Stop() { t.seq = 0 }

// Armed reports whether a firing is pending.
func (t *Timer) Armed() bool { return t.seq != 0 }

func (t *Timer) onEvent() {
	if t.sim.cur != t.seq {
		return // superseded by a later Reset, or stopped
	}
	t.seq = 0
	t.fn()
}

// parkAfter is how many consecutive idle rounds park a Ticker.
const parkAfter = 2

// Ticker is a periodic loop that parks itself when the world goes quiet,
// so an idle simulation drains to Pending() == 0 and Run returns. Each
// round compares *activity with its value at the previous round, runs
// tick, and re-arms one interval later — unless this was the second
// consecutive round without movement and tick did not ask to hold, in
// which case the ticker parks until the next Wake. Whatever moves
// *activity must also call Wake.
//
// A nil *Ticker is a loop that is configured off: Wake and Stop are
// no-ops.
type Ticker struct {
	timer    *Timer
	interval core.Time
	activity *uint64
	tick     func() (hold bool)
	last     uint64
	idle     int
	running  bool
}

// NewTicker returns a parked ticker; the first Wake starts it. tick
// returns true to keep the loop running through idle rounds (state that
// must still settle without traffic).
func (s *Simulator) NewTicker(interval core.Time, activity *uint64, tick func() (hold bool)) *Ticker {
	k := &Ticker{interval: interval, activity: activity, tick: tick}
	k.timer = s.NewTimer(k.round)
	return k
}

// Wake restarts a parked ticker one interval from now; on a running one
// it only clears the accumulated idle rounds and schedules nothing.
func (k *Ticker) Wake() {
	if k == nil {
		return
	}
	k.idle = 0
	if k.running {
		return
	}
	k.running = true
	k.timer.Arm(k.interval)
}

// Stop halts the loop until the next Wake.
func (k *Ticker) Stop() {
	if k == nil {
		return
	}
	k.running = false
	k.timer.Stop()
}

func (k *Ticker) round() {
	if a := *k.activity; a == k.last {
		k.idle++
	} else {
		k.last = a
		k.idle = 0
	}
	hold := k.tick()
	if !k.running {
		return // tick stopped the loop
	}
	if k.idle >= parkAfter && !hold {
		k.running = false
		return
	}
	k.timer.Arm(k.interval)
}
