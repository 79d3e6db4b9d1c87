// Package feedback is the congestion-feedback plane of the overlay: it
// turns egress-scheduler queue depth (internal/sched watermark states)
// into per-(link, service-class) congestion signals and carries them
// back to the ingress DCs whose flows are causing the pressure — the
// ECN idea applied inside the overlay, with queue STATE rather than
// loss as the control signal (CASPR; Singh & Modiano). The paper's
// judicious QoS needs exactly this: reacting when a queue starts
// building, seconds before the byte cap tail-drops, keeps interactive
// budgets intact without permanently paying for the expensive tier.
//
// Two pieces, both sans-IO like the protocol engines:
//
//   - Broadcaster batches watermark transitions noted on the scheduler
//     hot path (allocation-free) until the hosting runtime flushes them
//     as control messages;
//   - Pacer applies AIMD rate control to an admission token bucket (a
//     flow's contract or a tenant's shared quota), one state per
//     congested link-class: multiplicative cut toward a floor on Hot,
//     additive recovery once the queue cools.
package feedback

import (
	"jqos/internal/core"
	"jqos/internal/sched"
)

// State is a link-class congestion classification — the scheduler's
// watermark state, re-exported as the signal vocabulary.
type State = sched.QueueState

// Signal states, cheapest reaction first.
const (
	Clear = sched.QueueClear
	Warm  = sched.QueueWarm
	Hot   = sched.QueueHot
)

// Transition is one link-class watermark flip: the directed egress link
// From→To whose Class queue entered State at Depth queued bytes.
type Transition struct {
	From, To core.NodeID
	Class    core.Service
	State    State
	Depth    int64
}

// LinkClass keys one directed inter-DC link's class queue — the unit a
// congestion signal names, a flow subscribes to, and a Pacer keeps AIMD
// state per.
type LinkClass struct {
	From, To core.NodeID
	Class    core.Service
}

// Broadcaster batches watermark transitions between flushes. Note runs
// on the scheduler hot path — every enqueue/dequeue that crosses a
// watermark pays it — and is allocation-free in steady state: repeated
// flips of the same link-class coalesce in place (latest state wins,
// so a flip-and-back pair collapses to the final state), and the
// pending slice and index are reused across flushes.
type Broadcaster struct {
	pending []Transition
	index   map[LinkClass]int

	noted   uint64
	flushes uint64
}

// NewBroadcaster returns an empty broadcaster.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{index: make(map[LinkClass]int)}
}

// Note records one transition for the next flush, coalescing repeated
// flips of the same (link, class) within the batch.
func (b *Broadcaster) Note(from, to core.NodeID, class core.Service, st State, depth int64) {
	b.noted++
	k := LinkClass{from, to, class}
	if i, ok := b.index[k]; ok {
		b.pending[i].State = st
		b.pending[i].Depth = depth
		return
	}
	b.index[k] = len(b.pending)
	b.pending = append(b.pending, Transition{From: from, To: to, Class: class, State: st, Depth: depth})
}

// Flush hands the batch to fn and resets it. The slice is reused by
// later Notes — fn must not retain it. A no-op when nothing is pending.
func (b *Broadcaster) Flush(fn func([]Transition)) {
	if len(b.pending) == 0 {
		return
	}
	b.flushes++
	fn(b.pending)
	clear(b.index)
	b.pending = b.pending[:0]
}

// Noted returns the lifetime count of transitions recorded.
func (b *Broadcaster) Noted() uint64 { return b.noted }

// Flushes returns the lifetime count of non-empty flushes.
func (b *Broadcaster) Flushes() uint64 { return b.flushes }
