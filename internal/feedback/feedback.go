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
// Three pieces, all sans-IO like the protocol engines:
//
//   - Broadcaster batches watermark transitions noted on the scheduler
//     hot path (allocation-free) until the hosting runtime flushes them
//     as control messages;
//   - Registry maps each directed (inter-DC link, class) to the flows —
//     and their ingress DCs — currently routed across it, maintained on
//     register/pin/reroute/close;
//   - Pacer applies AIMD rate control to an admission token bucket (a
//     flow's contract or a tenant's shared quota), one state per
//     congested link-class: multiplicative cut toward a floor on Hot,
//     additive recovery once the queue cools.
package feedback

import (
	"slices"
	"sort"

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

// Registry maps each directed (inter-DC link, class) to the subscribed
// flows and their ingress DCs, so a congestion signal fans out to
// exactly the DCs whose flows load the queue. The hosting runtime
// updates a flow's subscription whenever its path or service class
// changes and removes it on close.
type Registry struct {
	subs  map[LinkClass]map[core.FlowID]core.NodeID // flow → ingress DC
	flows map[core.FlowID]flowSub                   // reverse index for update/remove
	// keyFree / mapFree recycle key slices and emptied fan-out maps so
	// subscription churn (every flow open, close, and reroute) settles at
	// zero allocations per update.
	keyFree [][]LinkClass
	mapFree []map[core.FlowID]core.NodeID
}

// flowSub is one flow's stored subscription: its ingress plus the
// directed link-class keys its path covers.
type flowSub struct {
	ingress core.NodeID
	keys    []LinkClass
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		subs:  make(map[LinkClass]map[core.FlowID]core.NodeID),
		flows: make(map[core.FlowID]flowSub),
	}
}

// Update (re)subscribes a flow: its class traffic enters the overlay at
// ingress and traverses every consecutive directed link of path (a DC
// path, endpoints included). A previous subscription is replaced; a
// path shorter than one link just unsubscribes. It reports whether the
// subscription actually changed — callers use an unchanged update as
// "nothing moved" (a re-resolution that picked the same path must not
// reset per-flow reaction state).
func (r *Registry) Update(flow core.FlowID, ingress core.NodeID, class core.Service, path []core.NodeID) bool {
	if len(path) < 2 {
		return r.Remove(flow)
	}
	keys := r.getKeys()
	for i := 0; i+1 < len(path); i++ {
		keys = append(keys, LinkClass{path[i], path[i+1], class})
	}
	if prev, ok := r.flows[flow]; ok && prev.ingress == ingress && slices.Equal(prev.keys, keys) {
		r.keyFree = append(r.keyFree, keys)
		return false
	}
	r.Remove(flow)
	for _, k := range keys {
		m, ok := r.subs[k]
		if !ok {
			m = r.getMap()
			r.subs[k] = m
		}
		m[flow] = ingress
	}
	r.flows[flow] = flowSub{ingress: ingress, keys: keys}
	return true
}

// Remove unsubscribes a flow everywhere, reporting whether a
// subscription existed.
func (r *Registry) Remove(flow core.FlowID) bool {
	sub, had := r.flows[flow]
	for _, k := range sub.keys {
		if m, ok := r.subs[k]; ok {
			delete(m, flow)
			if len(m) == 0 {
				delete(r.subs, k)
				r.mapFree = append(r.mapFree, m)
			}
		}
	}
	if had {
		delete(r.flows, flow)
		r.keyFree = append(r.keyFree, sub.keys)
	}
	return had
}

// getKeys pops a recycled key slice (empty, capacity retained) or
// returns nil for append to grow — the amortized cost of a new path
// length, paid once.
func (r *Registry) getKeys() []LinkClass {
	if n := len(r.keyFree); n > 0 {
		keys := r.keyFree[n-1]
		r.keyFree = r.keyFree[:n-1]
		return keys[:0]
	}
	return nil
}

// getMap pops a recycled fan-out map (emptied by Remove, buckets
// retained) or makes a fresh one.
func (r *Registry) getMap() map[core.FlowID]core.NodeID {
	if n := len(r.mapFree); n > 0 {
		m := r.mapFree[n-1]
		r.mapFree = r.mapFree[:n-1]
		return m
	}
	return make(map[core.FlowID]core.NodeID)
}

// Subscribed returns how many flows currently hold subscriptions.
func (r *Registry) Subscribed() int { return len(r.flows) }

// Ingresses appends to buf the distinct ingress DCs subscribed to the
// directed link from→to for class, in ascending order (deterministic
// fan-out). Pass buf[:0] to reuse a scratch slice.
func (r *Registry) Ingresses(buf []core.NodeID, from, to core.NodeID, class core.Service) []core.NodeID {
	m := r.subs[LinkClass{from, to, class}]
	if len(m) == 0 {
		return buf
	}
	start := len(buf)
	for _, ing := range m {
		seen := false
		for _, have := range buf[start:] {
			if have == ing {
				seen = true
				break
			}
		}
		if !seen {
			buf = append(buf, ing)
		}
	}
	sort.Slice(buf[start:], func(i, j int) bool { return buf[start+i] < buf[start+j] })
	return buf
}

// FlowsAt appends to buf the flows subscribed at ingress for the
// directed link from→to and class, in ascending flow order
// (deterministic delivery). Pass buf[:0] to reuse a scratch slice.
func (r *Registry) FlowsAt(buf []core.FlowID, ingress, from, to core.NodeID, class core.Service) []core.FlowID {
	m := r.subs[LinkClass{from, to, class}]
	if len(m) == 0 {
		return buf
	}
	start := len(buf)
	for flow, ing := range m {
		if ing == ingress {
			buf = append(buf, flow)
		}
	}
	sort.Slice(buf[start:], func(i, j int) bool { return buf[start+i] < buf[start+j] })
	return buf
}
