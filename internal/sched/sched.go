// Package sched implements the per-class egress scheduler of a DC's
// inter-DC links: a deficit-round-robin (DRR) discipline over one queue
// per J-QoS service class, so interactive classes preempt bulk traffic
// INSIDE a link instead of only routing around it. The paper's judicious
// QoS promises interactive flows overlay resources ahead of bulk; per-link
// metering and congestion-aware routing (internal/load, PR 3) spread load
// across links, and this scheduler converts that into intra-link delay
// protection — the missing half of the guarantee when contending classes
// share a single egress.
//
// The scheduler is sans-IO, like the protocol engines: EnqueueStamped accepts
// marshaled messages, Dequeue hands back the next message the discipline
// releases, and the hosting runtime (the emulator's egress pump, or a real
// socket writer) moves the bytes and paces dequeues at the link rate. The
// steady-state enqueue/dequeue path performs no allocation — every
// inter-DC packet pays it (see BenchmarkSchedEnqueueDequeue).
package sched

import (
	"jqos/internal/core"
	"jqos/internal/ring"
)

// NumClasses is the number of scheduled service classes — one queue per
// J-QoS service, indexed by core.Service.
const NumClasses = core.NumServices

// quantum is the per-weight-unit byte credit added to a class queue each
// DRR round. One MTU keeps DRR's O(1) guarantee: any packet up to the
// quantum dequeues within one credit of its class; a larger one needs
// several rounds to accumulate credit.
const quantum = 1500

// Defaults for zero-valued Config fields.
const (
	// DefaultQueueBytes caps each class queue when Config.QueueBytes is
	// zero. One MiB is ~1 s of a 1 MB/s link — past that, queueing delay
	// exceeds any interactive budget and dropping beats waiting.
	DefaultQueueBytes = 1 << 20
	// DefaultLowWatermark / DefaultHighWatermark are the queue-depth
	// fractions (of the byte cap) that bound the congestion hysteresis
	// band when Config leaves them zero. High sits well under 1.0 so a
	// Hot signal fires while there is still headroom to react before the
	// cap starts dropping from the tail.
	DefaultLowWatermark  = 0.25
	DefaultHighWatermark = 0.75
)

// QueueState classifies one class queue's depth against the configured
// watermarks — the raw signal of the congestion-feedback plane. The
// state machine is hysteretic: a queue turns Hot crossing the high
// watermark, but only cools back through Warm after falling below the
// low one, so a queue oscillating around one threshold does not spray
// transitions.
type QueueState uint8

const (
	// QueueClear: shallow backlog, senders may speed up.
	QueueClear QueueState = iota
	// QueueWarm: backlog building past the low watermark.
	QueueWarm
	// QueueHot: backlog past the high watermark — tail-drops are
	// imminent; senders should back off NOW.
	QueueHot
)

// String implements fmt.Stringer.
func (s QueueState) String() string {
	switch s {
	case QueueClear:
		return "clear"
	case QueueWarm:
		return "warm"
	case QueueHot:
		return "hot"
	default:
		return "queuestate(?)"
	}
}

// Config tunes one egress scheduler. The zero value (nil Weights)
// disables scheduling entirely: the hosting data plane bypasses the
// scheduler and sends FIFO, byte-for-byte the legacy behavior.
type Config struct {
	// Weights maps each service class to its DRR weight — the class's
	// relative share of link bytes under contention (work-conserving: an
	// idle class's share flows to the backlogged ones). Classes absent
	// from a non-nil map get weight 1; values below 1 are clamped to 1.
	// Nil disables egress scheduling.
	Weights map[core.Service]int
	// QueueBytes caps each class queue in bytes; an arrival that would
	// push a non-empty queue past the cap is dropped from the tail and
	// accounted per class (the hosting runtime surfaces the drop to the
	// owning flow). An empty queue always admits one packet, so the cap
	// bounds backlog without blackholing oversized messages. Zero means
	// DefaultQueueBytes; negative means unbounded.
	QueueBytes int64
	// LowWatermark / HighWatermark position the congestion-detection
	// band as fractions of the per-queue byte cap (an unbounded queue
	// uses DefaultQueueBytes as the basis). A class queue flips Hot at
	// the high watermark and cools back off below the low one (full
	// hysteresis; see QueueState). Zeros mean DefaultLowWatermark /
	// DefaultHighWatermark; values are clamped into (0, 1] with
	// low < high.
	LowWatermark  float64
	HighWatermark float64
	// PerFlowQueues keys the sub-queues of each class's nested deficit
	// round-robin by flow, so sibling flows of the same class share the
	// class's bytes fairly — one bulk flow cannot starve its tenant-mates
	// out of their common class. Each flow's sub-queue gets one quantum of
	// credit per flow-level round (flows are equal within a class; the
	// class weights arbitrate BETWEEN classes), and on class byte-cap
	// overflow the LONGEST sub-queue loses its tail instead of the arrival
	// being rejected (see DRR.OnVictimDrop), so a polite flow's packet is
	// never the one dropped for a greedy sibling's backlog. Sub-queue state
	// exists only while a flow has packets queued — a drained sub-queue is
	// recycled immediately, and the steady-state path stays
	// allocation-free (BenchmarkSubqueueEnqueueDequeue). Off (the default),
	// a class's arrivals all join one sub-queue: the class drains in
	// arrival order, and an arrival past the byte cap is the one dropped.
	PerFlowQueues bool
}

// Enabled reports whether the config turns scheduling on.
func (c Config) Enabled() bool { return c.Weights != nil }

// WeightOf returns the effective DRR weight of a class under this
// config: listed weights clamp up to 1, absent classes get 1 — exactly
// New's defaulting, exported so admission sizing prices the same shares
// the scheduler enforces.
func (c Config) WeightOf(class core.Service) int64 {
	if w, ok := c.Weights[class]; ok && w > 1 {
		return int64(w)
	}
	return 1
}

// TotalWeight sums the effective weights of all classes, the Internet
// queue included (it exists in the DRR — a relayed best-effort packet
// can transit a DC).
func (c Config) TotalWeight() int64 {
	var t int64
	for i := 0; i < NumClasses; i++ {
		t += c.WeightOf(core.Service(i))
	}
	return t
}

// ContendedWeight sums the effective weights of the classes that can
// actually sustain backlog at a DC egress — the cloud service classes.
// The Internet queue idles in steady state (Internet-service flows
// send no cloud copies), and work-conservation redistributes its
// share, so admission sizing divides by THIS sum: using TotalWeight
// would understate every class's guaranteed share and reject
// honorable contracts.
func (c Config) ContendedWeight() int64 {
	return c.TotalWeight() - c.WeightOf(core.ServiceInternet)
}

// EffectiveQueueBytes returns the per-class byte cap after defaulting:
// QueueBytes, DefaultQueueBytes for zero, or -1 for a negative
// (unbounded) configuration.
func (c Config) EffectiveQueueBytes() int64 {
	switch {
	case c.QueueBytes > 0:
		return c.QueueBytes
	case c.QueueBytes < 0:
		return -1
	default:
		return DefaultQueueBytes
	}
}

// Item is one scheduled message: the marshaled bytes plus the metadata
// the hosting runtime needs to account its departure (class) and to
// attribute drops (flow; 0 when the packet carries no single flow).
// Stamp is the caller's enqueue timestamp (EnqueueStamped), carried
// through to Dequeue so the runtime can attribute queue wait without a
// side table.
type Item struct {
	Class core.Service
	Flow  core.FlowID
	Msg   []byte
	Stamp core.Time
}

// ClassStats counts one class queue's activity. Its JSON tags, and
// Stats', are the telemetry snapshot's keys.
type ClassStats struct {
	EnqueuedBytes   uint64 `json:"enqueued_bytes"`
	EnqueuedPackets uint64 `json:"enqueued_packets"`
	DequeuedBytes   uint64 `json:"dequeued_bytes"`
	DequeuedPackets uint64 `json:"dequeued_packets"`
	DroppedBytes    uint64 `json:"dropped_bytes"`
	DroppedPackets  uint64 `json:"dropped_packets"`
	// QueuedBytes / QueuedPackets are the live queue depth.
	QueuedBytes   int64 `json:"queued_bytes"`
	QueuedPackets int   `json:"queued_packets"`
	// State is the queue's current congestion classification against the
	// watermarks (0 clear, 1 warm, 2 hot); StateChanges counts its
	// transitions.
	State        QueueState `json:"state"`
	StateChanges uint64     `json:"state_changes"`
	// FlowQueues is the live per-flow sub-queue count (0 unless
	// Config.PerFlowQueues: a class's one sub-queue is no flow's own);
	// VictimDrops counts packets dropped from the longest sub-queue's tail
	// to admit another flow's arrival (a subset of DroppedPackets).
	FlowQueues  int    `json:"flow_queues,omitempty"`
	VictimDrops uint64 `json:"victim_drops,omitempty"`
}

// Stats is a scheduler snapshot: per-class counters plus totals.
type Stats struct {
	PerClass [NumClasses]ClassStats `json:"per_class"`
	// Rounds counts deficit-credit grants — how often the round-robin
	// visited a backlogged class and topped up its deficit.
	Rounds uint64 `json:"rounds"`
	// QueuedBytes / QueuedPackets total the live backlog across classes.
	QueuedBytes   int64 `json:"queued_bytes"`
	QueuedPackets int   `json:"queued_packets"`
}

// flowQ is one sub-queue inside a class: its own FIFO plus the flow-level
// DRR bookkeeping. Instances are recycled through a per-class free list the
// moment they drain, so churning flows reuse rings (and their grown backing
// arrays) instead of allocating.
type flowQ struct {
	flow     core.FlowID // the sub-queue's key (see DRR.perFlow)
	q        ring.Ring[Item]
	bytes    int64
	deficit  int64
	credited bool
}

// classFlows is one class's flow-level round-robin: the active
// (non-empty) sub-queues in service order, an index by flow, and the
// free list.
type classFlows struct {
	active []*flowQ
	rr     int // next sub-queue to visit
	idx    map[core.FlowID]*flowQ
	free   []*flowQ
}

// remove retires the drained sub-queue at active[i], preserving the
// round-robin position of the remaining flows.
func (cf *classFlows) remove(i int) {
	fq := cf.active[i]
	copy(cf.active[i:], cf.active[i+1:])
	cf.active[len(cf.active)-1] = nil
	cf.active = cf.active[:len(cf.active)-1]
	if cf.rr > i {
		cf.rr--
	}
	if cf.rr >= len(cf.active) {
		cf.rr = 0
	}
	delete(cf.idx, fq.flow)
	fq.flow, fq.bytes, fq.deficit, fq.credited = 0, 0, 0, false
	cf.free = append(cf.free, fq)
}

// DRR is one egress link's deficit-round-robin scheduler. Not safe for
// concurrent use — the hosting runtime is single-threaded (the emulator)
// or serializes per link.
type DRR struct {
	weights [NumClasses]int64
	cap     int64 // per-queue byte cap; <0 unbounded
	// low / high are the watermark thresholds in bytes (see QueueState);
	// state holds each class queue's current classification.
	low, high int64
	state     [NumClasses]QueueState

	// OnStateChange, when set, fires on every watermark transition of a
	// class queue with the new state and the depth that caused it. It is
	// called from inside EnqueueStamped/Dequeue on the egress hot path: keep it
	// allocation-free and do not call back into the scheduler.
	OnStateChange func(class core.Service, st QueueState, depth int64)

	// OnVictimDrop, when set, fires for every packet dropped from the
	// longest sub-queue's tail to make room for another flow's arrival
	// (Config.PerFlowQueues only) — the hosting runtime attributes the
	// drop to the VICTIM flow, which is not the flow EnqueueStamped was called
	// for. Same hot-path rules as OnStateChange.
	OnVictimDrop func(class core.Service, flow core.FlowID, size int64)

	// perFlow keys each class's sub-queues by flow; without it a class's
	// arrivals all join one sub-queue, under key 0.
	perFlow bool
	flows   [NumClasses]classFlows

	deficit [NumClasses]int64
	// credited marks classes already granted their deficit for the
	// current visit; it resets when the round-robin moves on, so a class
	// revisited in a later round accumulates credit toward a packet
	// larger than one grant.
	credited [NumClasses]bool
	cur      int

	stats Stats
}

// New builds a scheduler from cfg (see Config for defaulting rules).
// Callers should only construct one when cfg.Enabled().
func New(cfg Config) *DRR {
	s := &DRR{cap: DefaultQueueBytes, perFlow: cfg.PerFlowQueues}
	for i := range s.flows {
		s.flows[i].idx = make(map[core.FlowID]*flowQ)
	}
	switch {
	case cfg.QueueBytes > 0:
		s.cap = cfg.QueueBytes
	case cfg.QueueBytes < 0:
		s.cap = -1
	}
	for i := range s.weights {
		s.weights[i] = cfg.WeightOf(core.Service(i))
	}
	// Watermarks are sized off the byte cap (an unbounded queue still
	// signals, using the default cap as its basis — depth past ~1 MiB is
	// congestion whether or not anything ever drops).
	basis := s.cap
	if basis < 0 {
		basis = DefaultQueueBytes
	}
	lw, hw := cfg.LowWatermark, cfg.HighWatermark
	if lw <= 0 {
		lw = DefaultLowWatermark
	}
	if hw <= 0 {
		hw = DefaultHighWatermark
	}
	if hw > 1 {
		hw = 1
	}
	if lw >= hw {
		lw = hw / 2
	}
	s.low = int64(lw * float64(basis))
	if s.low < 1 {
		s.low = 1
	}
	s.high = int64(hw * float64(basis))
	if s.high <= s.low {
		s.high = s.low + 1
	}
	return s
}

// nextQueueState advances the hysteretic watermark state machine for a
// queue at the given depth. An empty queue is always Clear; heating
// crosses low then high; cooling from Hot requires falling below LOW
// (not merely high), and Warm only clears below half the low watermark.
func nextQueueState(cur QueueState, depth, low, high int64) QueueState {
	if depth <= 0 {
		return QueueClear
	}
	switch cur {
	case QueueHot:
		if depth <= low {
			return QueueWarm
		}
		return QueueHot
	case QueueWarm:
		if depth >= high {
			return QueueHot
		}
		if depth <= low/2 {
			return QueueClear
		}
		return QueueWarm
	default:
		if depth >= high {
			return QueueHot
		}
		if depth >= low {
			return QueueWarm
		}
		return QueueClear
	}
}

// noteDepth re-classifies one class queue after a depth change and
// surfaces the transition, if any. Allocation-free: a state compare per
// enqueue/dequeue, and the callback only on actual flips.
func (s *DRR) noteDepth(class core.Service) {
	c := &s.stats.PerClass[class]
	next := nextQueueState(s.state[class], c.QueuedBytes, s.low, s.high)
	if next == s.state[class] {
		return
	}
	s.state[class] = next
	c.State = next
	c.StateChanges++
	if s.OnStateChange != nil {
		s.OnStateChange(class, next, c.QueuedBytes)
	}
}

// State returns a class queue's current watermark classification.
func (s *DRR) State(class core.Service) QueueState {
	if int(class) >= NumClasses {
		return QueueClear
	}
	return s.state[class]
}

// EnqueueStamped offers one marshaled message to its class queue. It reports
// whether the message was accepted; false means the class queue's byte
// cap rejected it (drop-from-tail — the arrival drops, queued packets
// keep their place) and the caller should surface the drop to the
// owning flow. An empty queue always admits, whatever the cap: the cap
// bounds BACKLOG, and rejecting a packet larger than the cap outright
// would blackhole it forever even on an idle link. Messages of unknown
// classes are rejected too, so a corrupt class index can never scribble
// past the queue array.
//
// Under Config.PerFlowQueues an over-cap arrival first tries to reclaim
// room from the LONGEST sibling sub-queue's tail (surfaced through
// OnVictimDrop); the arrival itself is only rejected when its own flow
// holds the longest backlog — the greedy flow pays for its own
// pressure, never a polite sibling.
//
// stamp is the caller's clock reading, carried through to the dequeued
// Item (Item.Stamp): the hop-attribution layer computes queue wait as
// dequeue time minus it.
func (s *DRR) EnqueueStamped(class core.Service, flow core.FlowID, msg []byte, stamp core.Time) bool {
	if int(class) >= NumClasses {
		return false
	}
	c := &s.stats.PerClass[class]
	size := int64(len(msg))
	var key core.FlowID
	if s.perFlow {
		key = flow
	}
	if s.cap >= 0 && c.QueuedPackets > 0 && c.QueuedBytes+size > s.cap && !s.evictFor(class, key, size) {
		c.DroppedBytes += uint64(size)
		c.DroppedPackets++
		return false
	}
	cf := &s.flows[class]
	fq, ok := cf.idx[key]
	if !ok {
		if n := len(cf.free); n > 0 {
			fq = cf.free[n-1]
			cf.free[n-1] = nil
			cf.free = cf.free[:n-1]
		} else {
			fq = &flowQ{}
		}
		fq.flow = key
		cf.idx[key] = fq
		cf.active = append(cf.active, fq)
	}
	fq.q.Push(Item{Class: class, Flow: flow, Msg: msg, Stamp: stamp})
	fq.bytes += size
	c.EnqueuedBytes += uint64(size)
	c.EnqueuedPackets++
	c.QueuedBytes += size
	c.QueuedPackets++
	s.stats.QueuedBytes += size
	s.stats.QueuedPackets++
	s.noteDepth(class)
	return true
}

// evictFor reclaims room for a size-byte arrival for sub-queue key by
// dropping packets from the tail of the longest sub-queue in the class. It
// returns false — nothing more reclaimed, caller rejects the arrival —
// as soon as the ARRIVING sub-queue itself holds the longest backlog: the
// fair victim is then the arrival. That is always so for a class's one
// sub-queue without Config.PerFlowQueues, where the byte cap alone rules.
// Victim selection is deterministic (first-longest in round-robin order).
func (s *DRR) evictFor(class core.Service, key core.FlowID, size int64) bool {
	c := &s.stats.PerClass[class]
	cf := &s.flows[class]
	for c.QueuedBytes+size > s.cap {
		vi := -1
		for i, fq := range cf.active {
			if vi < 0 || fq.bytes > cf.active[vi].bytes {
				vi = i
			}
		}
		if vi < 0 || cf.active[vi].flow == key {
			return false
		}
		fq := cf.active[vi]
		// The most recent arrival goes: the packet that has waited least,
		// so what already queued still leaves in order.
		it := fq.q.PopBack()
		vsize := int64(len(it.Msg))
		fq.bytes -= vsize
		c.DroppedBytes += uint64(vsize)
		c.DroppedPackets++
		c.VictimDrops++
		c.QueuedBytes -= vsize
		c.QueuedPackets--
		s.stats.QueuedBytes -= vsize
		s.stats.QueuedPackets--
		if fq.q.Len() == 0 {
			cf.remove(vi)
		}
		if s.OnVictimDrop != nil {
			s.OnVictimDrop(class, it.Flow, vsize)
		}
	}
	return true
}

// Dequeue releases the next message under the DRR discipline: the
// round-robin grants each backlogged class quantum×weight bytes of
// deficit per visit and drains packets while the head fits the credit.
// The class's head packet is chosen by a nested flow-level DRR — each
// sub-queue earns one quantum per flow-round, so sibling flows split the
// class's bytes evenly however unevenly they arrive (Config.PerFlowQueues;
// otherwise the class has one sub-queue and drains in arrival order).
// Work-conserving — it returns a message whenever any queue is
// backlogged — and ok=false only when every queue is empty.
func (s *DRR) Dequeue() (Item, bool) {
	if s.stats.QueuedPackets == 0 {
		return Item{}, false
	}
	for {
		c := &s.stats.PerClass[s.cur]
		if c.QueuedPackets == 0 {
			// An emptied class forfeits unused credit — deficit must not
			// accumulate while idle, or a long-quiet class would burst
			// far past its share on return.
			s.deficit[s.cur] = 0
			s.credited[s.cur] = false
			s.cur = (s.cur + 1) % NumClasses
			continue
		}
		if !s.credited[s.cur] {
			s.deficit[s.cur] += quantum * s.weights[s.cur]
			s.credited[s.cur] = true
			s.stats.Rounds++
		}
		// Flow-level DRR selects the fair head: visit sub-queues
		// round-robin, granting one quantum per visit, until one's head
		// fits its credit. Terminates — credit accumulates across
		// visits, exactly like the class level.
		cf := &s.flows[s.cur]
		var fq *flowQ
		var size int64
		for {
			fq = cf.active[cf.rr]
			if !fq.credited {
				fq.deficit += quantum
				fq.credited = true
			}
			size = int64(len(fq.q.At(0).Msg))
			if size <= fq.deficit {
				break
			}
			fq.credited = false
			cf.rr = (cf.rr + 1) % len(cf.active)
		}
		if size > s.deficit[s.cur] {
			// Head larger than the class's accumulated credit: move on;
			// the next visit grants more (credited resets so the grant
			// repeats).
			s.credited[s.cur] = false
			s.cur = (s.cur + 1) % NumClasses
			continue
		}
		s.deficit[s.cur] -= size
		fq.deficit -= size
		it := fq.q.PopFront()
		fq.bytes -= size
		c.DequeuedBytes += uint64(size)
		c.DequeuedPackets++
		c.QueuedBytes -= size
		c.QueuedPackets--
		s.stats.QueuedBytes -= size
		s.stats.QueuedPackets--
		if fq.q.Len() == 0 {
			cf.remove(cf.rr)
		}
		if c.QueuedPackets == 0 {
			s.deficit[s.cur] = 0
			s.credited[s.cur] = false
			s.cur = (s.cur + 1) % NumClasses
		}
		s.noteDepth(it.Class)
		return it, true
	}
}

// Len returns the total queued packet count.
func (s *DRR) Len() int { return s.stats.QueuedPackets }

// Stats returns a snapshot of the counters.
func (s *DRR) Stats() Stats {
	st := s.stats
	if s.perFlow {
		for i := range st.PerClass {
			st.PerClass[i].FlowQueues = len(s.flows[i].active)
		}
	}
	return st
}
