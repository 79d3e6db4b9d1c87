package telemetry

import (
	"fmt"
	"sort"
	"time"

	"jqos/internal/core"
)

// SpanComponent names one slice of a traced packet's latency budget. The
// components partition the end-to-end delivery latency: every traced
// choke point charges its wait to exactly one component, and the
// correlator assigns whatever remains to SpanRelay, so the components of
// a finished HopRecord sum exactly to its Total.
type SpanComponent uint8

const (
	// SpanQueue is DRR egress queue wait, enqueue→dequeue, summed over
	// every scheduled hop (the per-(link, class) breakdown is kept
	// alongside in HopRecord.Queues).
	SpanQueue SpanComponent = iota
	// SpanPropagation is wire time: the sum over hops of departure→
	// arrival, including the final DC→host leg.
	SpanPropagation
	// SpanRelay is DC processing: the remainder after every measured
	// component, clamped at zero.
	SpanRelay
	// SpanRecovery is loss-repair time (core.Delivery.RecoveryDelay) for
	// recovered deliveries.
	SpanRecovery

	// NumSpanComponents sizes per-component arrays.
	NumSpanComponents = int(SpanRecovery) + 1
)

// String implements fmt.Stringer.
func (c SpanComponent) String() string {
	switch c {
	case SpanQueue:
		return "queue"
	case SpanPropagation:
		return "propagation"
	case SpanRelay:
		return "relay"
	case SpanRecovery:
		return "recovery"
	default:
		return fmt.Sprintf("component(%d)", uint8(c))
	}
}

// MaxHopQueues bounds the per-(link, class) queue waits a HopRecord
// keeps individually; deeper paths fold the overflow into the last slot
// (SpanQueue still carries the full sum).
const MaxHopQueues = 4

// QueueSpan is one egress scheduler wait on a traced packet's path.
type QueueSpan struct {
	From  core.NodeID   `json:"from"`
	To    core.NodeID   `json:"to"`
	Class core.Service  `json:"class"`
	Wait  time.Duration `json:"wait"`
}

// HopRecord is one delivery's correlated latency attribution: where the
// packet's budget was spent, component by component. It is a fixed-size
// value type (no heap references), so recording one into the
// late-delivery reservoir allocates nothing. Records for deliveries
// whose cloud copy was not sampled carry only the identity, timing, and
// budget fields — the components stay zero.
type HopRecord struct {
	Flow core.FlowID `json:"flow"`
	Seq  core.Seq    `json:"seq"`
	// SentAt/DeliveredAt are SIMULATED times; Total their difference.
	SentAt      time.Duration `json:"sent_at"`
	DeliveredAt time.Duration `json:"delivered_at"`
	Total       time.Duration `json:"total"`
	Budget      time.Duration `json:"budget,omitempty"`
	// Via is the service that produced the delivery; Sampled reports
	// whether the cloud copy carried the trace tag (components valid).
	Via     core.Service `json:"via"`
	Sampled bool         `json:"sampled"`
	// Comp is the per-component spend; for sampled overlay deliveries
	// the components sum exactly to Total (SpanRelay absorbs the
	// remainder). Queues breaks SpanQueue down per (link, class).
	Comp    [NumSpanComponents]time.Duration `json:"comp"`
	Queues  [MaxHopQueues]QueueSpan          `json:"queues"`
	NQueues int                              `json:"n_queues"`
}

// Late reports whether the delivery missed its budget.
func (h *HopRecord) Late() bool { return h.Budget > 0 && h.Total > h.Budget }

// Excess returns how far past the budget the delivery landed (0 when on
// time or unbudgeted).
func (h *HopRecord) Excess() time.Duration {
	if !h.Late() {
		return 0
	}
	return h.Total - h.Budget
}

// Spend-profile histogram buckets (upper bounds per component duration;
// the last bucket is the overflow). Fixed so observing is allocation-free.
var spendBounds = [...]time.Duration{
	time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond,
}

// NumSpendBuckets is the spend-histogram bucket count (bounds + overflow).
const NumSpendBuckets = len(spendBounds) + 1

// SpendBucketBounds returns the histogram's upper bounds (the final
// overflow bucket has none).
func SpendBucketBounds() []time.Duration { return append([]time.Duration(nil), spendBounds[:]...) }

func spendBucket(d time.Duration) int {
	for i, b := range spendBounds {
		if d <= b {
			return i
		}
	}
	return NumSpendBuckets - 1
}

// SpendProfile is one flow's aggregated budget spend: per-component
// totals and fixed-bucket histograms over its sampled deliveries, split
// into all-delivery and late-delivery views. The headline ratio —
// "flow 7 is late because 83% of its budget is queue wait" — is
// LateNs[SpanQueue] / LateExcessNs-and-budget arithmetic on this.
type SpendProfile struct {
	// Samples counts finished sampled deliveries; Late those past budget.
	Samples uint64 `json:"samples"`
	Late    uint64 `json:"late"`
	// Ns / LateNs total each component's spend in nanoseconds over all /
	// late sampled deliveries.
	Ns     [NumSpanComponents]int64 `json:"ns"`
	LateNs [NumSpanComponents]int64 `json:"late_ns"`
	// LateExcessNs sums (Total − Budget) over late sampled deliveries —
	// the denominator attribution shares are judged against.
	LateExcessNs int64 `json:"late_excess_ns"`
	// Buckets histograms each component's per-delivery spend.
	Buckets [NumSpanComponents][NumSpendBuckets]uint64 `json:"buckets"`
}

func (p *SpendProfile) observe(h *HopRecord) {
	p.Samples++
	late := h.Late()
	if late {
		p.Late++
		p.LateExcessNs += int64(h.Excess())
	}
	for c := 0; c < NumSpanComponents; c++ {
		d := h.Comp[c]
		p.Ns[c] += int64(d)
		if late {
			p.LateNs[c] += int64(d)
		}
		p.Buckets[c][spendBucket(d)]++
	}
}

// Share returns component c's fraction of the profile's total spend
// (0 with no samples).
func (p *SpendProfile) Share(c SpanComponent) float64 {
	var sum int64
	for i := 0; i < NumSpanComponents; i++ {
		sum += p.Ns[i]
	}
	if sum <= 0 {
		return 0
	}
	return float64(p.Ns[c]) / float64(sum)
}

// LateShare returns component c's fraction of the spend over LATE
// deliveries only.
func (p *SpendProfile) LateShare(c SpanComponent) float64 {
	var sum int64
	for i := 0; i < NumSpanComponents; i++ {
		sum += p.LateNs[i]
	}
	if sum <= 0 {
		return 0
	}
	return float64(p.LateNs[c]) / float64(sum)
}

// QueueKey names one directed egress class queue.
type QueueKey struct {
	From  core.NodeID  `json:"from"`
	To    core.NodeID  `json:"to"`
	Class core.Service `json:"class"`
}

// QueueSpend aggregates sampled queue waits for one (link, class).
type QueueSpend struct {
	Samples uint64 `json:"samples"`
	Late    uint64 `json:"late"` // waits belonging to late deliveries
	// WaitNs / LateWaitNs total the queue's wait contribution in
	// nanoseconds over all / late sampled deliveries.
	WaitNs     int64                   `json:"wait_ns"`
	LateWaitNs int64                   `json:"late_wait_ns"`
	Buckets    [NumSpendBuckets]uint64 `json:"buckets"`
}

// pendingSpan is one in-flight traced packet's accumulating spans.
type pendingSpan struct {
	id      core.PacketID
	sentAt  time.Duration
	txAt    time.Duration
	txValid bool
	comp    [NumSpanComponents]time.Duration
	queues  [MaxHopQueues]QueueSpan
	nq      int
}

// spanTableCap bounds concurrently in-flight traced packets; the oldest
// pending trace is evicted (and counted) when a new Begin needs a slot.
const spanTableCap = 1024

// lateReservoirCap sizes the always-on late-delivery reservoir.
const lateReservoirCap = 64

// SpanCollector correlates per-choke-point spans into HopRecords and
// aggregates them into budget spend profiles. It is owned by the
// simulator goroutine — no locks — and preallocates everything on first
// use, so the per-packet paths allocate nothing in steady state. The
// untraced fast path is Pending() == 0, one integer compare.
type SpanCollector struct {
	slots []pendingSpan
	free  []int32
	idx   map[core.PacketID]int32
	// FIFO eviction ring over live ids (lazily cleaned: entries whose id
	// already finished are skipped on pop).
	order []core.PacketID
	head  int
	olen  int
	live  int

	traced   uint64
	finished uint64
	dropped  uint64
	evicted  uint64

	flows  map[core.FlowID]*SpendProfile
	queues map[QueueKey]*QueueSpend

	// Always-on reservoir of the most recent budget-violating
	// deliveries, sampled or not (value writes — 0 allocs).
	resv     [lateReservoirCap]HopRecord
	resvHead int
	resvLen  int
	lateSeen uint64
}

// NewSpanCollector creates an empty collector; the pending table is
// allocated on the first Begin.
func NewSpanCollector() *SpanCollector { return &SpanCollector{} }

// Pending returns the number of in-flight traced packets — the hot
// paths' "anything to do?" guard.
func (c *SpanCollector) Pending() int { return c.live }

// Traced / Finished / Dropped / Evicted return lifetime counters.
func (c *SpanCollector) Traced() uint64   { return c.traced }
func (c *SpanCollector) Finished() uint64 { return c.finished }
func (c *SpanCollector) Dropped() uint64  { return c.dropped }
func (c *SpanCollector) Evicted() uint64  { return c.evicted }

// Begin opens a trace for packet id sent at the given simulated time.
func (c *SpanCollector) Begin(id core.PacketID, at time.Duration) {
	if c.slots == nil {
		c.slots = make([]pendingSpan, spanTableCap)
		c.free = make([]int32, 0, spanTableCap)
		for i := spanTableCap - 1; i >= 0; i-- {
			c.free = append(c.free, int32(i))
		}
		c.idx = make(map[core.PacketID]int32, spanTableCap)
		c.order = make([]core.PacketID, spanTableCap)
	}
	if old, ok := c.idx[id]; ok {
		// Re-begun identity (sender reuse): restart the trace in place.
		c.slots[old] = pendingSpan{id: id, sentAt: at}
		c.traced++
		return
	}
	// Make room: pop stale ring heads, evicting the oldest live trace
	// when the ring is genuinely full.
	for c.olen == len(c.order) {
		victim := c.order[c.head]
		c.head = (c.head + 1) % len(c.order)
		c.olen--
		if si, ok := c.idx[victim]; ok && c.slots[si].id == victim {
			c.remove(victim, si)
			c.evicted++
		}
	}
	si := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.slots[si] = pendingSpan{id: id, sentAt: at}
	c.idx[id] = si
	c.order[(c.head+c.olen)%len(c.order)] = id
	c.olen++
	c.live++
	c.traced++
}

func (c *SpanCollector) remove(id core.PacketID, si int32) {
	delete(c.idx, id)
	c.free = append(c.free, si)
	c.live--
}

func (c *SpanCollector) lookup(id core.PacketID) *pendingSpan {
	si, ok := c.idx[id]
	if !ok {
		return nil
	}
	return &c.slots[si]
}

// NoteTx marks a wire departure (host uplink or DC egress).
func (c *SpanCollector) NoteTx(id core.PacketID, at time.Duration) {
	if p := c.lookup(id); p != nil {
		p.txAt, p.txValid = at, true
	}
}

// NoteRx marks a wire arrival at a DC, closing the open departure into
// propagation time.
func (c *SpanCollector) NoteRx(id core.PacketID, at time.Duration) {
	p := c.lookup(id)
	if p == nil || !p.txValid {
		return
	}
	if d := at - p.txAt; d > 0 {
		p.comp[SpanPropagation] += d
	}
	p.txValid = false
}

// NoteQueue charges one egress scheduler wait (enqueue→dequeue) on the
// directed (from, to) link for the given class.
func (c *SpanCollector) NoteQueue(id core.PacketID, from, to core.NodeID, class core.Service, wait time.Duration) {
	p := c.lookup(id)
	if p == nil || wait < 0 {
		return
	}
	p.comp[SpanQueue] += wait
	if p.nq < MaxHopQueues {
		p.queues[p.nq] = QueueSpan{From: from, To: to, Class: class, Wait: wait}
		p.nq++
	} else {
		// Deeper paths fold overflow into the last slot.
		p.queues[MaxHopQueues-1].Wait += wait
	}
}

// Drop abandons a trace whose packet was dropped before delivery.
func (c *SpanCollector) Drop(id core.PacketID) {
	si, ok := c.idx[id]
	if !ok {
		return
	}
	c.remove(id, si)
	c.dropped++
}

// Finish closes a trace on delivery: the open wire leg becomes the
// propagation tail, RecoveryDelay becomes SpanRecovery, and the
// remainder after every measured component becomes SpanRelay — so the
// components sum exactly to Total. The finished record feeds the per-
// flow and per-(link, class) spend aggregates. ok is false when the
// packet was never traced (or its trace was already evicted).
func (c *SpanCollector) Finish(id core.PacketID, deliveredAt, recovery, budget time.Duration, via core.Service) (HopRecord, bool) {
	si, ok := c.idx[id]
	if !ok {
		return HopRecord{}, false
	}
	p := &c.slots[si]
	h := HopRecord{
		Flow: id.Flow, Seq: id.Seq,
		SentAt: p.sentAt, DeliveredAt: deliveredAt,
		Budget: budget, Via: via, Sampled: true,
		Comp: p.comp, Queues: p.queues, NQueues: p.nq,
	}
	h.Total = deliveredAt - p.sentAt
	if h.Total < 0 {
		h.Total = 0
	}
	if recovery > 0 {
		h.Comp[SpanRecovery] += recovery
	}
	if p.txValid {
		// The final wire leg (last DC → receiving host) never saw a DC
		// arrival; it is propagation, minus any recovery delay already
		// charged to SpanRecovery.
		if tail := deliveredAt - p.txAt - recovery; tail > 0 {
			h.Comp[SpanPropagation] += tail
		}
	}
	var measured time.Duration
	for comp, d := range h.Comp {
		if SpanComponent(comp) != SpanRelay {
			measured += d
		}
	}
	if rest := h.Total - measured; rest > 0 {
		h.Comp[SpanRelay] = rest
	} else {
		h.Comp[SpanRelay] = 0
	}
	c.remove(id, si)
	c.finished++
	c.aggregate(&h)
	return h, true
}

// aggregate folds one finished record into the spend profiles.
func (c *SpanCollector) aggregate(h *HopRecord) {
	if c.flows == nil {
		c.flows = make(map[core.FlowID]*SpendProfile)
		c.queues = make(map[QueueKey]*QueueSpend)
	}
	fp := c.flows[h.Flow]
	if fp == nil {
		fp = &SpendProfile{}
		c.flows[h.Flow] = fp
	}
	fp.observe(h)
	late := h.Late()
	for i := 0; i < h.NQueues; i++ {
		qs := h.Queues[i]
		k := QueueKey{From: qs.From, To: qs.To, Class: qs.Class}
		q := c.queues[k]
		if q == nil {
			q = &QueueSpend{}
			c.queues[k] = q
		}
		q.Samples++
		q.WaitNs += int64(qs.Wait)
		if late {
			q.Late++
			q.LateWaitNs += int64(qs.Wait)
		}
		q.Buckets[spendBucket(qs.Wait)]++
	}
}

// NoteLate records one budget-violating delivery into the always-on
// reservoir (rec may be sampled or not). Value write — 0 allocs.
func (c *SpanCollector) NoteLate(rec HopRecord) {
	c.lateSeen++
	if c.resvLen < lateReservoirCap {
		c.resv[(c.resvHead+c.resvLen)%lateReservoirCap] = rec
		c.resvLen++
		return
	}
	c.resv[c.resvHead] = rec
	c.resvHead = (c.resvHead + 1) % lateReservoirCap
}

// LateSeen returns the lifetime count of budget-violating deliveries
// offered to the reservoir.
func (c *SpanCollector) LateSeen() uint64 { return c.lateSeen }

// Reservoir appends the buffered late-delivery records, oldest first.
func (c *SpanCollector) Reservoir(dst []HopRecord) []HopRecord {
	for i := 0; i < c.resvLen; i++ {
		dst = append(dst, c.resv[(c.resvHead+i)%lateReservoirCap])
	}
	return dst
}

// ForgetFlow drops a closed flow's spend profile (its queue
// contributions remain — link aggregates outlive flows).
func (c *SpanCollector) ForgetFlow(id core.FlowID) { delete(c.flows, id) }

// FlowSpendSnapshot is one flow's spend profile in a snapshot.
type FlowSpendSnapshot struct {
	Flow    core.FlowID  `json:"flow"`
	Profile SpendProfile `json:"profile"`
}

// QueueSpendSnapshot is one (link, class) queue-wait aggregate in a
// snapshot.
type QueueSpendSnapshot struct {
	Key   QueueKey   `json:"key"`
	Spend QueueSpend `json:"spend"`
}

// AttributionSnapshot is the hop-level latency attribution surface of
// one Snapshot: collector counters, per-flow budget spend profiles,
// per-(link, class) queue-wait aggregates, and the late-delivery
// reservoir.
type AttributionSnapshot struct {
	// Enabled reports whether any open flow samples traces.
	Enabled bool `json:"enabled"`
	// Traced / Finished / Dropped / Evicted / Pending count trace
	// lifecycles; LateDeliveries counts budget violations offered to the
	// reservoir (sampled or not).
	Traced         uint64 `json:"traced"`
	Finished       uint64 `json:"finished"`
	Dropped        uint64 `json:"dropped"`
	Evicted        uint64 `json:"evicted"`
	Pending        int    `json:"pending"`
	LateDeliveries uint64 `json:"late_deliveries"`
	// Flows / Queues are the spend aggregates in ascending key order.
	Flows  []FlowSpendSnapshot  `json:"flows,omitempty"`
	Queues []QueueSpendSnapshot `json:"queues,omitempty"`
	// Reservoir is the late-delivery ring, oldest first.
	Reservoir []HopRecord `json:"reservoir,omitempty"`
}

// Flow returns the spend profile for one flow; ok false when it never
// finished a sampled delivery.
func (a *AttributionSnapshot) Flow(id core.FlowID) (FlowSpendSnapshot, bool) {
	for i := range a.Flows {
		if a.Flows[i].Flow == id {
			return a.Flows[i], true
		}
	}
	return FlowSpendSnapshot{}, false
}

// Queue returns the queue-wait aggregate for one (from, to, class); ok
// false when no sampled delivery waited there.
func (a *AttributionSnapshot) Queue(from, to core.NodeID, class core.Service) (QueueSpendSnapshot, bool) {
	k := QueueKey{From: from, To: to, Class: class}
	for i := range a.Queues {
		if a.Queues[i].Key == k {
			return a.Queues[i], true
		}
	}
	return QueueSpendSnapshot{}, false
}

// Snapshot assembles the collector's current state into an immutable
// AttributionSnapshot: counters copied, aggregates deep-copied in
// deterministic ascending key order (flow ID; then (from, to, class)),
// reservoir oldest first. The caller sets Enabled — the collector does
// not know whether any flow samples.
func (c *SpanCollector) Snapshot() AttributionSnapshot {
	a := AttributionSnapshot{
		Traced:         c.traced,
		Finished:       c.finished,
		Dropped:        c.dropped,
		Evicted:        c.evicted,
		Pending:        c.live,
		LateDeliveries: c.lateSeen,
	}
	if len(c.flows) > 0 {
		a.Flows = make([]FlowSpendSnapshot, 0, len(c.flows))
		for id, p := range c.flows {
			a.Flows = append(a.Flows, FlowSpendSnapshot{Flow: id, Profile: *p})
		}
		sort.Slice(a.Flows, func(i, j int) bool { return a.Flows[i].Flow < a.Flows[j].Flow })
	}
	if len(c.queues) > 0 {
		a.Queues = make([]QueueSpendSnapshot, 0, len(c.queues))
		for k, q := range c.queues {
			a.Queues = append(a.Queues, QueueSpendSnapshot{Key: k, Spend: *q})
		}
		sort.Slice(a.Queues, func(i, j int) bool {
			ki, kj := a.Queues[i].Key, a.Queues[j].Key
			if ki.From != kj.From {
				return ki.From < kj.From
			}
			if ki.To != kj.To {
				return ki.To < kj.To
			}
			return ki.Class < kj.Class
		})
	}
	if c.resvLen > 0 {
		a.Reservoir = c.Reservoir(make([]HopRecord, 0, c.resvLen))
	}
	return a
}
