// Package coding implements CR-WAN, the J-QoS coding service (§4): the DC1
// encoder that batches concurrent user streams and emits in-stream and
// cross-stream Reed-Solomon parity over the inter-DC path, and the DC2
// recovery engine that answers receiver NACKs via cached parity and the
// cooperative recovery protocol (§4.4).
package coding

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"jqos/internal/core"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

// EncoderConfig carries the coding-plan parameters of §4.1–4.2.
type EncoderConfig struct {
	// K is the maximum number of flows combined in one cross-stream
	// batch (paper default k ≤ 10, deployment k = 6).
	K int
	// CrossParity is the number of cross-stream coded packets generated
	// per batch (r's numerator; paper default 2, for straggler
	// protection).
	CrossParity int
	// InBlock is the in-stream block size: one in-stream parity packet
	// per InBlock data packets of a flow (s = InParity/InBlock).
	// Zero disables in-stream coding (Skype case study runs s = 0).
	InBlock int
	// InParity is the number of parity packets per in-stream block
	// (usually 1).
	InParity int
	// CrossQueues is the number of concurrently open cross-stream
	// batches per destination DC (Algorithm 1's queue set).
	CrossQueues int
	// CrossTimeout bounds how long a cross-stream batch stays open
	// (the temporal constraint of §4.1).
	CrossTimeout core.Time
	// InTimeout bounds how long an in-stream block stays open.
	InTimeout core.Time
}

// DefaultEncoderConfig mirrors the PlanetLab deployment parameters
// (§6.2.1: r = 2/6, s = 1/5).
func DefaultEncoderConfig() EncoderConfig {
	return EncoderConfig{
		K:            6,
		CrossParity:  2,
		InBlock:      5,
		InParity:     1,
		CrossQueues:  4,
		CrossTimeout: 30e6, // 30ms in core.Time (nanoseconds)
		InTimeout:    50e6,
	}
}

func (c EncoderConfig) validate() error {
	if c.K < 1 || c.K > 200 {
		return fmt.Errorf("coding: K=%d out of range", c.K)
	}
	if c.CrossParity < 1 {
		return fmt.Errorf("coding: CrossParity=%d must be ≥1", c.CrossParity)
	}
	if c.InBlock < 0 || (c.InBlock > 0 && c.InParity < 1) {
		return fmt.Errorf("coding: in-stream config %d/%d invalid", c.InParity, c.InBlock)
	}
	if c.CrossQueues < 1 {
		return fmt.Errorf("coding: CrossQueues=%d must be ≥1", c.CrossQueues)
	}
	if c.CrossTimeout <= 0 || (c.InBlock > 0 && c.InTimeout <= 0) {
		return fmt.Errorf("coding: timeouts must be positive")
	}
	return nil
}

// Alpha returns the nominal coding overhead ratio r+s: cloud bytes per
// data byte.
func (c EncoderConfig) Alpha() float64 {
	a := float64(c.CrossParity) / float64(c.K)
	if c.InBlock > 0 {
		a += float64(c.InParity) / float64(c.InBlock)
	}
	return a
}

// EncoderStats counts the encoder's work.
type EncoderStats struct {
	DataPackets  uint64
	CrossBatches uint64
	InBatches    uint64
	CrossCoded   uint64
	InCoded      uint64
	Evicted      uint64 // single-flow queue clears (Algorithm 1 line 18)
	Oversize     uint64 // payloads too long to code, left to their direct path
	TimerFlushes uint64
	DataBytes    uint64
	CodedBytes   uint64
}

// Overhead returns observed coded/data byte ratio.
func (s EncoderStats) Overhead() float64 {
	if s.DataBytes == 0 {
		return 0
	}
	return float64(s.CodedBytes) / float64(s.DataBytes)
}

// srcPkt is one enqueued data packet. Its payload is the encoder's own
// copy, never written while queued: the in-stream and the cross-stream
// queue share it.
type srcPkt struct {
	ref  wire.SourceRef
	kept *kept
}

// kept is the encoder's copy of one queued payload. refs counts the queues
// holding it; when the last of them flushes, evicts or is forgotten, the
// buffer goes to the spare list for a later packet to be copied into.
type kept struct {
	payload []byte
	refs    int
}

// maxSpare bounds the encoder's spare list: enough for the packets after a
// batch closes to reuse what it freed; an idle encoder holds no more.
const maxSpare = 64

type inQueue struct {
	flow     core.FlowID
	dc2      core.NodeID
	pkts     []srcPkt
	deadline core.Time
}

type crossQueue struct {
	pkts     []srcPkt
	flows    map[core.FlowID]bool
	deadline core.Time
}

func (q *crossQueue) reset() {
	q.pkts = q.pkts[:0]
	for f := range q.flows {
		delete(q.flows, f)
	}
	q.deadline = 0
}

type crossSet struct {
	dc2 core.NodeID
	qs  []*crossQueue
}

// crossKey groups cross-stream batches: flows are coded together only
// when they share the egress DC (the spatial constraint) AND the path
// policy their parity should ride (policy-aware batching). A parity
// packet can only take one path, so a batch mixing a pinned flow with
// fastest-path flows would drag someone's parity off their policy;
// keying the queue set by (dc2, policy) keeps every batch
// policy-homogeneous and lets the batch's first source flow stand in
// for all of them at pinning time. policy is an opaque discriminator
// computed by the caller (0 = default fastest-path).
type crossKey struct {
	dc2    core.NodeID
	policy uint32
}

// Encoder is the DC1-side CR-WAN engine. It is a sans-IO state machine:
// feed it data packets and timer ticks, collect wire-encoded Emits bound
// for DC2. Not safe for concurrent use — the parallel pipeline (Figure 10)
// shards flows across independent Encoders instead of locking one. The
// Emits a call returns are the encoder's own buffer, valid until the next
// call into it; each message is a buffer drawn from the encoder's pool (see
// SetPool) that its recipient owns alone, and the DC that consumes it hands
// it back to that pool.
//
// The earliest open-queue deadline is kept cached (see earliest), so
// NextDeadline is a field read and OnTimer returns at once when nothing is
// due; the queues are rescanned only after the one holding that deadline
// closes.
//
// The byte path touches a payload once to keep it (OnData's copy, shared by
// both queues) and once per pair of parity rows to code it: when a batch
// closes, its coded messages are drawn from the pool at their final sizes and
// the codec writes the parity straight into their tails from the unpadded
// payloads (rs.Codec.EncodePacked). The copy lands in storage the encoder
// recycles: a payload no queue holds any more goes to a bounded spare list
// (see kept), so an OnData that closes no batch allocates nothing, and one
// that closes a batch allocates only what its pool cannot supply: R
// messages with no pool, none once the DC2s hand parity back.
type Encoder struct {
	cfg  EncoderConfig
	self core.NodeID

	// inQs holds the in-stream queues in ascending flow order, so queues
	// expiring in the same instant flush (and their parity draws link
	// jitter and loss) in a fixed order rather than a map's.
	inQs []*inQueue
	// cross is keyed by (dc2, path policy); crossKeys mirrors it in
	// ascending (dc2, policy) order so timer flushes emit
	// deterministically however many sets are live.
	cross     map[crossKey]*crossSet
	crossKeys []crossKey
	rrIdx     map[core.FlowID]int
	codecs    *rs.Cache

	// Per-batch scratch, reused across encodeBatch calls: nothing keeps
	// these past the marshal and the encode.
	payloads [][]byte
	sources  []wire.SourceRef
	parity   [][]byte
	emits    []core.Emit // the coded messages of the call in progress

	spare []*kept    // payload copies no queue holds, at most maxSpare
	pool  *wire.Pool // what coded messages are drawn from; nil allocates

	// earliest is the soonest deadline among open queues, 0 when none is
	// open. A queue opening can only lower it; when a queue that may hold
	// it closes, rescan is set and NextDeadline recomputes it.
	earliest core.Time
	rescan   bool

	batchSeq uint64
	stats    EncoderStats
}

// NewEncoder builds a DC1 encoder with identity self.
func NewEncoder(self core.NodeID, cfg EncoderConfig) (*Encoder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Encoder{
		cfg:   cfg,
		self:  self,
		cross: make(map[crossKey]*crossSet),
		rrIdx: make(map[core.FlowID]int),
		// Every shape this configuration can close a batch at: 1..K
		// sources cross-stream, 1..InBlock in-stream. Never evicts.
		codecs: rs.NewCache(cfg.K + cfg.InBlock),
	}, nil
}

// SetPool names the pool the encoder draws its coded messages from: the
// runtime's, which the DC2s that consume the parity hand it back to.
func (e *Encoder) SetPool(p *wire.Pool) { e.pool = p }

// Stats returns a copy of the counters.
func (e *Encoder) Stats() EncoderStats { return e.stats }

// ForgetFlow drops the per-flow encoder state of a torn-down flow: its
// in-stream queue (pending packets are discarded — the receiver is gone)
// and its cross-queue round-robin cursor. Open cross-stream batches may
// still hold the flow's packets; they flush or expire on their own
// bounded timers, so nothing here grows with flow churn.
func (e *Encoder) ForgetFlow(flow core.FlowID) {
	if i, ok := e.inIndex(flow); ok {
		if q := e.inQs[i]; len(q.pkts) > 0 {
			e.closed(q.deadline)
			e.release(q.pkts)
		}
		e.inQs = slices.Delete(e.inQs, i, i+1)
	}
	delete(e.rrIdx, flow)
}

// inIndex is flow's position in inQs, or where it would be inserted.
func (e *Encoder) inIndex(flow core.FlowID) (int, bool) {
	return slices.BinarySearchFunc(e.inQs, flow, func(q *inQueue, id core.FlowID) int {
		return cmp.Compare(q.flow, id)
	})
}

// OnData processes one data packet copy arriving from a sender: Algorithm 1.
// dc2 is the egress DC serving the flow's receiver (the spatial constraint:
// only flows sharing dc2 are coded together); receiver is the flow's
// endpoint, recorded in parity metadata for cooperative recovery.
// The payload is copied, once, into recycled storage both queues share; the
// caller keeps ownership of its buffer and may reuse it at once. A payload whose
// packed size does not fit the coded header's 16-bit ShardLen (more than
// 65 533 bytes) is not coded at all: it is counted in EncoderStats.Oversize
// and travels on its direct path alone. Equivalent to OnDataPolicy with the
// default (fastest-path) policy discriminator.
func (e *Encoder) OnData(now core.Time, dc2, receiver core.NodeID, flow core.FlowID, seq core.Seq, payload []byte) []core.Emit {
	return e.OnDataPolicy(now, dc2, receiver, flow, seq, 0, payload)
}

// OnDataPolicy is OnData with an explicit path-policy discriminator:
// only flows whose parity should ride the same path policy share
// cross-stream batches (see crossKey). In-stream blocks are single-flow,
// so policy never splits them.
func (e *Encoder) OnDataPolicy(now core.Time, dc2, receiver core.NodeID, flow core.FlowID, seq core.Seq, policy uint32, payload []byte) []core.Emit {
	e.emits = core.RecycleEmits(e.emits)
	if rs.PackedSize(len(payload)) > math.MaxUint16 {
		e.stats.Oversize++
		return nil
	}
	e.stats.DataPackets++
	e.stats.DataBytes += uint64(len(payload))
	pkt := srcPkt{
		ref:  wire.SourceRef{Flow: flow, Seq: seq, Receiver: receiver},
		kept: e.keep(payload),
	}

	// (1) In-stream coding (Algorithm 1 lines 1–5).
	if e.cfg.InBlock > 0 {
		i, ok := e.inIndex(flow)
		if !ok {
			e.inQs = slices.Insert(e.inQs, i, &inQueue{flow: flow, dc2: dc2})
		}
		q := e.inQs[i]
		if len(q.pkts) == 0 {
			q.deadline = now + e.cfg.InTimeout
			e.opened(q.deadline)
		}
		q.dc2 = dc2
		q.pkts = append(q.pkts, pkt)
		if len(q.pkts) >= e.cfg.InBlock {
			e.flushIn(now, q)
		}
	}

	// (2) Cross-stream coding (Algorithm 1 lines 6–23).
	key := crossKey{dc2: dc2, policy: policy}
	set := e.cross[key]
	if set == nil {
		set = &crossSet{dc2: dc2, qs: make([]*crossQueue, e.cfg.CrossQueues)}
		for i := range set.qs {
			set.qs[i] = &crossQueue{flows: make(map[core.FlowID]bool)}
		}
		e.cross[key] = set
		e.insertCrossKey(key)
	}
	qi := e.rrIdx[flow] % e.cfg.CrossQueues
	e.rrIdx[flow] = (qi + 1) % e.cfg.CrossQueues
	q := set.qs[qi]
	initial := qi
	// Find a queue without a packet from this flow (lines 9–12).
	for q.flows[flow] {
		qi = (qi + 1) % e.cfg.CrossQueues
		q = set.qs[qi]
		if qi == initial {
			// Every queue holds this flow (lines 13–19): flush the
			// initial queue if it has cross-flow value, else discard.
			if len(q.pkts) > 1 {
				e.flushCross(now, dc2, q)
			} else {
				e.closed(q.deadline)
				e.release(q.pkts)
				q.reset()
				e.stats.Evicted++
			}
			break
		}
	}
	if len(q.pkts) == 0 {
		q.deadline = now + e.cfg.CrossTimeout
		e.opened(q.deadline)
	}
	q.flows[flow] = true
	q.pkts = append(q.pkts, pkt)
	if len(q.pkts) >= e.cfg.K {
		e.flushCross(now, dc2, q)
	}
	return e.emits
}

// insertCrossKey keeps crossKeys sorted ascending by (dc2, policy) as
// new sets appear, so map-backed iteration stays deterministic.
func (e *Encoder) insertCrossKey(k crossKey) {
	i := 0
	for i < len(e.crossKeys) {
		c := e.crossKeys[i]
		if c.dc2 > k.dc2 || (c.dc2 == k.dc2 && c.policy > k.policy) {
			break
		}
		i++
	}
	e.crossKeys = append(e.crossKeys, crossKey{})
	copy(e.crossKeys[i+1:], e.crossKeys[i:])
	e.crossKeys[i] = k
}

// flushIn encodes an in-stream block onto e.emits and resets the queue.
func (e *Encoder) flushIn(now core.Time, q *inQueue) {
	if len(q.pkts) == 0 {
		return
	}
	e.encodeBatch(now, q.dc2, q.pkts, wire.InStream, e.cfg.InParity)
	e.stats.InBatches++
	e.stats.InCoded += uint64(e.cfg.InParity)
	e.closed(q.deadline)
	e.release(q.pkts)
	q.pkts = q.pkts[:0]
	q.deadline = 0
}

// flushCross encodes a cross-stream batch onto e.emits and resets the queue.
func (e *Encoder) flushCross(now core.Time, dc2 core.NodeID, q *crossQueue) {
	if len(q.pkts) == 0 {
		return
	}
	e.encodeBatch(now, dc2, q.pkts, wire.CrossStream, e.cfg.CrossParity)
	e.stats.CrossBatches++
	e.stats.CrossCoded += uint64(e.cfg.CrossParity)
	e.closed(q.deadline)
	e.release(q.pkts)
	q.reset()
}

// keep copies payload into a spare buffer (a fresh one when none is left),
// held once by each queue the packet joins: both with in-stream coding on.
func (e *Encoder) keep(payload []byte) *kept {
	var k *kept
	if n := len(e.spare); n > 0 {
		k, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		k = new(kept)
	}
	k.payload = append(k.payload[:0], payload...)
	k.refs = 1
	if e.cfg.InBlock > 0 {
		k.refs = 2
	}
	return k
}

// release drops one queue's hold on each of pkts' payloads; a payload no
// queue holds any more is spared while there is room.
func (e *Encoder) release(pkts []srcPkt) {
	for _, p := range pkts {
		if p.kept.refs--; p.kept.refs == 0 && len(e.spare) < maxSpare {
			e.spare = append(e.spare, p.kept)
		}
	}
}

// encodeBatch appends the parity Emits for a batch of data packets to
// e.emits. Each coded message is a buffer from the pool, with header and
// metadata marshalled into its head and its tail handed to the codec to
// write parity in (the codec clears what it writes: a recycled buffer's old
// bytes never reach the wire).
func (e *Encoder) encodeBatch(now core.Time, dc2 core.NodeID, pkts []srcPkt, kind wire.CodedKind, parity int) {
	k := len(pkts)
	codec := e.codecs.Get(k, parity)
	if codec == nil {
		panic(fmt.Sprintf("coding: no code for %d+%d shards", k, parity)) // bounded by config validation
	}
	e.payloads, e.sources, e.parity = e.payloads[:0], e.sources[:0], e.parity[:0]
	longest := 0
	for _, p := range pkts {
		e.payloads = append(e.payloads, p.kept.payload)
		e.sources = append(e.sources, p.ref)
		longest = max(longest, len(p.kept.payload))
	}
	shardLen := rs.PackedSize(longest) // ≤ MaxUint16: OnData turned longer payloads away
	e.batchSeq++
	meta := wire.Coded{
		Batch:    e.batchSeq,
		Kind:     kind,
		K:        uint8(k),
		R:        uint8(parity),
		ShardLen: uint16(shardLen),
		Sources:  e.sources,
	}
	hdr := wire.Header{
		Type:    wire.TypeCoded,
		Service: core.ServiceCoding,
		TS:      now,
		Src:     e.self,
		Dst:     dc2,
	}
	head := wire.HeaderLen + meta.MarshaledLen()
	n := head + shardLen
	for i := 0; i < parity; i++ {
		meta.Index = uint8(i)
		msg := e.pool.Get(n)[:wire.HeaderLen]
		hdr.Marshal(msg)
		msg = meta.AppendMarshal(msg, nil)[:n]
		e.parity = append(e.parity, msg[head:])
		e.stats.CodedBytes += uint64(len(msg))
		e.emits = append(e.emits, core.Emit{To: dc2, Msg: msg})
	}
	if err := codec.EncodePacked(e.payloads, e.parity); err != nil {
		panic("coding: " + err.Error()) // shapes and sizes are ours by construction
	}
	clear(e.parity) // the messages are their recipients' now
}

// opened notes that a queue just opened with deadline d.
func (e *Encoder) opened(d core.Time) {
	if e.earliest == 0 || d < e.earliest {
		e.earliest = d
	}
}

// closed notes that an open queue with deadline d flushed, reset or was
// forgotten.
func (e *Encoder) closed(d core.Time) {
	if d == e.earliest {
		e.rescan = true
	}
}

// NextDeadline reports the earliest queue timeout, if any queue is open.
func (e *Encoder) NextDeadline() (core.Time, bool) {
	if e.rescan {
		e.rescan = false
		e.earliest = 0
		for _, q := range e.inQs {
			if len(q.pkts) > 0 {
				e.opened(q.deadline)
			}
		}
		for _, set := range e.cross {
			for _, q := range set.qs {
				if len(q.pkts) > 0 {
					e.opened(q.deadline)
				}
			}
		}
	}
	return e.earliest, e.earliest != 0
}

// OnTimer flushes every queue whose deadline has passed ("On expiry of a
// queue timer, DC1 encodes all packets in the queue and sends them"), in
// ascending flow order and then crossKeys order.
func (e *Encoder) OnTimer(now core.Time) []core.Emit {
	e.emits = core.RecycleEmits(e.emits)
	if d, ok := e.NextDeadline(); !ok || d > now {
		return nil
	}
	for _, q := range e.inQs {
		if len(q.pkts) > 0 && q.deadline <= now {
			e.flushIn(now, q)
			e.stats.TimerFlushes++
		}
	}
	for _, k := range e.crossKeys {
		set := e.cross[k]
		for _, q := range set.qs {
			if len(q.pkts) > 0 && q.deadline <= now {
				e.flushCross(now, set.dc2, q)
				e.stats.TimerFlushes++
			}
		}
	}
	return e.emits
}

// Flush force-encodes everything still queued (end of experiment).
func (e *Encoder) Flush(now core.Time) []core.Emit {
	e.emits = core.RecycleEmits(e.emits)
	for _, q := range e.inQs {
		e.flushIn(now, q)
	}
	for _, k := range e.crossKeys {
		set := e.cross[k]
		for _, q := range set.qs {
			e.flushCross(now, set.dc2, q)
		}
	}
	return e.emits
}
