// Package recovery implements the receiver-side J-QoS reliability layer
// (§3.4): loss detection via sequence gaps and a two-state Markov timeout
// model, NACK generation toward the nearby DC, local decoding of in-stream
// parity, cooperative-recovery helper duties, and spurious-recovery
// verification. Like the DC engines it is sans-IO: events in, Emits and
// Deliveries out.
package recovery

import (
	"slices"

	"jqos/internal/core"
	"jqos/internal/ring"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

// Config describes one receiving endpoint: who it is, whom it NACKs, what
// recovery it asks for and the round trip its timers scale with. How the
// receiver is tuned is fixed in the constants below, the values every
// runtime has always run with.
type Config struct {
	// Self is this receiver's node ID; DC is its nearby data center
	// (DC2), the target of NACKs and pulls.
	Self core.NodeID
	DC   core.NodeID
	// Service selects what recovery the NACKs request; it is stamped
	// into emitted headers (caching and coding share this layer).
	Service core.Service
	// RTT is the direct-path round trip; the long (cross-burst) timer,
	// the NACK retry interval and the give-up horizon derive from it.
	// Zero or less: 100 ms.
	RTT core.Time
}

// pumpWindow sizes the sustained-recovery pump: when recoveries arrive
// while the direct path is silent (an outage), the receiver keeps this
// many speculative NACKs outstanding ahead of the last recovered packet,
// letting recovery proceed at the parity arrival rate ("repeatedly
// applying this cooperative recovery process … recovers an indefinite
// series of losses", §4.4).
const pumpWindow = 16

// SmallTimeout is the in-burst loss-detection timer of a deployment's
// receivers: the paper's 25 ms small timeout (§6.2.1).
const SmallTimeout core.Time = 25e6

// A loss is NACKed again every RTT/retryPerRTT — a repeat NACK escalates
// DC2 from in-stream to cooperative recovery — up to maxNACKs NACKs in all,
// and given up giveUpRTTs round trips after it was detected: the paper
// counts recovery slower than one RTT as a loss, the receiver keeps trying
// a little longer and lets the experiment apply the one-RTT rule.
const (
	retryPerRTT = 4
	maxNACKs    = 3
	giveUpRTTs  = 4
)

// recentWindow is how many of the flow's delivered packets are retained
// for duplicate detection, cooperative responses and in-stream decoding.
const recentWindow = 128

// DefaultConfig returns deployment defaults for a path with the given RTT.
func DefaultConfig(self, dc core.NodeID, rtt core.Time) Config {
	return Config{Self: self, DC: dc, Service: core.ServiceCoding, RTT: rtt}
}

func (c *Config) fillDefaults() {
	if c.RTT <= 0 {
		c.RTT = 100e6
	}
}

// Stats counts receiver-side protocol activity.
type Stats struct {
	DataReceived uint64
	// DirectArrivals counts data copies that arrived over the direct
	// Internet path (no FlagDup), whether they were delivered or
	// deduplicated — the unbiased direct-path loss signal: an
	// overlay-duplicated copy winning the arrival race must not make
	// the direct path look lossy.
	DirectArrivals uint64
	Duplicates     uint64
	LossesSeen     uint64 // distinct missing packets detected
	GapNACKs       uint64 // NACKs from sequence gaps
	TimerNACKs     uint64 // NACKs from small-timeout expiry (burst tail)
	IdleNACKs      uint64 // NACKs from long-timeout expiry
	PumpNACKs      uint64 // speculative NACKs from the outage pump
	RetryNACKs     uint64
	Recovered      uint64 // packets restored by any cloud service
	InStreamLocal  uint64 // of those, decoded locally from in-stream parity
	LateArrivals   uint64 // missing packets that showed up on their own
	GaveUp         uint64
	CoopResponses  uint64
	VerifyReplies  uint64
	// Dropped counts in-stream coded messages rejected as malformed: a
	// source list that disagrees with K, no parity, or an index outside R.
	Dropped uint64
}

// NACKsSent totals every NACK category.
func (s Stats) NACKsSent() uint64 {
	return s.GapNACKs + s.TimerNACKs + s.IdleNACKs + s.PumpNACKs + s.RetryNACKs
}

// Add accumulates o's counters into s.
func (s *Stats) Add(o Stats) {
	s.DataReceived += o.DataReceived
	s.DirectArrivals += o.DirectArrivals
	s.Duplicates += o.Duplicates
	s.LossesSeen += o.LossesSeen
	s.GapNACKs += o.GapNACKs
	s.TimerNACKs += o.TimerNACKs
	s.IdleNACKs += o.IdleNACKs
	s.PumpNACKs += o.PumpNACKs
	s.RetryNACKs += o.RetryNACKs
	s.Recovered += o.Recovered
	s.InStreamLocal += o.InStreamLocal
	s.LateArrivals += o.LateArrivals
	s.GaveUp += o.GaveUp
	s.CoopResponses += o.CoopResponses
	s.VerifyReplies += o.VerifyReplies
	s.Dropped += o.Dropped
}

// Result is the outcome of one event: messages to transmit and packets to
// hand to the application. Both slices are the Receiver's own buffers, valid
// until the next call into it; what they name belongs to whoever takes it.
type Result struct {
	Emits      []core.Emit
	Deliveries []core.Delivery
}

type markovState uint8

const (
	stateIdle markovState = iota
	stateBurst
)

type missState struct {
	firstMiss core.Time
	nacks     int
	nextNACK  core.Time
}

// inDecode accumulates in-stream parity for local decoding. A finished
// one is recycled (Receiver.spareDec) with the capacity of its slices.
type inDecode struct {
	meta wire.Coded
	// parity holds the batch's R shards by shard index (nil = not
	// received); a received shard is a copy into a buffer that is never
	// nil (Receiver.parityBuf), so an empty shard is held all the same.
	parity  [][]byte
	expires core.Time
}

// slot is one delivered packet in the recent window. Only coding recovers
// a packet from other packets' bytes, so only a packet a DC can ask back —
// one that arrived stamped ServiceCoding, or was decoded in-stream — keeps a
// copy of its payload (held). Any other keeps its slot, for duplicate
// detection and eviction order, and no bytes. The buffer stays with the
// slot either way, for the next coding packet to take it over to copy into.
type slot struct {
	buf  []byte
	held bool // buf is the packet's payload, however short
}

// Receiver is the reliability engine of one inbound flow. Not safe for
// concurrent use. A Result it returns is valid until the next call into the
// same Receiver. The messages it addresses to a DC — NACKs, coop and verify
// responses — are built in buffers drawn from its pool (SetPool), which the
// DC that consumes one hands back to.
type Receiver struct {
	cfg Config
	// flow is the flow this receiver serves, taken from the first data or
	// recovered packet: the one that sets started.
	flow        core.FlowID
	started     bool
	next        core.Seq
	state       markovState
	deadline    core.Time // 0 = timer disarmed
	idleFired   bool      // one idle NACK per silence period
	everArrived bool
	lastArrival core.Time
	lastDirect  core.Time // last arrival on the direct path
	pumpHigh    core.Seq  // highest seq the pump has NACKed
	src         core.NodeID
	missing     map[core.Seq]missState
	// recent holds the slots of the delivered packets still in the window;
	// order is a ring of their seqs, oldest first. A coding packet is
	// copied into the buffer of the slot it evicts, so a full window
	// allocates nothing; if that slot has none, into a buffer from spare,
	// the window buffers Reset kept from the flow before.
	recent map[core.Seq]slot
	order  ring.Ring[core.Seq]
	spare  [][]byte
	inDec  map[uint64]*inDecode
	// codecs serves in-stream decodes, in working memory of its own; the
	// shapes come off the wire.
	codecs *rs.Cache
	stats  Stats
	res    Result     // the result under construction
	due    []core.Seq // OnTimer's scratch: the seqs to re-NACK, sorted
	// pool is what the messages a DC consumes — NACKs, coop and verify
	// responses — are drawn from (see SetPool); nil allocates them.
	pool *wire.Pool

	// OnCoded's scratch, kept across Reset: the shard table, the window's
	// sources packed into shards, the positions to decode, and the states
	// and parity buffers of finished decodes for the next batches, at most
	// maxSpareDec of each.
	shards      [][]byte
	packed      []byte
	wanted      []int
	spareDec    []*inDecode
	spareParity [][]byte
}

// begin empties the result buffers for the next event.
func (r *Receiver) begin() {
	r.res.Emits = core.RecycleEmits(r.res.Emits)
	clear(r.res.Deliveries) // the packets are the application's now
	r.res.Deliveries = r.res.Deliveries[:0]
}

// maxSpare bounds the window buffers Reset keeps for the next flow:
// half the window, so a short flow's window fills without allocating
// while a receiver waiting to be reused pins no more than that.
const maxSpare = 64

// maxSpareDec bounds the finished in-stream decode states, and apart from
// them their parity buffers, kept for the next batches: a receiver decodes
// the few batches its NACKs were answered with at a time.
const maxSpareDec = 4

// maxPacked bounds the packed-source scratch a receiver keeps between
// decodes: a default in-stream batch of MTU packets needs a ninth of it. A
// batch of larger shards is packed into an array that is not kept.
const maxPacked = 64 << 10

// New builds a receiver engine.
func New(cfg Config) *Receiver {
	r := &Receiver{
		missing: make(map[core.Seq]missState),
		recent:  make(map[core.Seq]slot),
		inDec:   make(map[uint64]*inDecode),
		codecs:  rs.NewCache(rs.DecoderShapes),
	}
	r.order.Reserve(recentWindow)
	r.Reset(cfg)
	return r
}

// Reset prepares the receiver for a new flow under cfg: afterwards it
// behaves exactly as New(cfg) would (TestResetMatchesNew). It keeps what
// costs allocations to build — the maps (emptied), the window ring, the
// codec cache, the result and scratch buffers, up to maxSpare window
// buffers for the next flow's window to fill, and its pending decodes'
// states for the next flow's. The last Result stays as it is: a runtime
// may still be walking it, and only the next event empties it.
func (r *Receiver) Reset(cfg Config) {
	cfg.fillDefaults()
	for i := 0; i < r.order.Len() && len(r.spare) < maxSpare; i++ {
		if buf := r.recent[*r.order.At(i)].buf; buf != nil {
			r.spare = append(r.spare, buf)
		}
	}
	for batch, dec := range r.inDec {
		r.dropDecode(batch, dec)
	}
	clear(r.missing)
	clear(r.recent)
	r.order.Truncate(0)
	*r = Receiver{
		cfg:         cfg,
		missing:     r.missing,
		recent:      r.recent,
		order:       r.order,
		spare:       r.spare,
		inDec:       r.inDec,
		codecs:      r.codecs,
		res:         r.res,
		due:         r.due,
		shards:      r.shards,
		packed:      r.packed,
		wanted:      r.wanted,
		spareDec:    r.spareDec,
		spareParity: r.spareParity,
		pool:        r.pool,
	}
}

// SetPool names the pool the receiver draws the messages its DC consumes
// from: its runtime's, which the DC hands them back to. Reset keeps it.
func (r *Receiver) SetPool(p *wire.Pool) { r.pool = p }

// Stats returns a copy of the counters.
func (r *Receiver) Stats() Stats { return r.stats }

// SetService changes the service stamped on future NACKs — used when the
// framework upgrades a flow to a more expensive service (§3.5).
func (r *Receiver) SetService(s core.Service) { r.cfg.Service = s }

// OnData processes a data packet from the direct path. payload is lent for
// the call and for the walk of its Result: a delivery hands it to the
// application as is, and the window keeps a copy of a coding packet's, so
// the caller may reuse the bytes once the deliveries are surfaced.
func (r *Receiver) OnData(now core.Time, hdr *wire.Header, payload []byte) Result {
	r.begin()
	r.src = hdr.Src
	r.stats.DataReceived++
	r.lastDirect = now

	// Attribute overlay-duplicated copies to their service so multipath
	// and path-switched forwarding show up in delivery accounting.
	via := core.ServiceInternet
	if hdr.Flags&wire.FlagDup != 0 {
		via = hdr.Service
	} else {
		r.stats.DirectArrivals++
	}
	if _, dup := r.recent[hdr.Seq]; dup { // delivered, and still in the window
		r.stats.Duplicates++
	} else {
		// Behind the expectation is a late arrival: a tracked loss, a
		// given-up loss, or a packet the idle timer speculatively NACKed
		// before it was even sent (session boundary).
		if r.started && hdr.Seq < r.next {
			r.stats.LateArrivals++
		}
		r.accept(now, hdr, payload, false, via, 0)
	}

	// Markov model (§3.4): the small timer applies only to packets
	// "arriving within a burst (sub-RTT scale)" — enter burst state when
	// the observed inter-arrival is short, otherwise arm the long timer.
	delta := now - r.lastArrival
	if r.everArrived && delta <= SmallTimeout {
		r.state = stateBurst
		r.deadline = now + SmallTimeout
	} else {
		r.state = stateIdle
		r.deadline = now + r.cfg.RTT
	}
	r.everArrived = true
	r.lastArrival = now
	r.idleFired = false
	return r.res
}

// accept delivers a packet — payload itself, lent for the call — and
// is the one place an arrival changes loss state, whichever path brought
// it: the packet is no longer missing, the first one joins the flow
// (earlier history is not ours to recover), and one at or past the
// expectation, which proves the packets before it were sent, NACKs the gap
// and moves the expectation past it. So every delivered seq is behind
// r.next and none is missing.
//
// The packet gets a slot in the recent window: a new one while the window
// fills, the oldest one's once it is full. A packet stamped ServiceCoding
// is copied into the slot's buffer, or into a spare one if the slot has
// none.
func (r *Receiver) accept(now core.Time, hdr *wire.Header, payload []byte, recovered bool, via core.Service, recDelay core.Time) {
	delete(r.missing, hdr.Seq)
	if !r.started {
		r.started, r.flow = true, hdr.Flow
		r.next = hdr.Seq + 1
	} else if hdr.Seq >= r.next {
		r.noteGap(now, hdr.Seq)
	}
	var s slot
	if r.order.Len() == recentWindow {
		old := r.order.PopFront()
		s = r.recent[old]
		delete(r.recent, old)
	}
	r.order.Push(hdr.Seq)
	if s.held = hdr.Service == core.ServiceCoding; s.held {
		if n := len(r.spare); s.buf == nil && n > 0 {
			s.buf = r.spare[n-1]
			r.spare[n-1] = nil
			r.spare = r.spare[:n-1]
		}
		s.buf = append(s.buf[:0], payload...)
	}
	r.recent[hdr.Seq] = s
	r.res.Deliveries = append(r.res.Deliveries, core.Delivery{
		Packet: core.Packet{
			ID:      core.PacketID{Flow: hdr.Flow, Seq: hdr.Seq},
			Src:     r.src,
			Dst:     r.cfg.Self,
			Sent:    hdr.TS,
			Payload: payload,
		},
		At: now, Recovered: recovered, Via: via, RecoveryDelay: recDelay,
	})
}

// maxGap bounds how many losses one arrival can declare. A wider sequence
// jump is not a loss burst (nothing that far back is still in a recent
// window) but a restarted sender or a forged header, and NACKing every
// number in between would let one datagram cost unbounded work and state.
const maxGap = 4096

// noteGap NACKs the missing range [r.next, seq) and moves the expectation
// past seq; past maxGap it rejoins at seq like a first packet.
func (r *Receiver) noteGap(now core.Time, seq core.Seq) {
	if seq-r.next <= maxGap {
		for s := r.next; s < seq; s++ {
			r.noteMissing(now, s, false)
			r.stats.GapNACKs++
		}
	}
	r.next = seq + 1
}

// noteMissing registers a loss and emits its first NACK; false: already
// tracked, or delivered. Only a forged seq that wraps r.next past 2^64 puts
// a delivered one at or past the expectation.
func (r *Receiver) noteMissing(now core.Time, seq core.Seq, wantVerify bool) bool {
	if _, ok := r.missing[seq]; ok {
		return false
	}
	if _, ok := r.recent[seq]; ok {
		return false
	}
	r.stats.LossesSeen++
	r.missing[seq] = missState{firstMiss: now, nacks: 1, nextNACK: now + r.cfg.RTT/retryPerRTT}
	r.nack(now, seq, wantVerify)
	return true
}

// nack asks the DC for seq; the flow is known, since every loss is noted
// after the receiver has started.
func (r *Receiver) nack(now core.Time, seq core.Seq, wantVerify bool) {
	hdr := wire.Header{
		Type:    wire.TypeNACK,
		Service: r.cfg.Service,
		Flow:    r.flow,
		Seq:     seq,
		TS:      now,
		Src:     r.cfg.Self,
		Dst:     r.cfg.DC,
	}
	if wantVerify {
		hdr.Flags |= wire.FlagWantVerify
	}
	r.res.Emits = append(r.res.Emits, core.Emit{To: r.cfg.DC, Msg: wire.AppendMessage(r.pool.Get(wire.HeaderLen), &hdr, nil)})
}

// OnRecovered processes a repaired packet from the DC (TypeRecovered from
// coding, TypePullResp from caching). payload is lent as for OnData.
func (r *Receiver) OnRecovered(now core.Time, hdr *wire.Header, payload []byte) Result {
	r.begin()
	if _, dup := r.recent[hdr.Seq]; dup {
		r.stats.Duplicates++
		return r.res
	}
	ms, tracked := r.missing[hdr.Seq]
	if !tracked && r.started && hdr.Seq < r.next {
		// Recovery for something we never tracked (already gave up or
		// spurious); deliver anyway if unseen.
		r.stats.Duplicates++
		return r.res
	}
	var recDelay core.Time
	if tracked {
		recDelay = now - ms.firstMiss
	}
	r.stats.Recovered++
	via := hdr.Service
	if via == 0 {
		via = r.cfg.Service
	}
	r.accept(now, hdr, payload, true, via, recDelay)
	// Sustained-recovery pump: recoveries flowing while the direct path
	// has been silent since this loss was detected indicate an outage —
	// keep speculative NACKs outstanding so the next losses are already
	// in recovery when their parity reaches the DC.
	if tracked && r.lastDirect < ms.firstMiss {
		high := hdr.Seq + pumpWindow
		start := r.next
		if r.pumpHigh+1 > start {
			start = r.pumpHigh + 1
		}
		for s := start; s <= high; s++ {
			if r.noteMissing(now, s, false) {
				r.stats.PumpNACKs++
			}
		}
		if high > r.pumpHigh {
			r.pumpHigh = high
		}
	}
	return r.res
}

// OnCoded performs local in-stream decoding: combine the parity shard with
// the flow's recent packets to reconstruct whatever is missing (§4.2 —
// "packet YA can recover from the loss of A3").
func (r *Receiver) OnCoded(now core.Time, hdr *wire.Header, meta *wire.Coded, shard []byte) Result {
	r.begin()
	if meta.Kind != wire.InStream || len(meta.Sources) == 0 {
		return r.res
	}
	// The shard table below is sized K+R from the wire and indexed by
	// source position: the encoder always emits K == len(Sources), and
	// anything else is a forged or corrupted datagram. Its in-stream
	// batches are one flow's, too — this receiver's once it has started:
	// a batch naming another would decode against this flow's window and
	// deliver into that one.
	flow := meta.Sources[0].Flow
	if r.started {
		flow = r.flow
	}
	if len(meta.Sources) != int(meta.K) || meta.R < 1 || meta.Index >= meta.R ||
		slices.ContainsFunc(meta.Sources, func(s wire.SourceRef) bool { return s.Flow != flow }) {
		r.stats.Dropped++
		return r.res
	}
	dec := r.inDec[meta.Batch]
	if dec == nil {
		dec = r.newDecode(meta)
		r.inDec[meta.Batch] = dec
	}
	dec.expires = now + 2*r.cfg.RTT
	if i := int(meta.Index); i < len(dec.parity) && dec.parity[i] == nil {
		dec.parity[i] = append(r.parityBuf(len(shard)), shard...)
	}

	// The shard table: the window's copies of the batch's packets, packed
	// into regions of one scratch array, and the parity of the shard size
	// this message has. A source without a slot is wanted; one whose slot
	// holds no bytes is neither wanted nor present.
	k := int(dec.meta.K)
	shardLen := len(shard)
	shards := slices.Grow(r.shards[:0], k+len(dec.parity))[:k+len(dec.parity)]
	r.shards = shards
	defer clear(shards) // all nil between calls: it pins no shard
	packed := r.packed[:0]
	r.wanted = r.wanted[:0]
	present := 0
	for i, src := range dec.meta.Sources {
		s, ok := r.recent[src.Seq]
		if !ok {
			r.wanted = append(r.wanted, i)
			continue
		}
		if !s.held {
			continue
		}
		off := len(packed)
		packed = slices.Grow(packed, shardLen)[:off+shardLen]
		buf := packed[off : off+shardLen : off+shardLen]
		if _, err := rs.Pack(s.buf, buf); err != nil {
			packed = packed[:off]
			continue
		}
		shards[i] = buf
		present++
	}
	if cap(packed) <= maxPacked {
		r.packed = packed // a forged batch's larger array is not kept
	}
	for idx, p := range dec.parity {
		if p != nil && len(p) == shardLen {
			shards[k+idx] = p
			present++
		}
	}
	if len(r.wanted) == 0 || present < k {
		return r.res // nothing to do, or not decodable yet
	}
	if err := r.codecs.ReconstructData(k, len(dec.parity), shards); err != nil {
		return r.res
	}
	for _, i := range r.wanted {
		payload, err := rs.Unpack(shards[i])
		if err != nil {
			continue
		}
		seq := dec.meta.Sources[i].Seq
		if _, dup := r.recent[seq]; dup {
			continue
		}
		var recDelay core.Time
		if ms, ok := r.missing[seq]; ok {
			recDelay = now - ms.firstMiss
		}
		r.stats.Recovered++
		r.stats.InStreamLocal++
		ph := wire.Header{Service: core.ServiceCoding, Flow: flow, Seq: seq, TS: hdr.TS, Src: r.src, Dst: r.cfg.Self}
		r.accept(now, &ph, payload, true, core.ServiceCoding, recDelay)
	}
	r.dropDecode(meta.Batch, dec)
	return r.res
}

// newDecode shapes a state for meta's batch, holding no parity yet: a
// spare one when there is one, else a fresh one.
func (r *Receiver) newDecode(meta *wire.Coded) *inDecode {
	var dec *inDecode
	if n := len(r.spareDec); n > 0 {
		dec, r.spareDec = r.spareDec[n-1], r.spareDec[:n-1]
	} else {
		dec = new(inDecode)
	}
	sources := dec.meta.Sources
	dec.meta = *meta
	dec.meta.Sources = append(sources[:0], meta.Sources...)
	dec.parity = slices.Grow(dec.parity[:0], int(meta.R))[:meta.R] // all nil: dropDecode cleared them
	return dec
}

// parityBuf returns an empty buffer for an n-byte parity shard: a spare one
// when there is one, else a fresh one. It is never nil, so a held empty
// shard is never taken for a missing one.
func (r *Receiver) parityBuf(n int) []byte {
	if k := len(r.spareParity); k > 0 {
		buf := r.spareParity[k-1]
		r.spareParity = r.spareParity[:k-1]
		return buf[:0]
	}
	return make([]byte, 0, n)
}

// dropDecode forgets batch's decode; its state and parity buffers are
// spared for later batches while there is room.
func (r *Receiver) dropDecode(batch uint64, dec *inDecode) {
	delete(r.inDec, batch)
	for _, p := range dec.parity {
		if p != nil && len(r.spareParity) < maxSpareDec {
			r.spareParity = append(r.spareParity, p)
		}
	}
	clear(dec.parity)
	if len(r.spareDec) < maxSpareDec {
		r.spareDec = append(r.spareDec, dec)
	}
}

// OnCoopReq answers a cooperative-recovery request (§4.4 step 2→3): if the
// requested packet's bytes are in the recent window, return them to the DC.
// Ingress to the DC is free, so helpers answer unconditionally.
func (r *Receiver) OnCoopReq(now core.Time, hdr *wire.Header, ref *wire.CoopRef) Result {
	r.begin()
	s := r.recent[hdr.Seq]
	if !s.held {
		return r.res // we lost it too, or never kept it; DC treats us as a straggler
	}
	payload := s.buf
	r.stats.CoopResponses++
	respHdr := wire.Header{
		Type:    wire.TypeCoopResp,
		Service: core.ServiceCoding,
		Flow:    hdr.Flow,
		Seq:     hdr.Seq,
		TS:      now,
		Src:     r.cfg.Self,
		Dst:     hdr.Src,
	}
	msg := r.pool.Get(wire.HeaderLen + ref.MarshaledLen() + len(payload))
	msg = ref.AppendMarshal(wire.AppendMessage(msg, &respHdr, nil), payload)
	r.res.Emits = append(r.res.Emits, core.Emit{To: hdr.Src, Msg: msg})
	return r.res
}

// OnVerify answers DC2's spurious-recovery probe: still wanted only if the
// packet remains missing.
func (r *Receiver) OnVerify(now core.Time, hdr *wire.Header) Result {
	r.begin()
	r.stats.VerifyReplies++
	respHdr := wire.Header{
		Type:    wire.TypeVerifyResp,
		Service: r.cfg.Service,
		Flow:    hdr.Flow,
		Seq:     hdr.Seq,
		TS:      now,
		Src:     r.cfg.Self,
		Dst:     hdr.Src,
	}
	if _, still := r.missing[hdr.Seq]; still {
		respHdr.Flags |= wire.FlagStillWanted
	}
	r.res.Emits = append(r.res.Emits, core.Emit{To: hdr.Src, Msg: wire.AppendMessage(r.pool.Get(wire.HeaderLen), &respHdr, nil)})
	return r.res
}

// NextDeadline reports the earliest timer the runtime should schedule.
func (r *Receiver) NextDeadline() (core.Time, bool) {
	var min core.Time
	found := false
	consider := func(d core.Time) {
		if d == 0 {
			return
		}
		if !found || d < min {
			min, found = d, true
		}
	}
	consider(r.deadline)
	for _, ms := range r.missing {
		consider(ms.firstMiss + giveUpRTTs*r.cfg.RTT)
		if ms.nacks < maxNACKs {
			consider(ms.nextNACK)
		}
	}
	for _, dec := range r.inDec {
		consider(dec.expires)
	}
	return min, found
}

// OnTimer advances the Markov model and retry/give-up bookkeeping.
func (r *Receiver) OnTimer(now core.Time) Result {
	r.begin()
	if r.deadline != 0 && r.deadline <= now {
		switch r.state {
		case stateBurst:
			// Small timeout expired mid-burst: the next expected
			// packet is overdue → NACK and fall back to the long
			// timer (§3.4).
			if r.started && r.noteMissing(now, r.next, true) {
				r.stats.TimerNACKs++
				r.next++
			}
			r.state = stateIdle
			r.deadline = now + r.cfg.RTT
		case stateIdle:
			// Long timeout: one speculative NACK per silence
			// period, then disarm until traffic resumes.
			if r.started && !r.idleFired {
				r.idleFired = true
				if r.noteMissing(now, r.next, true) {
					r.stats.IdleNACKs++
					r.next++
				}
				r.deadline = now + r.cfg.RTT
			} else {
				r.deadline = 0
			}
		}
	}
	// Give-ups, and NACK retries in ascending seq order: the map's
	// order must not decide which retry draws which link jitter.
	r.due = r.due[:0]
	for seq, ms := range r.missing {
		if now-ms.firstMiss >= giveUpRTTs*r.cfg.RTT {
			delete(r.missing, seq)
			r.stats.GaveUp++
		} else if ms.nacks < maxNACKs && ms.nextNACK <= now {
			r.due = append(r.due, seq)
		}
	}
	slices.Sort(r.due)
	for _, seq := range r.due {
		ms := r.missing[seq]
		ms.nacks++
		ms.nextNACK = now + r.cfg.RTT/retryPerRTT
		r.missing[seq] = ms
		r.stats.RetryNACKs++
		r.nack(now, seq, false)
	}
	for batch, dec := range r.inDec {
		if dec.expires <= now {
			r.dropDecode(batch, dec)
		}
	}
	return r.res
}

// OutstandingLosses reports currently tracked missing packets (tests and
// metrics).
func (r *Receiver) OutstandingLosses() int { return len(r.missing) }
