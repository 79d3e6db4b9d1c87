// Package recovery implements the receiver-side J-QoS reliability layer
// (§3.4): loss detection via sequence gaps and a two-state Markov timeout
// model, NACK generation toward the nearby DC, local decoding of in-stream
// parity, cooperative-recovery helper duties, and spurious-recovery
// verification. Like the DC engines it is sans-IO: events in, Emits and
// Deliveries out.
package recovery

import (
	"fmt"
	"slices"

	"jqos/internal/core"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

// Config tunes one receiving endpoint.
type Config struct {
	// Self is this receiver's node ID; DC is its nearby data center
	// (DC2), the target of NACKs and pulls.
	Self core.NodeID
	DC   core.NodeID
	// Service selects what recovery the NACKs request; it is stamped
	// into emitted headers (caching and coding share this layer).
	Service core.Service
	// SmallTimeout is the in-burst loss-detection timer (paper: 25 ms).
	SmallTimeout core.Time
	// RTT is the direct-path round trip; the long (cross-burst) timer
	// and the give-up horizon derive from it.
	RTT core.Time
	// NACKRetry is the re-NACK interval for an outstanding loss
	// (a repeat NACK escalates DC2 from in-stream to cooperative
	// recovery). Zero disables retries.
	NACKRetry core.Time
	// MaxNACKs bounds NACKs per missing packet.
	MaxNACKs int
	// GiveUpAfter abandons a missing packet (the paper counts recovery
	// slower than one RTT as a loss; we keep trying a little longer and
	// let the experiment apply the one-RTT rule). Default 4×RTT.
	GiveUpAfter core.Time
	// RecentWindow is how many delivered packets per flow are retained
	// for cooperative responses and in-stream decoding.
	RecentWindow int
	// SingleTimer disables the two-state model: the small timeout runs
	// across bursts too (the ablation behind the paper's "5× fewer
	// NACKs" claim).
	SingleTimer bool
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

// DefaultConfig returns deployment defaults for a path with the given RTT.
func DefaultConfig(self, dc core.NodeID, rtt core.Time) Config {
	return Config{
		Self:         self,
		DC:           dc,
		Service:      core.ServiceCoding,
		SmallTimeout: SmallTimeout,
		RTT:          rtt,
		NACKRetry:    rtt / 4,
		MaxNACKs:     3,
		GiveUpAfter:  4 * rtt,
		RecentWindow: 128,
	}
}

func (c *Config) fillDefaults() {
	if c.SmallTimeout <= 0 {
		c.SmallTimeout = SmallTimeout
	}
	if c.RTT <= 0 {
		c.RTT = 100e6
	}
	if c.MaxNACKs <= 0 {
		c.MaxNACKs = 3
	}
	if c.GiveUpAfter <= 0 {
		c.GiveUpAfter = 4 * c.RTT
	}
	if c.RecentWindow <= 0 {
		c.RecentWindow = 128
	}
	if c.NACKRetry < 0 {
		c.NACKRetry = 0
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
	hasNACK   bool // at least one NACK actually sent
}

type flowState struct {
	id          core.FlowID
	started     bool
	next        core.Seq
	state       markovState
	deadline    core.Time // 0 = timer disarmed
	idleFired   bool      // one idle NACK per silence period
	everArrived bool
	lastArrival core.Time
	lastDirect  core.Time // last arrival on the direct path
	pumpHigh    core.Seq  // highest seq the pump has NACKed
	missing     map[core.Seq]*missState
	// recent holds the receiver's own copies of the delivered packets still
	// in the window; order is a ring of their seqs, oldest at orderHead once
	// it has filled. A packet is copied into the buffer of the one it
	// evicts, so a full window allocates nothing.
	recent    map[core.Seq][]byte
	order     []core.Seq
	orderHead int
	src       core.NodeID
}

// inDecode accumulates in-stream parity for local decoding.
type inDecode struct {
	meta    wire.Coded
	parity  map[int][]byte
	expires core.Time
}

// Receiver is the endpoint reliability engine. Not safe for concurrent use.
// A Result it returns is valid until the next call into the same Receiver.
type Receiver struct {
	cfg   Config
	flows map[core.FlowID]*flowState
	inDec map[uint64]*inDecode
	// codecs serves in-stream decodes; the shapes come off the wire.
	codecs *rs.Cache
	stats  Stats
	res    Result     // the result under construction
	due    []core.Seq // OnTimer's scratch: the seqs to re-NACK, sorted
}

// begin empties the result buffers for the next event.
func (r *Receiver) begin() {
	r.res.Emits = core.RecycleEmits(r.res.Emits)
	clear(r.res.Deliveries) // the packets are the application's now
	r.res.Deliveries = r.res.Deliveries[:0]
}

// New builds a receiver engine.
func New(cfg Config) *Receiver {
	cfg.fillDefaults()
	return &Receiver{
		cfg:    cfg,
		flows:  make(map[core.FlowID]*flowState),
		inDec:  make(map[uint64]*inDecode),
		codecs: rs.NewCache(rs.DecoderShapes),
	}
}

// Stats returns a copy of the counters.
func (r *Receiver) Stats() Stats { return r.stats }

// Config returns the receiver's configuration.
func (r *Receiver) Config() Config { return r.cfg }

// SetService changes the service stamped on future NACKs — used when the
// framework upgrades a flow to a more expensive service (§3.5).
func (r *Receiver) SetService(s core.Service) { r.cfg.Service = s }

func (r *Receiver) flow(id core.FlowID) *flowState {
	fs := r.flows[id]
	if fs == nil {
		fs = &flowState{
			id:      id,
			missing: make(map[core.Seq]*missState),
			recent:  make(map[core.Seq][]byte),
			order:   make([]core.Seq, 0, r.cfg.RecentWindow),
		}
		r.flows[id] = fs
	}
	return fs
}

// OnData processes a data packet from the direct path. Ownership of payload
// passes to the receiver: a delivery hands it to the application as is, and
// the window keeps a copy of its own, so the caller must not touch the bytes
// again.
func (r *Receiver) OnData(now core.Time, hdr *wire.Header, payload []byte) Result {
	r.begin()
	fs := r.flow(hdr.Flow)
	fs.src = hdr.Src
	r.stats.DataReceived++
	fs.lastDirect = now

	// Attribute overlay-duplicated copies to their service so multipath
	// and path-switched forwarding show up in delivery accounting.
	via := core.ServiceInternet
	if hdr.Flags&wire.FlagDup != 0 {
		via = hdr.Service
	} else {
		r.stats.DirectArrivals++
	}
	seq := hdr.Seq
	_, dup := fs.recent[seq] // delivered, and still in the window
	switch {
	case !fs.started:
		// Join at the first observed packet; earlier history is not
		// ours to recover.
		fs.started = true
		fs.next = seq + 1
		r.accept(now, fs, hdr, payload, false, via, 0)
	case dup:
		r.stats.Duplicates++
	case seq < fs.next:
		// Late arrival: a tracked loss, a given-up loss, or a packet
		// the idle timer speculatively NACKed before it was even sent
		// (session boundary). The duplicate case was handled above, so
		// anything undelivered is surfaced.
		r.stats.LateArrivals++
		r.resolve(fs, seq)
		r.accept(now, fs, hdr, payload, false, via, 0)
	case seq == fs.next:
		fs.next = seq + 1
		r.accept(now, fs, hdr, payload, false, via, 0)
	default: // gap: [next, seq) missing
		r.noteGap(now, fs, seq)
		r.accept(now, fs, hdr, payload, false, via, 0)
	}

	// Markov model (§3.4): the small timer applies only to packets
	// "arriving within a burst (sub-RTT scale)" — enter burst state when
	// the observed inter-arrival is short, otherwise arm the long timer.
	// SingleTimer mode (the ablation) always uses the small timer.
	delta := now - fs.lastArrival
	if r.cfg.SingleTimer || (fs.everArrived && delta <= r.cfg.SmallTimeout) {
		fs.state = stateBurst
		fs.deadline = now + r.cfg.SmallTimeout
	} else {
		fs.state = stateIdle
		fs.deadline = now + r.cfg.RTT
	}
	fs.everArrived = true
	fs.lastArrival = now
	fs.idleFired = false
	return r.res
}

// accept delivers a packet — payload itself, which the receiver owns — and
// copies it into the recent window, into the buffer of the oldest entry
// once the window is full.
func (r *Receiver) accept(now core.Time, fs *flowState, hdr *wire.Header, payload []byte, recovered bool, via core.Service, recDelay core.Time) {
	var buf []byte
	if len(fs.order) < cap(fs.order) {
		fs.order = append(fs.order, hdr.Seq)
	} else {
		old := fs.order[fs.orderHead]
		buf = fs.recent[old]
		delete(fs.recent, old)
		fs.order[fs.orderHead] = hdr.Seq
		fs.orderHead = (fs.orderHead + 1) % len(fs.order)
	}
	fs.recent[hdr.Seq] = append(buf[:0], payload...)
	r.res.Deliveries = append(r.res.Deliveries, core.Delivery{
		Packet: core.Packet{
			ID:      core.PacketID{Flow: hdr.Flow, Seq: hdr.Seq},
			Src:     fs.src,
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

// noteGap NACKs the missing range [fs.next, seq) and moves the expectation
// past seq; past maxGap it rejoins at seq like a first packet.
func (r *Receiver) noteGap(now core.Time, fs *flowState, seq core.Seq) {
	if seq-fs.next <= maxGap {
		for s := fs.next; s < seq; s++ {
			r.noteMissing(now, fs, s, false)
			r.stats.GapNACKs++
		}
	}
	fs.next = seq + 1
}

// noteMissing registers a loss and emits its first NACK; false: already tracked.
func (r *Receiver) noteMissing(now core.Time, fs *flowState, seq core.Seq, wantVerify bool) bool {
	if _, ok := fs.missing[seq]; ok {
		return false
	}
	r.stats.LossesSeen++
	ms := &missState{firstMiss: now, nacks: 1, hasNACK: true}
	if r.cfg.NACKRetry > 0 {
		ms.nextNACK = now + r.cfg.NACKRetry
	}
	fs.missing[seq] = ms
	r.nack(now, fs.id, seq, wantVerify)
	return true
}

func (r *Receiver) nack(now core.Time, flow core.FlowID, seq core.Seq, wantVerify bool) {
	hdr := wire.Header{
		Type:    wire.TypeNACK,
		Service: r.cfg.Service,
		Flow:    flow,
		Seq:     seq,
		TS:      now,
		Src:     r.cfg.Self,
		Dst:     r.cfg.DC,
	}
	if wantVerify {
		hdr.Flags |= wire.FlagWantVerify
	}
	r.res.Emits = append(r.res.Emits, core.Emit{To: r.cfg.DC, Msg: wire.AppendMessage(nil, &hdr, nil)})
}

// resolve clears a tracked loss.
func (r *Receiver) resolve(fs *flowState, seq core.Seq) {
	delete(fs.missing, seq)
}

// OnRecovered processes a repaired packet from the DC (TypeRecovered from
// coding, TypePullResp from caching). Ownership of payload passes to the
// receiver, as for OnData.
func (r *Receiver) OnRecovered(now core.Time, hdr *wire.Header, payload []byte) Result {
	r.begin()
	fs := r.flow(hdr.Flow)
	if _, dup := fs.recent[hdr.Seq]; dup {
		r.stats.Duplicates++
		return r.res
	}
	if _, miss := fs.missing[hdr.Seq]; !miss && fs.started && hdr.Seq < fs.next {
		// Recovery for something we never tracked (already gave up or
		// spurious); deliver anyway if unseen.
		r.stats.Duplicates++
		return r.res
	}
	var recDelay core.Time
	tracked := false
	var detectedAt core.Time
	if ms, ok := fs.missing[hdr.Seq]; ok {
		recDelay = now - ms.firstMiss
		detectedAt = ms.firstMiss
		tracked = true
	}
	r.resolve(fs, hdr.Seq)
	r.stats.Recovered++
	if !fs.started {
		fs.started = true
		fs.next = hdr.Seq + 1
	} else if hdr.Seq >= fs.next {
		// A recovered packet beyond the expectation proves everything
		// in between existed: NACK the gap.
		r.noteGap(now, fs, hdr.Seq)
	}
	via := hdr.Service
	if via == 0 {
		via = r.cfg.Service
	}
	r.accept(now, fs, hdr, payload, true, via, recDelay)
	// Sustained-recovery pump: recoveries flowing while the direct path
	// has been silent since this loss was detected indicate an outage —
	// keep speculative NACKs outstanding so the next losses are already
	// in recovery when their parity reaches the DC.
	if tracked && fs.lastDirect < detectedAt {
		high := hdr.Seq + pumpWindow
		start := fs.next
		if fs.pumpHigh+1 > start {
			start = fs.pumpHigh + 1
		}
		for s := start; s <= high; s++ {
			if r.noteMissing(now, fs, s, false) {
				r.stats.PumpNACKs++
			}
		}
		if high > fs.pumpHigh {
			fs.pumpHigh = high
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
	// anything else is a forged or corrupted datagram.
	if len(meta.Sources) != int(meta.K) || meta.R < 1 || meta.Index >= meta.R {
		r.stats.Dropped++
		return r.res
	}
	dec := r.inDec[meta.Batch]
	if dec == nil {
		dec = &inDecode{meta: *meta, parity: make(map[int][]byte)}
		dec.meta.Sources = append([]wire.SourceRef(nil), meta.Sources...)
		r.inDec[meta.Batch] = dec
	}
	dec.expires = now + 2*r.cfg.RTT
	if _, dup := dec.parity[int(meta.Index)]; !dup {
		dec.parity[int(meta.Index)] = append([]byte(nil), shard...)
	}

	flow := dec.meta.Sources[0].Flow
	fs := r.flow(flow)
	k := int(dec.meta.K)
	shardLen := len(shard)
	shards := make([][]byte, k+int(dec.meta.R))
	present := 0
	var wanted []int
	for i, src := range dec.meta.Sources {
		if p, ok := fs.recent[src.Seq]; ok {
			buf := make([]byte, shardLen)
			if _, err := rs.Pack(p, buf); err != nil {
				continue
			}
			shards[i] = buf
			present++
		} else {
			wanted = append(wanted, i)
		}
	}
	for idx, p := range dec.parity {
		if k+idx < len(shards) && len(p) == shardLen {
			shards[k+idx] = p
			present++
		}
	}
	if len(wanted) == 0 || present < k {
		return r.res // nothing to do, or not decodable yet
	}
	codec := r.codecs.Get(k, int(dec.meta.R))
	if codec == nil {
		return r.res
	}
	if err := codec.ReconstructData(shards); err != nil {
		return r.res
	}
	for _, i := range wanted {
		payload, err := rs.Unpack(shards[i])
		if err != nil {
			continue
		}
		src := dec.meta.Sources[i]
		if _, dup := fs.recent[src.Seq]; dup {
			continue
		}
		var recDelay core.Time
		if ms, ok := fs.missing[src.Seq]; ok {
			recDelay = now - ms.firstMiss
		}
		r.resolve(fs, src.Seq)
		r.stats.Recovered++
		r.stats.InStreamLocal++
		if fs.started && src.Seq >= fs.next {
			fs.next = src.Seq + 1
		}
		ph := wire.Header{Flow: src.Flow, Seq: src.Seq, TS: hdr.TS, Src: fs.src, Dst: r.cfg.Self}
		r.accept(now, fs, &ph, payload, true, core.ServiceCoding, recDelay)
	}
	delete(r.inDec, meta.Batch)
	return r.res
}

// OnCoopReq answers a cooperative-recovery request (§4.4 step 2→3): if the
// requested packet is in the recent window, return it to the DC. Ingress to
// the DC is free, so helpers answer unconditionally.
func (r *Receiver) OnCoopReq(now core.Time, hdr *wire.Header, ref *wire.CoopRef) Result {
	r.begin()
	fs := r.flows[hdr.Flow]
	if fs == nil {
		return r.res
	}
	payload, ok := fs.recent[hdr.Seq]
	if !ok {
		return r.res // we lost it too; DC treats us as a straggler
	}
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
	msg := make([]byte, 0, wire.HeaderLen+ref.MarshaledLen()+len(payload))
	msg = ref.AppendMarshal(wire.AppendMessage(msg, &respHdr, nil), payload)
	r.res.Emits = append(r.res.Emits, core.Emit{To: hdr.Src, Msg: msg})
	return r.res
}

// OnVerify answers DC2's spurious-recovery probe: still wanted only if the
// packet remains missing.
func (r *Receiver) OnVerify(now core.Time, hdr *wire.Header) Result {
	r.begin()
	r.stats.VerifyReplies++
	fs := r.flows[hdr.Flow]
	still := false
	if fs != nil {
		_, still = fs.missing[hdr.Seq]
	}
	respHdr := wire.Header{
		Type:    wire.TypeVerifyResp,
		Service: r.cfg.Service,
		Flow:    hdr.Flow,
		Seq:     hdr.Seq,
		TS:      now,
		Src:     r.cfg.Self,
		Dst:     hdr.Src,
	}
	if still {
		respHdr.Flags |= wire.FlagStillWanted
	}
	r.res.Emits = append(r.res.Emits, core.Emit{To: hdr.Src, Msg: wire.AppendMessage(nil, &respHdr, nil)})
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
	for _, fs := range r.flows {
		consider(fs.deadline)
		for _, ms := range fs.missing {
			consider(ms.firstMiss + r.cfg.GiveUpAfter)
			if r.cfg.NACKRetry > 0 && ms.nacks < r.cfg.MaxNACKs {
				consider(ms.nextNACK)
			}
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
	for _, fs := range r.flows {
		if fs.deadline != 0 && fs.deadline <= now {
			switch fs.state {
			case stateBurst:
				// Small timeout expired mid-burst: the next expected
				// packet is overdue → NACK and fall back to the long
				// timer (§3.4).
				if fs.started && r.noteMissing(now, fs, fs.next, true) {
					r.stats.TimerNACKs++
					fs.next++
				}
				if r.cfg.SingleTimer {
					fs.deadline = now + r.cfg.SmallTimeout
				} else {
					fs.state = stateIdle
					fs.deadline = now + r.cfg.RTT
				}
			case stateIdle:
				// Long timeout: one speculative NACK per silence
				// period, then disarm until traffic resumes.
				if fs.started && !fs.idleFired {
					fs.idleFired = true
					if r.noteMissing(now, fs, fs.next, true) {
						r.stats.IdleNACKs++
						fs.next++
					}
					fs.deadline = now + r.cfg.RTT
				} else {
					fs.deadline = 0
				}
			}
		}
		// Give-ups, and NACK retries in ascending seq order: the map's
		// order must not decide which retry draws which link jitter.
		r.due = r.due[:0]
		for seq, ms := range fs.missing {
			if now-ms.firstMiss >= r.cfg.GiveUpAfter {
				delete(fs.missing, seq)
				r.stats.GaveUp++
			} else if r.cfg.NACKRetry > 0 && ms.hasNACK && ms.nacks < r.cfg.MaxNACKs && ms.nextNACK <= now {
				r.due = append(r.due, seq)
			}
		}
		slices.Sort(r.due)
		for _, seq := range r.due {
			ms := fs.missing[seq]
			ms.nacks++
			ms.nextNACK = now + r.cfg.NACKRetry
			r.stats.RetryNACKs++
			r.nack(now, fs.id, seq, false)
		}
	}
	for batch, dec := range r.inDec {
		if dec.expires <= now {
			delete(r.inDec, batch)
		}
	}
	return r.res
}

// OutstandingLosses reports currently tracked missing packets (tests and
// metrics).
func (r *Receiver) OutstandingLosses() int {
	n := 0
	for _, fs := range r.flows {
		n += len(fs.missing)
	}
	return n
}

// String implements fmt.Stringer.
func (r *Receiver) String() string {
	return fmt.Sprintf("receiver(%v→dc%v: %d flows, %d missing)",
		r.cfg.Self, r.cfg.DC, len(r.flows), r.OutstandingLosses())
}
