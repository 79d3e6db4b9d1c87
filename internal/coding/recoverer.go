package coding

import (
	"fmt"
	"slices"

	"jqos/internal/core"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

// RecovererConfig tunes the DC2-side recovery engine.
type RecovererConfig struct {
	// BatchTTL is how long parity packets stay cached awaiting NACKs.
	BatchTTL core.Time
	// RecoveryDeadline bounds a cooperative recovery: if too few helper
	// responses arrive in time, the recovery fails silently (§4.4,
	// straggler cutoff).
	RecoveryDeadline core.Time
	// PendingTTL is how long an unmatched NACK waits for its parity to
	// arrive (the Δ wait of §6.1) before being dropped.
	PendingTTL core.Time
}

// DefaultRecovererConfig returns deployment defaults.
func DefaultRecovererConfig() RecovererConfig {
	return RecovererConfig{
		BatchTTL:         2e9,   // 2s: covers paper's 1–3s outages plus pull latency
		RecoveryDeadline: 250e6, // 250ms helper budget
		PendingTTL:       500e6,
	}
}

// RecovererStats counts recovery outcomes.
type RecovererStats struct {
	CodedStored     uint64
	NACKs           uint64
	InStreamServed  uint64 // NACKs answered with an in-stream parity packet
	CoopStarted     uint64
	CoopRecovered   uint64
	CoopFailed      uint64 // deadline passed without enough shards
	CoopReqsSent    uint64
	CoopRespsUsed   uint64
	StragglersSaved uint64 // recoveries that succeeded despite missing helpers
	Verifies        uint64
	PendingMatched  uint64 // parked NACKs satisfied by later parity
	PendingExpired  uint64
	Unrecoverable   uint64 // NACKs with no covering batch at all
}

// batchState is one coded batch cached at DC2.
type batchState struct {
	meta wire.Coded // Sources/K/R/Kind (Index varies per shard)
	// parity holds the batch's R shards by shard index (nil = not
	// received), so they are forwarded and decoded in index order. A
	// received shard is a copy into a buffer that is never nil (see
	// Recoverer.shardBuf): presence is the slot's, never a length, and an
	// empty shard is held all the same.
	parity   [][]byte
	held     int // non-nil parity shards
	shardLen int
	expires  core.Time // 0 once the batch is dropped
	// gen counts the drops of this state: a batchRef taken under another
	// gen names a batch that is gone, whatever the state holds now.
	gen uint64

	// A dropped batch's state is recycled (see Recoverer.spare) with the
	// capacity of its slices. A fresh state's parity and meta.Sources are
	// slices of these arrays, sized for the shapes a deployment codes with
	// (K ≤ 6, R ≤ 2); a larger batch — the wire allows 255 of each — grows
	// slices of its own.
	parityBuf  [2][]byte
	sourcesBuf [6]wire.SourceRef
}

// batchRef names one cached batch: its state, and the state's gen when the
// ref was taken. Once the batch is dropped the ref is stale for good, even
// after the state is recycled for another batch.
type batchRef struct {
	b   *batchState
	gen uint64
}

func (r batchRef) live() bool { return r.b.gen == r.gen }

// srcRef says the batch it names holds packet seq of the flow whose index
// holds the ref.
type srcRef struct {
	seq core.Seq
	batchRef
}

// flowIndex lists what the cached batches name of one flow, in arrival
// order: written for every source of every batch, read only for a NACKed
// packet, so a write is one ring slot and a read is a scan. A ref goes stale
// when its batch is dropped; it leaves from the head, or by compaction once
// a quarter are stale.
type flowIndex struct {
	lazyQueue[srcRef]
	batches int // refs whose batch is still cached
}

type recoveryKey struct {
	batch uint64
	want  core.PacketID
}

// recoveryState is one cooperative recovery in flight.
type recoveryState struct {
	key       recoveryKey
	requester core.NodeID
	// data holds the helpers' packets by batch position, each packed into
	// a shard buffer from the spare list (nil = no answer yet); got counts
	// them. They return to the list when the round ends.
	data     [][]byte
	got      int
	deadline core.Time // 0 once the recovery is finished
	helpers  int       // requests sent
	// dataBuf is data's array for a batch of the deployment's shapes
	// (K ≤ 6); a larger one grows a slice of its own.
	dataBuf [6][]byte
}

type pendingNACK struct {
	id         core.PacketID
	requester  core.NodeID
	expires    core.Time // 0 once the NACK is unparked
	wantVerify bool
	probed     bool
}

// Recoverer is the DC2-side CR-WAN engine: caches parity, answers NACKs,
// and runs cooperative recovery. Sans-IO like the Encoder, and like it
// returns Emits in its own buffer, valid until the next call into it.
//
// Every lifetime it keeps is "now + a configured constant" (BatchTTL,
// RecoveryDeadline, PendingTTL), so each kind of state is indexed by an
// expiryQueue: NextDeadline compares three queue heads and OnTimer pops
// only what is due, whatever the number of live batches. The now passed to
// the On* methods must never decrease (both hosts feed a monotonic clock);
// see expiryQueue for what a step back costs.
//
// What it keeps it recycles: a dropped batch's state (its source list and
// shard slots) and its shard buffers go to spare lists of at most maxSpare
// each, and the next batch and its shards are copied into them, so a batch
// allocates only while a list is empty or a shard outgrows its buffer. The
// buffers are spared apart from the states because batches differ in R: a
// state kept with its buffers would pin one unused beside every in-stream
// batch cached in a cross-stream batch's state. Every ref to a batch
// carries its state's gen, so a recycled state never answers for the batch
// it held before.
type Recoverer struct {
	cfg  RecovererConfig
	self core.NodeID

	batches map[uint64]*batchState
	// sources finds the batches covering a packet: one index per flow some
	// cached batch names, dropped with its last ref.
	sources    map[core.FlowID]*flowIndex
	recoveries map[recoveryKey]*recoveryState
	pending    map[core.PacketID]*pendingNACK
	// attempts tracks per-packet recovery escalation: first NACK gets the
	// cheap in-stream answer (when available), a repeat NACK escalates to
	// cooperative recovery.
	attempts map[core.PacketID]int
	// recent remembers freshly completed recoveries so retry NACKs that
	// raced the recovered packet do not trigger duplicate cooperative
	// rounds (and duplicate DC2 egress).
	recent map[core.PacketID]core.Time
	codecs *rs.Cache
	stats  RecovererStats

	// One expiry index per map above; an entry is live while its item
	// still carries the entry's time (a refresh moves it, removal zeroes
	// it).
	batchQ    expiryQueue[batchRef]
	recoveryQ expiryQueue[*recoveryState]
	pendingQ  expiryQueue[*pendingNACK]
	recentQ   expiryQueue[core.PacketID]

	// spare and spareShards hold dropped batches' states and shard buffers
	// for later batches, at most maxSpare each: enough for the batches
	// arriving as older ones expire; an idle recoverer holds no more.
	spare       []*batchState
	spareShards [][]byte

	emits  []core.Emit // the messages of the call in progress
	shards [][]byte    // tryDecode's shard table
}

// NewRecoverer builds the DC2 engine.
func NewRecoverer(self core.NodeID, cfg RecovererConfig) *Recoverer {
	if cfg.BatchTTL <= 0 || cfg.RecoveryDeadline <= 0 || cfg.PendingTTL <= 0 {
		panic("coding: recoverer TTLs must be positive")
	}
	r := &Recoverer{
		cfg:        cfg,
		self:       self,
		batches:    make(map[uint64]*batchState),
		sources:    make(map[core.FlowID]*flowIndex),
		recoveries: make(map[recoveryKey]*recoveryState),
		pending:    make(map[core.PacketID]*pendingNACK),
		attempts:   make(map[core.PacketID]int),
		recent:     make(map[core.PacketID]core.Time),
		codecs:     rs.NewCache(rs.DecoderShapes),
	}
	r.batchQ.live = func(e expiry[batchRef]) bool { return e.item.live() && e.item.b.expires == e.at }
	r.recoveryQ.live = func(e expiry[*recoveryState]) bool { return e.item.deadline == e.at }
	r.pendingQ.live = func(e expiry[*pendingNACK]) bool { return e.item.expires == e.at }
	r.recentQ.live = func(e expiry[core.PacketID]) bool { return r.recent[e.item] == e.at }
	return r
}

// Stats returns a copy of the counters.
func (r *Recoverer) Stats() RecovererStats { return r.stats }

// Batches returns the number of cached batches (for tests/metrics).
func (r *Recoverer) Batches() int { return len(r.batches) }

// OnCoded ingests a parity packet from DC1. If a parked NACK is covered by
// the new batch, recovery starts immediately ("delay in arrival of coded
// packets at DC2" is one of the paper's tail causes — parking hides it).
func (r *Recoverer) OnCoded(now core.Time, hdr *wire.Header, meta *wire.Coded, shard []byte) []core.Emit {
	r.emits = core.RecycleEmits(r.emits)
	if meta.Index >= meta.R || len(meta.Sources) != int(meta.K) {
		return nil // names a shard or a position its own batch does not have
	}
	b := r.batches[meta.Batch]
	if b == nil {
		b = r.newBatch(meta, len(shard))
		r.batches[meta.Batch] = b
		for _, src := range b.meta.Sources {
			x := r.sources[src.Flow]
			if x == nil {
				x = &flowIndex{lazyQueue: lazyQueue[srcRef]{live: srcRef.live}}
				r.sources[src.Flow] = x
			}
			x.batches++
			x.push(srcRef{src.Seq, batchRef{b, b.gen}}, x.batches+x.batches/4+compactSlack)
		}
	} else if int(meta.Index) >= len(b.parity) {
		return nil // disagrees with the batch's first shard about R
	}
	if expires := now + r.cfg.BatchTTL; b.expires != expires {
		b.expires = expires
		r.batchQ.push(expires, batchRef{b, b.gen}, len(r.batches))
	}
	if b.parity[meta.Index] == nil {
		b.parity[meta.Index] = append(r.shardBuf(len(shard)), shard...)
		b.held++
		r.stats.CodedStored++
	}
	// Wake any parked NACKs this batch can serve. Hard-evidence NACKs
	// recover immediately; speculative ones are verified first (the
	// direct packet may have arrived in the meantime).
	for _, src := range b.meta.Sources {
		id := core.PacketID{Flow: src.Flow, Seq: src.Seq}
		if p, ok := r.pending[id]; ok {
			if p.wantVerify {
				if !p.probed {
					p.probed = true
					r.stats.Verifies++
					hdr := wire.Header{
						Type: wire.TypeVerify, Service: core.ServiceCoding,
						Flow: id.Flow, Seq: id.Seq, TS: now, Src: r.self, Dst: p.requester,
					}
					r.emits = append(r.emits, core.Emit{To: p.requester, Msg: wire.AppendMessage(nil, &hdr, nil)})
				}
				continue
			}
			r.unpark(p)
			r.stats.PendingMatched++
			r.recover(now, id, p.requester, 0)
		}
	}
	return r.emits
}

// newBatch shapes a state for meta's batch, holding no shard yet: a spare
// one when there is one, else a fresh one.
func (r *Recoverer) newBatch(meta *wire.Coded, shardLen int) *batchState {
	var b *batchState
	if n := len(r.spare); n > 0 {
		b, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		b = new(batchState)
		b.meta.Sources, b.parity = b.sourcesBuf[:0], b.parityBuf[:0]
	}
	sources := b.meta.Sources
	b.meta = *meta
	b.meta.Sources = append(sources[:0], meta.Sources...)
	b.parity = slices.Grow(b.parity[:0], int(meta.R))[:meta.R] // all nil: dropBatch cleared them
	b.held, b.shardLen = 0, shardLen
	return b
}

// shardBuf returns an empty buffer for an n-byte shard: a spare one when
// there is one, else a fresh one. It is never nil, so a held empty shard is
// never taken for a missing one.
func (r *Recoverer) shardBuf(n int) []byte {
	if k := len(r.spareShards); k > 0 {
		buf := r.spareShards[k-1]
		r.spareShards = r.spareShards[:k-1]
		return buf[:0]
	}
	return make([]byte, 0, n)
}

// spareShard keeps buf for a later shard while the spare list has room.
func (r *Recoverer) spareShard(buf []byte) {
	if len(r.spareShards) < maxSpare {
		r.spareShards = append(r.spareShards, buf)
	}
}

// OnNACK handles a receiver's loss report (§4.4 step 1). from is the
// requesting receiver.
func (r *Recoverer) OnNACK(now core.Time, from core.NodeID, id core.PacketID, flags uint16) []core.Emit {
	r.emits = core.RecycleEmits(r.emits)
	r.stats.NACKs++
	r.recover(now, id, from, flags)
	return r.emits
}

// recover picks the recovery type for one missing packet and appends what
// it sends to r.emits.
func (r *Recoverer) recover(now core.Time, id core.PacketID, from core.NodeID, flags uint16) {
	if until, ok := r.recent[id]; ok && until > now {
		return // just recovered; the repaired packet is in flight
	}
	attempt := r.attempts[id]
	r.attempts[id] = attempt + 1

	inB, crossB := r.coveringBatches(id)
	_, parked := r.pending[id]
	switch {
	case inB != nil && (attempt == 0 || crossB == nil):
		// First line of defense: in-stream parity, decodable locally by
		// the receiver (it holds the sibling data packets). A repeat NACK
		// escalates past it, unless nothing but in-stream protection is
		// left to resend.
		r.stats.InStreamServed++
		r.sendParity(now, inB, from)
	case crossB != nil:
		r.startCoop(now, crossB, id, from)
	case !parked:
		// No covering batch (yet). Park the NACK. Speculative NACKs (the
		// receiver flagged uncertainty) will be verified with the receiver
		// when their parity arrives — "DC2 first checks with the receiver
		// before undertaking the recovery" (§3.4) — so recoveries that a
		// direct arrival has since made moot are never pushed.
		p := &pendingNACK{
			id: id, requester: from, expires: now + r.cfg.PendingTTL,
			wantVerify: flags&wire.FlagWantVerify != 0,
		}
		r.pending[id] = p
		r.pendingQ.push(p.expires, p, len(r.pending))
	}
}

// unpark takes a parked NACK out of the waiting set.
func (r *Recoverer) unpark(p *pendingNACK) {
	delete(r.pending, p.id)
	p.expires = 0
}

// coveringBatches finds the freshest in-stream and cross-stream batches
// still cached that include id.
func (r *Recoverer) coveringBatches(id core.PacketID) (in, cross *batchState) {
	x := r.sources[id.Flow]
	if x == nil {
		return nil, nil
	}
	for i := 0; i < x.Len(); i++ {
		switch e := x.At(i); {
		case e.seq != id.Seq || !e.live():
		case e.b.meta.Kind == wire.InStream:
			in = e.b
		default:
			cross = e.b
		}
	}
	return in, cross
}

// forgetUncovered drops id's escalation count once no cached batch names
// it: nothing else would clear it.
func (r *Recoverer) forgetUncovered(id core.PacketID) {
	if _, counted := r.attempts[id]; counted {
		if in, cross := r.coveringBatches(id); in == nil && cross == nil {
			delete(r.attempts, id)
		}
	}
}

// sendParity forwards a batch's parity shards to the receiver for local
// decode (in-stream recovery: latency y + 2δ, no helpers involved), in
// shard-index order.
func (r *Recoverer) sendParity(now core.Time, b *batchState, to core.NodeID) {
	for idx, shard := range b.parity {
		if shard == nil {
			continue
		}
		meta := b.meta
		meta.Index = uint8(idx)
		meta.ShardLen = uint16(len(shard))
		hdr := wire.Header{
			Type: wire.TypeCoded, Service: core.ServiceCoding,
			TS: now, Src: r.self, Dst: to,
		}
		msg := make([]byte, 0, wire.HeaderLen+meta.MarshaledLen()+len(shard))
		msg = meta.AppendMarshal(wire.AppendMessage(msg, &hdr, nil), shard)
		r.emits = append(r.emits, core.Emit{To: to, Msg: msg})
	}
}

// startCoop launches cooperative recovery (§4.4 step 2): ask every helper
// receiver in the batch for its data packet.
func (r *Recoverer) startCoop(now core.Time, b *batchState, id core.PacketID, from core.NodeID) {
	key := recoveryKey{batch: b.meta.Batch, want: id}
	if r.recoveries[key] != nil {
		return // already in flight
	}
	rec := &recoveryState{
		key:       key,
		requester: from,
		deadline:  now + r.cfg.RecoveryDeadline,
	}
	rec.data = slices.Grow(rec.dataBuf[:0], len(b.meta.Sources))[:len(b.meta.Sources)]
	r.recoveries[key] = rec
	r.recoveryQ.push(rec.deadline, rec, len(r.recoveries))
	r.stats.CoopStarted++
	for _, src := range b.meta.Sources {
		sid := core.PacketID{Flow: src.Flow, Seq: src.Seq}
		if sid == id {
			continue // the missing packet itself
		}
		if src.Receiver == from {
			continue // the requester cannot help with its own path
		}
		ref := wire.CoopRef{Batch: b.meta.Batch, Want: id}
		hdr := wire.Header{
			Type: wire.TypeCoopReq, Service: core.ServiceCoding,
			Flow: src.Flow, Seq: src.Seq, TS: now, Src: r.self, Dst: src.Receiver,
		}
		msg := make([]byte, 0, wire.HeaderLen+ref.MarshaledLen())
		msg = ref.AppendMarshal(wire.AppendMessage(msg, &hdr, nil), nil)
		r.emits = append(r.emits, core.Emit{To: src.Receiver, Msg: msg})
		rec.helpers++
		r.stats.CoopReqsSent++
	}
	// Degenerate batch (k=1 or no helpers): try to decode from parity
	// alone — with systematic RS this only works when parity count ≥ k.
	r.tryDecode(now, rec)
}

// OnCoopResp ingests a helper's data packet (§4.4 step 3) and decodes when
// enough shards are present.
func (r *Recoverer) OnCoopResp(now core.Time, hdr *wire.Header, ref *wire.CoopRef, payload []byte) []core.Emit {
	r.emits = core.RecycleEmits(r.emits)
	key := recoveryKey{batch: ref.Batch, want: ref.Want}
	rec := r.recoveries[key]
	if rec == nil {
		return nil
	}
	b := r.batches[ref.Batch]
	if b == nil {
		return nil
	}
	pos := b.sourcePos(hdr.ID())
	if pos < 0 || pos >= len(rec.data) {
		return nil // response names a packet outside the batch
	}
	if rec.data[pos] != nil {
		return nil
	}
	shard := slices.Grow(r.shardBuf(b.shardLen), b.shardLen)[:b.shardLen]
	if _, err := rs.Pack(payload, shard); err != nil {
		r.spareShard(shard)
		return nil // oversized/corrupt response; straggler handling covers it
	}
	rec.data[pos] = shard
	rec.got++
	r.stats.CoopRespsUsed++
	r.tryDecode(now, rec)
	return r.emits
}

// sourcePos returns the batch position of a packet, or -1.
func (b *batchState) sourcePos(id core.PacketID) int {
	for i, src := range b.meta.Sources {
		if src.Flow == id.Flow && src.Seq == id.Seq {
			return i
		}
	}
	return -1
}

// tryDecode reconstructs the wanted packet once data+parity ≥ k and
// appends it to r.emits.
func (r *Recoverer) tryDecode(now core.Time, rec *recoveryState) {
	b := r.batches[rec.key.batch]
	if b == nil {
		return
	}
	k := int(b.meta.K)
	if rec.got+b.held < k {
		return
	}
	shards := slices.Grow(r.shards[:0], k+len(b.parity))[:k+len(b.parity)]
	r.shards = shards
	defer clear(shards) // all nil between calls: it pins no shard
	copy(shards[:k], rec.data)
	copy(shards[k:], b.parity)
	// The shape came off the wire: no such code is a forgery. Too few
	// shards or inconsistent sizes: wait for more.
	if err := r.codecs.ReconstructData(k, len(b.parity), shards); err != nil {
		return
	}
	wantPos := b.sourcePos(rec.key.want)
	if wantPos < 0 {
		return
	}
	payload, err := rs.Unpack(shards[wantPos])
	if err != nil {
		return
	}
	if until := now + r.cfg.RecoveryDeadline; r.recent[rec.key.want] != until {
		r.recent[rec.key.want] = until
		r.recentQ.push(until, rec.key.want, len(r.recent))
	}
	r.stats.CoopRecovered++
	if rec.got < rec.helpers {
		r.stats.StragglersSaved++
	}
	hdr := wire.Header{
		Type: wire.TypeRecovered, Service: core.ServiceCoding,
		Flow: rec.key.want.Flow, Seq: rec.key.want.Seq,
		TS: now, Src: r.self, Dst: rec.requester,
	}
	r.emits = append(r.emits, core.Emit{To: rec.requester, Msg: wire.AppendMessage(nil, &hdr, payload)})
	r.endRound(rec) // payload is copied out: a helper's shard may hold it
}

// endRound finishes a cooperative round, recovered or failed: the
// helpers' shard buffers go back to the spare list.
func (r *Recoverer) endRound(rec *recoveryState) {
	delete(r.recoveries, rec.key)
	rec.deadline = 0
	for _, d := range rec.data {
		if d != nil {
			r.spareShard(d)
		}
	}
	clear(rec.data)
}

// OnVerifyResp resolves a verify probe: a still-wanted packet proceeds to
// recovery; otherwise the parked NACK was spurious and is dropped.
func (r *Recoverer) OnVerifyResp(now core.Time, hdr *wire.Header) []core.Emit {
	r.emits = core.RecycleEmits(r.emits)
	id := hdr.ID()
	p, ok := r.pending[id]
	if ok {
		r.unpark(p)
	}
	if hdr.Flags&wire.FlagStillWanted == 0 {
		delete(r.attempts, id)
		return nil
	}
	if !ok {
		return nil
	}
	r.stats.PendingMatched++
	r.recover(now, id, p.requester, 0)
	return r.emits
}

// NextDeadline reports the earliest engine timeout: the sooner of the
// oldest batch's expiry, the oldest recovery's deadline and the oldest
// parked NACK's.
func (r *Recoverer) NextDeadline() (core.Time, bool) {
	min, found := r.batchQ.next()
	if d, ok := r.recoveryQ.next(); ok && (!found || d < min) {
		min, found = d, true
	}
	if d, ok := r.pendingQ.next(); ok && (!found || d < min) {
		min, found = d, true
	}
	return min, found
}

// OnTimer expires batches, fails silent recoveries past deadline, and
// drops stale parked NACKs. It emits nothing.
func (r *Recoverer) OnTimer(now core.Time) []core.Emit {
	for ref, ok := r.batchQ.popDue(now); ok; ref, ok = r.batchQ.popDue(now) {
		r.dropBatch(ref.b)
	}
	for rec, ok := r.recoveryQ.popDue(now); ok; rec, ok = r.recoveryQ.popDue(now) {
		r.stats.CoopFailed++
		r.endRound(rec)
	}
	for p, ok := r.pendingQ.popDue(now); ok; p, ok = r.pendingQ.popDue(now) {
		r.unpark(p)
		r.stats.PendingExpired++
		r.stats.Unrecoverable++
		r.forgetUncovered(p.id)
	}
	for id, ok := r.recentQ.popDue(now); ok; id, ok = r.recentQ.popDue(now) {
		delete(r.recent, id)
	}
	return nil
}

// dropBatch drops b: its refs go stale, and its state and shard buffers are
// spared for later batches while there is room. The state lets go of its
// shards either way, so a stale ref pins none.
func (r *Recoverer) dropBatch(b *batchState) {
	delete(r.batches, b.meta.Batch)
	b.expires = 0
	b.gen++
	for _, shard := range b.parity {
		if shard != nil {
			r.spareShard(shard)
		}
	}
	clear(b.parity)
	if len(r.spare) < maxSpare {
		r.spare = append(r.spare, b)
	}
	for _, src := range b.meta.Sources {
		// nil: an earlier source of the same flow emptied the index.
		if x := r.sources[src.Flow]; x != nil {
			x.batches--
			if x.trim(); x.Len() == 0 {
				delete(r.sources, src.Flow)
			}
		}
		r.forgetUncovered(core.PacketID{Flow: src.Flow, Seq: src.Seq})
	}
}

// String implements fmt.Stringer for debugging.
func (r *Recoverer) String() string {
	return fmt.Sprintf("recoverer(%v: %d batches, %d recoveries, %d pending)",
		r.self, len(r.batches), len(r.recoveries), len(r.pending))
}
