package coding

import (
	"fmt"

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
	// VerifyFirst enables the spurious-recovery check: a NACK arriving
	// before its parity triggers a TypeVerify probe to the receiver
	// instead of immediately parking (§3.4).
	VerifyFirst bool
}

// DefaultRecovererConfig returns deployment defaults.
func DefaultRecovererConfig() RecovererConfig {
	return RecovererConfig{
		BatchTTL:         2e9,   // 2s: covers paper's 1–3s outages plus pull latency
		RecoveryDeadline: 250e6, // 250ms helper budget
		PendingTTL:       500e6,
		VerifyFirst:      true,
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
	// received), so they are forwarded and decoded in index order.
	parity   [][]byte
	held     int // non-nil parity shards
	shardLen int
	expires  core.Time // 0 once the batch is dropped
}

type recoveryKey struct {
	batch uint64
	want  core.PacketID
}

// recoveryState is one cooperative recovery in flight.
type recoveryState struct {
	key       recoveryKey
	requester core.NodeID
	data      map[int][]byte // batch position -> packed data shard
	deadline  core.Time      // 0 once the recovery is finished
	helpers   int            // requests sent
}

type pendingNACK struct {
	id         core.PacketID
	requester  core.NodeID
	expires    core.Time // 0 once the NACK is unparked
	wantVerify bool
	probed     bool
}

// Recoverer is the DC2-side CR-WAN engine: caches parity, answers NACKs,
// and runs cooperative recovery. Sans-IO like the Encoder.
//
// Every lifetime it keeps is "now + a configured constant" (BatchTTL,
// RecoveryDeadline, PendingTTL), so each kind of state is indexed by an
// expiryQueue: NextDeadline compares three queue heads and OnTimer pops
// only what is due, whatever the number of live batches. The now passed to
// the On* methods must never decrease (both hosts feed a monotonic clock);
// see expiryQueue for what a step back costs.
type Recoverer struct {
	cfg  RecovererConfig
	self core.NodeID

	batches    map[uint64]*batchState
	byPacket   map[core.PacketID][]uint64
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
	batchQ    expiryQueue[*batchState]
	recoveryQ expiryQueue[*recoveryState]
	pendingQ  expiryQueue[*pendingNACK]
	recentQ   expiryQueue[core.PacketID]
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
		byPacket:   make(map[core.PacketID][]uint64),
		recoveries: make(map[recoveryKey]*recoveryState),
		pending:    make(map[core.PacketID]*pendingNACK),
		attempts:   make(map[core.PacketID]int),
		recent:     make(map[core.PacketID]core.Time),
		codecs:     rs.NewCache(rs.DecoderShapes),
	}
	r.batchQ.live = func(at core.Time, b *batchState) bool { return b.expires == at }
	r.recoveryQ.live = func(at core.Time, rec *recoveryState) bool { return rec.deadline == at }
	r.pendingQ.live = func(at core.Time, p *pendingNACK) bool { return p.expires == at }
	r.recentQ.live = func(at core.Time, id core.PacketID) bool { return r.recent[id] == at }
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
	if meta.Index >= meta.R || len(meta.Sources) != int(meta.K) {
		return nil // names a shard or a position its own batch does not have
	}
	b := r.batches[meta.Batch]
	if b == nil {
		b = &batchState{
			meta:     *meta,
			parity:   make([][]byte, meta.R),
			shardLen: len(shard),
		}
		b.meta.Sources = append([]wire.SourceRef(nil), meta.Sources...)
		r.batches[meta.Batch] = b
		for _, src := range b.meta.Sources {
			id := core.PacketID{Flow: src.Flow, Seq: src.Seq}
			r.byPacket[id] = append(r.byPacket[id], meta.Batch)
		}
	} else if int(meta.Index) >= len(b.parity) {
		return nil // disagrees with the batch's first shard about R
	}
	if expires := now + r.cfg.BatchTTL; b.expires != expires {
		b.expires = expires
		r.batchQ.push(expires, b, len(r.batches))
	}
	if b.parity[meta.Index] == nil {
		b.parity[meta.Index] = append([]byte{}, shard...)
		b.held++
		r.stats.CodedStored++
	}
	// Wake any parked NACKs this batch can serve. Hard-evidence NACKs
	// recover immediately; speculative ones are verified first (the
	// direct packet may have arrived in the meantime).
	var emits []core.Emit
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
					emits = append(emits, core.Emit{To: p.requester, Msg: wire.AppendMessage(nil, &hdr, nil)})
				}
				continue
			}
			r.unpark(p)
			r.stats.PendingMatched++
			emits = append(emits, r.recover(now, id, p.requester, 0)...)
		}
	}
	return emits
}

// OnNACK handles a receiver's loss report (§4.4 step 1). from is the
// requesting receiver.
func (r *Recoverer) OnNACK(now core.Time, from core.NodeID, id core.PacketID, flags uint16) []core.Emit {
	r.stats.NACKs++
	return r.recover(now, id, from, flags)
}

// recover picks the recovery type for one missing packet.
func (r *Recoverer) recover(now core.Time, id core.PacketID, from core.NodeID, flags uint16) []core.Emit {
	if until, ok := r.recent[id]; ok && until > now {
		return nil // just recovered; the repaired packet is in flight
	}
	attempt := r.attempts[id]
	r.attempts[id] = attempt + 1

	inB, crossB := r.coveringBatches(id)
	// First line of defense: in-stream parity, decodable locally by the
	// receiver (it holds the sibling data packets). Escalate past it on
	// a repeat NACK.
	if inB != nil && attempt == 0 {
		r.stats.InStreamServed++
		return r.sendParity(now, inB, from)
	}
	if crossB != nil {
		return r.startCoop(now, crossB, id, from)
	}
	if inB != nil {
		// Nothing but in-stream protection left; resend it.
		r.stats.InStreamServed++
		return r.sendParity(now, inB, from)
	}
	// No covering batch (yet). Park the NACK. Speculative NACKs (the
	// receiver flagged uncertainty) will be verified with the receiver
	// when their parity arrives — "DC2 first checks with the receiver
	// before undertaking the recovery" (§3.4) — so recoveries that a
	// direct arrival has since made moot are never pushed.
	if _, parked := r.pending[id]; !parked {
		p := &pendingNACK{
			id: id, requester: from, expires: now + r.cfg.PendingTTL,
			wantVerify: r.cfg.VerifyFirst && flags&wire.FlagWantVerify != 0,
		}
		r.pending[id] = p
		r.pendingQ.push(p.expires, p, len(r.pending))
	}
	return nil
}

// unpark takes a parked NACK out of the waiting set.
func (r *Recoverer) unpark(p *pendingNACK) {
	delete(r.pending, p.id)
	p.expires = 0
}

// coveringBatches finds the freshest in-stream and cross-stream batches
// that include id and still hold parity.
func (r *Recoverer) coveringBatches(id core.PacketID) (in, cross *batchState) {
	for _, bid := range r.byPacket[id] {
		b := r.batches[bid]
		if b == nil || b.held == 0 {
			continue
		}
		if b.meta.Kind == wire.InStream {
			in = b
		} else {
			cross = b
		}
	}
	return in, cross
}

// sendParity forwards a batch's parity shards to the receiver for local
// decode (in-stream recovery: latency y + 2δ, no helpers involved), in
// shard-index order.
func (r *Recoverer) sendParity(now core.Time, b *batchState, to core.NodeID) []core.Emit {
	emits := make([]core.Emit, 0, b.held)
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
		payload := meta.AppendMarshal(nil, shard)
		emits = append(emits, core.Emit{To: to, Msg: wire.AppendMessage(nil, &hdr, payload)})
	}
	return emits
}

// startCoop launches cooperative recovery (§4.4 step 2): ask every helper
// receiver in the batch for its data packet.
func (r *Recoverer) startCoop(now core.Time, b *batchState, id core.PacketID, from core.NodeID) []core.Emit {
	key := recoveryKey{batch: b.meta.Batch, want: id}
	if r.recoveries[key] != nil {
		return nil // already in flight
	}
	rec := &recoveryState{
		key:       key,
		requester: from,
		data:      make(map[int][]byte),
		deadline:  now + r.cfg.RecoveryDeadline,
	}
	r.recoveries[key] = rec
	r.recoveryQ.push(rec.deadline, rec, len(r.recoveries))
	r.stats.CoopStarted++
	var emits []core.Emit
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
		msg := wire.AppendMessage(nil, &hdr, ref.AppendMarshal(nil, nil))
		emits = append(emits, core.Emit{To: src.Receiver, Msg: msg})
		rec.helpers++
		r.stats.CoopReqsSent++
	}
	// Degenerate batch (k=1 or no helpers): try to decode from parity
	// alone — with systematic RS this only works when parity count ≥ k.
	emits = append(emits, r.tryDecode(now, rec)...)
	return emits
}

// OnCoopResp ingests a helper's data packet (§4.4 step 3) and decodes when
// enough shards are present.
func (r *Recoverer) OnCoopResp(now core.Time, hdr *wire.Header, ref *wire.CoopRef, payload []byte) []core.Emit {
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
	if pos < 0 {
		return nil // response names a packet outside the batch
	}
	if _, dup := rec.data[pos]; dup {
		return nil
	}
	shard := make([]byte, b.shardLen)
	if _, err := rs.Pack(payload, shard); err != nil {
		return nil // oversized/corrupt response; straggler handling covers it
	}
	rec.data[pos] = shard
	r.stats.CoopRespsUsed++
	return r.tryDecode(now, rec)
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

// tryDecode reconstructs and delivers the wanted packet once
// data+parity ≥ k.
func (r *Recoverer) tryDecode(now core.Time, rec *recoveryState) []core.Emit {
	b := r.batches[rec.key.batch]
	if b == nil {
		return nil
	}
	k := int(b.meta.K)
	if len(rec.data)+b.held < k {
		return nil
	}
	codec := r.codecs.Get(k, len(b.parity))
	if codec == nil {
		return nil // the shape came off the wire: no such code, a forgery
	}
	shards := make([][]byte, k+len(b.parity))
	for pos, d := range rec.data {
		shards[pos] = d
	}
	copy(shards[k:], b.parity)
	if err := codec.ReconstructData(shards); err != nil {
		return nil // not enough yet (or inconsistent sizes); wait for more
	}
	wantPos := b.sourcePos(rec.key.want)
	if wantPos < 0 {
		return nil
	}
	payload, err := rs.Unpack(shards[wantPos])
	if err != nil {
		return nil
	}
	rec.deadline = 0
	delete(r.recoveries, rec.key)
	if until := now + r.cfg.RecoveryDeadline; r.recent[rec.key.want] != until {
		r.recent[rec.key.want] = until
		r.recentQ.push(until, rec.key.want, len(r.recent))
	}
	r.stats.CoopRecovered++
	if len(rec.data) < rec.helpers {
		r.stats.StragglersSaved++
	}
	hdr := wire.Header{
		Type: wire.TypeRecovered, Service: core.ServiceCoding,
		Flow: rec.key.want.Flow, Seq: rec.key.want.Seq,
		TS: now, Src: r.self, Dst: rec.requester,
	}
	return []core.Emit{{To: rec.requester, Msg: wire.AppendMessage(nil, &hdr, payload)}}
}

// OnVerifyResp resolves a verify probe: a still-wanted packet proceeds to
// recovery; otherwise the parked NACK was spurious and is dropped.
func (r *Recoverer) OnVerifyResp(now core.Time, hdr *wire.Header) []core.Emit {
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
	return r.recover(now, id, p.requester, 0)
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
	for b, ok := r.batchQ.popDue(now); ok; b, ok = r.batchQ.popDue(now) {
		bid := b.meta.Batch
		for _, src := range b.meta.Sources {
			id := core.PacketID{Flow: src.Flow, Seq: src.Seq}
			r.byPacket[id] = removeBatch(r.byPacket[id], bid)
			if len(r.byPacket[id]) == 0 {
				delete(r.byPacket, id)
				delete(r.attempts, id)
			}
		}
		delete(r.batches, bid)
		b.expires = 0
	}
	for rec, ok := r.recoveryQ.popDue(now); ok; rec, ok = r.recoveryQ.popDue(now) {
		r.stats.CoopFailed++
		delete(r.recoveries, rec.key)
		rec.deadline = 0
	}
	for p, ok := r.pendingQ.popDue(now); ok; p, ok = r.pendingQ.popDue(now) {
		r.unpark(p)
		r.stats.PendingExpired++
		r.stats.Unrecoverable++
		// The escalation count of a packet no batch covers has nothing
		// else to clear it.
		if len(r.byPacket[p.id]) == 0 {
			delete(r.attempts, p.id)
		}
	}
	for id, ok := r.recentQ.popDue(now); ok; id, ok = r.recentQ.popDue(now) {
		delete(r.recent, id)
	}
	return nil
}

func removeBatch(s []uint64, bid uint64) []uint64 {
	for i, v := range s {
		if v == bid {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// String implements fmt.Stringer for debugging.
func (r *Recoverer) String() string {
	return fmt.Sprintf("recoverer(%v: %d batches, %d recoveries, %d pending)",
		r.self, len(r.batches), len(r.recoveries), len(r.pending))
}
