// Package cache implements the J-QoS caching service (§3.2): short-term,
// in-memory storage of packets at a data center, indexed by packet identity,
// with TTL expiry and byte-bounded eviction. Receivers pull missing packets
// (loss recovery), disconnected receivers drain their flow's backlog
// (mobility/DTN rendezvous, Figure 3e), and hybrid multicast receivers
// repair from the cached copy (Figure 3d).
package cache

import (
	"cmp"
	"slices"

	"jqos/internal/core"
	"jqos/internal/ring"
)

// Stats counts cache effectiveness for experiments.
type Stats struct {
	Puts      uint64
	Hits      uint64
	Misses    uint64
	Expired   uint64
	Evicted   uint64
	BytesHeld uint64
}

// entry is one cached packet, linked into the store's expiry FIFO — or, once
// out of the cache, into the spare list (by next alone), payload buffer kept.
type entry struct {
	id         core.PacketID
	payload    []byte
	expires    core.Time
	prev, next *entry
}

// maxSpare bounds the spare list: enough for the puts landing in one instant
// to reuse what that instant's expiry freed; an idle cache holds no more.
const maxSpare = 64

// seqIndex is one flow's cached seqs in insertion order. TTL expiry and
// byte-cap eviction both take the store's oldest entry, which is its flow's
// oldest too unless a re-Put moved it back in the expiry order — so the
// front leaves in O(1) and the ring is reused as the flow keeps sending;
// only that re-Put case searches and closes a gap.
type seqIndex struct{ ring.Ring[core.Seq] }

func (x *seqIndex) remove(q core.Seq) {
	for i := 0; i < x.Len(); i++ {
		if *x.At(i) == q {
			x.Delete(i)
			return
		}
	}
}

// Store is the DC-side packet cache. The zero value is not usable; call
// NewStore. Store is not safe for concurrent use: in the simulator it runs
// single-goroutine, and the UDP runtime serializes access per relay loop.
type Store struct {
	ttl      core.Time
	maxBytes uint64

	items map[core.PacketID]*entry
	// flows indexes cached seqs per flow in insertion order, supporting
	// DrainFlow for the mobility rendezvous use case. A flow's ring is
	// dropped when its last packet leaves, so idle flows cost nothing.
	flows map[core.FlowID]*seqIndex
	// fifo is the sentinel of a circular list ordering entries by expiry
	// (constant TTL ⇒ insertion order): fifo.next is the oldest.
	fifo entry
	// spare lists up to maxSpare expired or evicted entries for Put to reuse.
	spare  *entry
	spares int
	bytes  uint64
	stats  Stats
}

// NewStore creates a cache holding packets for ttl, bounded to maxBytes of
// payload (0 = unbounded).
func NewStore(ttl core.Time, maxBytes uint64) *Store {
	if ttl <= 0 {
		panic("cache: TTL must be positive")
	}
	s := &Store{
		ttl:      ttl,
		maxBytes: maxBytes,
		items:    make(map[core.PacketID]*entry),
		flows:    make(map[core.FlowID]*seqIndex),
	}
	s.fifo.prev, s.fifo.next = &s.fifo, &s.fifo
	return s
}

// pushBack makes e the newest entry of the expiry FIFO.
func (s *Store) pushBack(e *entry) {
	e.prev, e.next = s.fifo.prev, &s.fifo
	e.prev.next, s.fifo.prev = e, e
}

// TTL returns the configured packet lifetime.
func (s *Store) TTL() core.Time { return s.ttl }

// Len returns the number of cached packets.
func (s *Store) Len() int { return len(s.items) }

// Stats returns a copy of the counters.
func (s *Store) Stats() Stats {
	st := s.stats
	st.BytesHeld = s.bytes
	return st
}

// Put caches a packet payload under id. The payload is copied. Re-putting
// an existing id refreshes the payload and its TTL (the paper's senders
// never reuse seqs, but retransmissions can race with duplication).
func (s *Store) Put(now core.Time, id core.PacketID, payload []byte) {
	s.expire(now)
	if e, ok := s.items[id]; ok {
		s.bytes -= uint64(len(e.payload))
		s.bytes += uint64(len(payload))
		e.payload = append(e.payload[:0], payload...)
		e.expires = now + s.ttl
		e.prev.next, e.next.prev = e.next, e.prev
		s.pushBack(e)
	} else {
		e := s.spare
		if e == nil {
			e = &entry{}
		} else {
			s.spare, s.spares = e.next, s.spares-1
		}
		// A spare's buffer is reused unless the payload would rattle in it:
		// small packets in MTU-sized buffers trade the allocation for heap.
		if cap(e.payload) > 2*len(payload) {
			e.payload = nil
		}
		e.id, e.payload, e.expires = id, append(e.payload[:0], payload...), now+s.ttl
		s.pushBack(e)
		s.items[id] = e
		seqs := s.flows[id.Flow]
		if seqs == nil {
			seqs = &seqIndex{}
			s.flows[id.Flow] = seqs
		}
		seqs.Push(id.Seq)
		s.bytes += uint64(len(payload))
	}
	s.stats.Puts++
	if s.maxBytes > 0 {
		for s.bytes > s.maxBytes && len(s.items) > 0 {
			s.remove(s.fifo.next)
			s.stats.Evicted++
		}
	}
}

// Get returns the cached payload for id, if present and unexpired. The
// returned slice is owned by the cache — a later Put may reuse its bytes —
// so callers must copy if they retain it beyond their call frame.
func (s *Store) Get(now core.Time, id core.PacketID) ([]byte, bool) {
	s.expire(now)
	e, ok := s.items[id]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	return e.payload, true
}

// DrainFlow returns the cached packets of a flow with sequence > after, in
// sequence order (a jittered access link may have delivered them in another)
// — the mobility pull: a receiver coming online retrieves everything it
// missed (Figure 3e). Entries remain cached (multiple receivers may drain the
// same flow in a multicast).
func (s *Store) DrainFlow(now core.Time, flow core.FlowID, after core.Seq) []core.PacketID {
	s.expire(now)
	seqs := s.flows[flow]
	if seqs == nil {
		return nil
	}
	var out []core.PacketID
	for i := 0; i < seqs.Len(); i++ {
		if seq := *seqs.At(i); seq > after {
			out = append(out, core.PacketID{Flow: flow, Seq: seq})
		}
	}
	slices.SortFunc(out, func(a, b core.PacketID) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// expire drops entries whose TTL passed.
func (s *Store) expire(now core.Time) {
	for e := s.fifo.next; e != &s.fifo && e.expires <= now; e = s.fifo.next {
		s.remove(e)
		s.stats.Expired++
	}
}

// remove takes e out of the cache and, while there is room, spares it.
func (s *Store) remove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	delete(s.items, e.id)
	s.bytes -= uint64(len(e.payload))
	// Drop the seq from the flow index now, so DrainFlow stays linear in
	// live entries.
	seqs := s.flows[e.id.Flow]
	seqs.remove(e.id.Seq)
	if seqs.Len() == 0 {
		delete(s.flows, e.id.Flow)
	}
	e.prev, e.next = nil, nil
	if s.spares < maxSpare {
		e.next, s.spare = s.spare, e
		s.spares++
	}
}
