// Package cache implements the J-QoS caching service (§3.2): short-term,
// in-memory storage of packets at a data center, indexed by packet identity,
// with TTL expiry and byte-bounded eviction. Receivers pull missing packets
// (loss recovery), disconnected receivers drain their flow's backlog
// (mobility/DTN rendezvous, Figure 3e), and hybrid multicast receivers
// repair from the cached copy (Figure 3d).
//
// A cached packet is a slot held by value in a page of pageSize slots, slot
// i of page n holding seq n·pageSize + i. A flow's window is a directory of
// the pages from its lowest to its highest cached seq, a page allocated only
// while it holds a packet. One put-order ring of refs drives TTL expiry and
// byte-cap eviction. So the store keeps no map of packets and no heap object
// per packet, its memory follows the packets it holds rather than the seqs
// they span, and a steady Put reuses the page and payload buffer that expiry
// freed.
package cache

import (
	"jqos/internal/core"
	"jqos/internal/ring"
)

// Stats counts cache effectiveness for experiments.
type Stats struct {
	Puts    uint64
	Hits    uint64
	Misses  uint64
	Expired uint64
	// Evicted counts the packets dropped before their TTL: by the byte
	// bound, and at the far end of a window that a Put would make too
	// sparse (see dirPerPage).
	Evicted   uint64
	BytesHeld uint64
}

// maxSpare bounds each spare list, of payload buffers, pages and windows:
// enough for the puts landing in one instant to reuse what that instant's
// expiry freed; an idle cache holds no more.
const maxSpare = 64

const (
	pageBits = 4
	pageSize = 1 << pageBits
)

// A window's directory may span at most dirPerPage entries per page it
// holds, plus dirSlack: a Put of a seq further out first evicts the
// window's far end. The relay takes seqs from untrusted datagrams, so a
// directory sized by the distance to a forged seq would be of any size;
// a flow's own traffic fills its pages, lost packets and all, and never
// comes near the bound.
const dirPerPage, dirSlack = 4, 32

// slot is one cached packet. A nil payload is an empty slot: a held payload
// is never nil, even when empty. put numbers the Put that stored it.
type slot struct {
	payload []byte
	put     uint64
}

type page [pageSize]slot

// dirEntry is one page of a window's directory, with the count of its held
// slots; a page that holds nothing is nil.
type dirEntry struct {
	p *page
	n int
}

// window is one flow's cached packets: dir entry i is page first+i. The
// first and last entries hold a page, and the store drops the window when
// its last packet leaves.
type window struct {
	flow  core.FlowID
	first uint64
	dir   ring.Ring[dirEntry]
	pages int // non-nil entries
}

// find returns seq's slot and its page's entry, or a nil slot if seq is
// not cached.
func (w *window) find(seq core.Seq) (*dirEntry, *slot) {
	// Unsigned, a page below first is as far out as one past the end.
	if i := uint64(seq>>pageBits) - w.first; i < uint64(w.dir.Len()) {
		if e := w.dir.At(int(i)); e.p != nil && e.p[seq%pageSize].payload != nil {
			return e, &e.p[seq%pageSize]
		}
	}
	return nil, nil
}

// ref names a cached packet in the store's put order. It is stale once its
// slot holds nothing or a later Put (slot.put differs).
type ref struct {
	w       *window
	seq     core.Seq
	put     uint64
	expires core.Time
}

// Store is the DC-side packet cache. The zero value is not usable; call
// NewStore. Store is not safe for concurrent use: in the simulator it runs
// single-goroutine, and the UDP runtime serializes access per relay loop.
type Store struct {
	ttl      core.Time
	maxBytes uint64

	// flows holds the window of every flow with a cached packet.
	flows map[core.FlowID]*window
	// order refs every cached packet, oldest Put first: expiry order, as
	// the TTL is constant and the clock never steps back. A re-Put leaves
	// its old ref stale rather than search for it.
	order ring.Ring[ref]
	// spare, sparePages and spareWindows hold up to maxSpare payload
	// buffers, pages and flow windows that packets left. A recycled window
	// may still be named by stale refs: their put stamps keep them stale.
	spare        [][]byte
	sparePages   []*page
	spareWindows []*window
	n            int
	bytes        uint64
	stats        Stats
}

// NewStore creates a cache holding packets for ttl, bounded to maxBytes of
// payload (0 = unbounded).
func NewStore(ttl core.Time, maxBytes uint64) *Store {
	if ttl <= 0 {
		panic("cache: TTL must be positive")
	}
	return &Store{
		ttl:      ttl,
		maxBytes: maxBytes,
		flows:    make(map[core.FlowID]*window),
		spare:    make([][]byte, 0, maxSpare),
	}
}

// TTL returns the configured packet lifetime.
func (s *Store) TTL() core.Time { return s.ttl }

// Len returns the number of cached packets.
func (s *Store) Len() int { return s.n }

// Stats returns a copy of the counters.
func (s *Store) Stats() Stats {
	st := s.stats
	st.BytesHeld = s.bytes
	return st
}

// Put caches a packet payload under id. The payload is copied. Re-putting
// an existing id refreshes the payload and its TTL (the paper's senders
// never reuse seqs, but retransmissions can race with duplication). A new
// seq so far from its flow's cached ones that the window's directory would
// pass its bound first evicts the packets at the window's other end.
func (s *Store) Put(now core.Time, id core.PacketID, payload []byte) {
	s.expire(now)
	s.stats.Puts++
	w := s.flows[id.Flow]
	if w == nil {
		if k := len(s.spareWindows) - 1; k >= 0 {
			w, s.spareWindows = s.spareWindows[k], s.spareWindows[:k]
		} else {
			w = new(window)
		}
		w.flow = id.Flow
		s.flows[id.Flow] = w
	}
	_, sl := w.find(id.Seq)
	if sl != nil {
		s.bytes -= uint64(len(sl.payload))
		sl.payload = append(sl.payload[:0], payload...)
	} else {
		sl = &s.cover(w, uint64(id.Seq>>pageBits))[id.Seq%pageSize]
		sl.payload = append(s.buffer(len(payload)), payload...)
		s.n++
	}
	sl.put = s.stats.Puts
	s.order.Push(ref{w, id.Seq, sl.put, now + s.ttl})
	s.bytes += uint64(len(payload))
	if s.order.Len() > 2*s.n+maxSpare {
		// Stale refs outnumber the packets: one pass drops them, so the
		// put order stays O(packets) at O(1) per Put.
		for k := s.order.Len(); k > 0; k-- {
			if r := s.order.PopFront(); r.live() {
				s.order.Push(r)
			}
		}
	}
	for s.maxBytes > 0 && s.bytes > s.maxBytes {
		if s.dropOldest() {
			s.stats.Evicted++
		}
	}
}

// cover widens w's directory to page pn, first evicting w's far end while
// the directory would pass its bound, and returns pn's page, counting the
// slot about to be filled.
func (s *Store) cover(w *window, pn uint64) *page {
	for w.dir.Len() > 0 && pn-w.first >= uint64(w.dir.Len()) &&
		max(pn, w.first+uint64(w.dir.Len())-1)-min(pn, w.first) >= dirPerPage*uint64(w.pages+1)+dirSlack {
		end := 0
		if pn < w.first {
			end = w.dir.Len() - 1
		}
		// The last removal empties e, and trims it off the directory.
		e := w.dir.At(end)
		for p, i := e.p, 0; e.p != nil; i++ {
			if p[i].payload != nil {
				s.remove(w, e, &p[i])
				s.stats.Evicted++
			}
		}
	}
	if w.dir.Len() == 0 {
		w.first = pn
	}
	for ; pn < w.first; w.first-- {
		w.dir.PushFront(dirEntry{})
	}
	for uint64(w.dir.Len()) <= pn-w.first {
		w.dir.Push(dirEntry{})
	}
	e := w.dir.At(int(pn - w.first))
	if e.p == nil {
		if k := len(s.sparePages) - 1; k >= 0 {
			e.p, s.sparePages = s.sparePages[k], s.sparePages[:k]
		} else {
			e.p = new(page)
		}
		w.pages++
	}
	e.n++
	return e.p
}

// buffer returns an empty buffer for an n-byte payload: the newest spare,
// unless the payload would rattle in it — small packets in MTU-sized
// buffers trade the allocation for heap.
func (s *Store) buffer(n int) []byte {
	if k := len(s.spare) - 1; k >= 0 {
		b := s.spare[k]
		s.spare[k], s.spare = nil, s.spare[:k]
		if cap(b) <= 2*n {
			return b[:0]
		}
	}
	return []byte{}
}

// Get returns the cached payload for id, if present and unexpired. The
// returned slice is owned by the cache — a later Put may reuse its bytes —
// so callers must copy if they retain it beyond their call frame.
func (s *Store) Get(now core.Time, id core.PacketID) ([]byte, bool) {
	s.expire(now)
	if w := s.flows[id.Flow]; w != nil {
		if _, sl := w.find(id.Seq); sl != nil {
			s.stats.Hits++
			return sl.payload, true
		}
	}
	s.stats.Misses++
	return nil, false
}

// DrainFlow returns the cached packets of a flow with sequence > after, in
// sequence order (a jittered access link may have delivered them in another)
// — the mobility pull: a receiver coming online retrieves everything it
// missed (Figure 3e). Entries remain cached (multiple receivers may drain the
// same flow in a multicast).
func (s *Store) DrainFlow(now core.Time, flow core.FlowID, after core.Seq) []core.PacketID {
	s.expire(now)
	w := s.flows[flow]
	if w == nil {
		return nil
	}
	var out []core.PacketID
	i := 0 // the first page holding a seq past after
	if pn := uint64(after >> pageBits); pn >= w.first {
		i = int(min(pn-w.first, uint64(w.dir.Len())))
	}
	for ; i < w.dir.Len(); i++ {
		p := w.dir.At(i).p
		for j := 0; p != nil && j < pageSize; j++ {
			if seq := core.Seq(w.first+uint64(i))<<pageBits + core.Seq(j); seq > after && p[j].payload != nil {
				out = append(out, core.PacketID{Flow: flow, Seq: seq})
			}
		}
	}
	return out
}

// expire drops the packets whose TTL passed.
func (s *Store) expire(now core.Time) {
	for s.order.Len() > 0 && s.order.At(0).expires <= now {
		if s.dropOldest() {
			s.stats.Expired++
		}
	}
}

// live reports whether r still names its packet.
func (r *ref) live() bool {
	_, sl := r.w.find(r.seq)
	return sl != nil && sl.put == r.put
}

// dropOldest pops the oldest ref and, unless it is stale, takes its packet
// out of the cache; it reports whether it did.
func (s *Store) dropOldest() bool {
	r := s.order.PopFront()
	if !r.live() {
		return false
	}
	e, sl := r.w.find(r.seq)
	s.remove(r.w, e, sl)
	if r.w.pages == 0 {
		delete(s.flows, r.w.flow)
		if len(s.spareWindows) < maxSpare {
			s.spareWindows = append(s.spareWindows, r.w)
		}
	}
	return true
}

// remove takes the packet in sl, of e's page in w, out of the cache. It
// spares the packet's buffer, and its page once empty, while there is room,
// and trims w's directory to the pages still held.
func (s *Store) remove(w *window, e *dirEntry, sl *slot) {
	s.bytes -= uint64(len(sl.payload))
	s.n--
	if len(s.spare) < maxSpare {
		s.spare = append(s.spare, sl.payload)
	}
	*sl = slot{}
	if e.n--; e.n > 0 {
		return
	}
	if len(s.sparePages) < maxSpare {
		s.sparePages = append(s.sparePages, e.p)
	}
	e.p = nil
	w.pages--
	for w.dir.Len() > 0 && w.dir.At(0).p == nil {
		w.dir.PopFront()
		w.first++
	}
	for w.dir.Len() > 0 && w.dir.At(w.dir.Len()-1).p == nil {
		w.dir.PopBack()
	}
}
