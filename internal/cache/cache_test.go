package cache

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"jqos/internal/core"
)

func id(flow, seq uint64) core.PacketID {
	return core.PacketID{Flow: core.FlowID(flow), Seq: core.Seq(seq)}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore(time.Second, 0)
	s.Put(0, id(1, 1), []byte("alpha"))
	got, ok := s.Get(10*time.Millisecond, id(1, 1))
	if !ok || !bytes.Equal(got, []byte("alpha")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s.Len() != 1 || s.Stats().BytesHeld != 5 {
		t.Errorf("Len=%d Bytes=%d", s.Len(), s.Stats().BytesHeld)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 0 || st.BytesHeld != 5 {
		t.Errorf("stats: %+v", st)
	}
}

func TestGetMiss(t *testing.T) {
	s := NewStore(time.Second, 0)
	if _, ok := s.Get(0, id(1, 1)); ok {
		t.Fatal("hit on empty cache")
	}
	if s.Stats().Misses != 1 {
		t.Errorf("misses = %d", s.Stats().Misses)
	}
}

func TestTTLExpiry(t *testing.T) {
	s := NewStore(100*time.Millisecond, 0)
	s.Put(0, id(1, 1), []byte("a"))
	s.Put(50*time.Millisecond, id(1, 2), []byte("b"))
	// At 100ms the first entry expires (TTL boundary is inclusive).
	if _, ok := s.Get(100*time.Millisecond, id(1, 1)); ok {
		t.Error("expired entry still served")
	}
	if _, ok := s.Get(100*time.Millisecond, id(1, 2)); !ok {
		t.Error("live entry dropped")
	}
	if s.Stats().Expired != 1 {
		t.Errorf("expired = %d", s.Stats().Expired)
	}
	if _, ok := s.Get(time.Hour, id(1, 2)); ok {
		t.Error("entry survived far beyond TTL")
	}
}

func TestPutRefreshesTTLAndPayload(t *testing.T) {
	s := NewStore(100*time.Millisecond, 0)
	s.Put(0, id(1, 1), []byte("old"))
	s.Put(90*time.Millisecond, id(1, 1), []byte("new-payload"))
	got, ok := s.Get(150*time.Millisecond, id(1, 1))
	if !ok || string(got) != "new-payload" {
		t.Fatalf("refreshed entry: %q %v", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after re-put", s.Len())
	}
	if s.Stats().BytesHeld != uint64(len("new-payload")) {
		t.Errorf("Bytes = %d", s.Stats().BytesHeld)
	}
}

func TestPayloadIsCopied(t *testing.T) {
	s := NewStore(time.Second, 0)
	buf := []byte("mutable")
	s.Put(0, id(1, 1), buf)
	buf[0] = 'X'
	got, _ := s.Get(0, id(1, 1))
	if string(got) != "mutable" {
		t.Errorf("cache aliased caller buffer: %q", got)
	}
}

func TestByteBoundEviction(t *testing.T) {
	s := NewStore(time.Hour, 10)
	s.Put(0, id(1, 1), []byte("aaaa")) // 4
	s.Put(0, id(1, 2), []byte("bbbb")) // 8
	s.Put(0, id(1, 3), []byte("cccc")) // 12 → evict oldest
	if _, ok := s.Get(0, id(1, 1)); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := s.Get(0, id(1, 3)); !ok {
		t.Error("newest entry evicted")
	}
	if s.Stats().BytesHeld > 10 {
		t.Errorf("Bytes = %d over bound", s.Stats().BytesHeld)
	}
	if s.Stats().Evicted != 1 {
		t.Errorf("evicted = %d", s.Stats().Evicted)
	}
}

func TestOversizeSinglePacket(t *testing.T) {
	// A single packet larger than the bound: cache stores then evicts it
	// down to the FIFO floor — it must not loop forever.
	s := NewStore(time.Hour, 3)
	s.Put(0, id(1, 1), []byte("four"))
	if s.Len() != 0 {
		t.Errorf("oversize packet retained: len=%d", s.Len())
	}
}

func TestDrainFlow(t *testing.T) {
	s := NewStore(time.Hour, 0)
	for seq := uint64(1); seq <= 5; seq++ {
		s.Put(0, id(7, seq), []byte{byte(seq)})
	}
	s.Put(0, id(8, 1), []byte("other"))
	got := s.DrainFlow(0, 7, 2)
	if len(got) != 3 {
		t.Fatalf("drained %d, want 3", len(got))
	}
	for i, want := range []uint64{3, 4, 5} {
		if got[i] != id(7, want) {
			t.Errorf("drain[%d] = %v", i, got[i])
		}
	}
	// Draining leaves entries for other receivers.
	if again := s.DrainFlow(0, 7, 0); len(again) != 5 {
		t.Errorf("second drain = %d, want 5", len(again))
	}
	if none := s.DrainFlow(0, 99, 0); len(none) != 0 {
		t.Errorf("unknown flow drained %d", len(none))
	}
}

// TestDrainFlowInSeqOrder: a jittered access link reorders a flow's
// packets on the way to the DC, and a drain still returns them by seq.
func TestDrainFlowInSeqOrder(t *testing.T) {
	s := NewStore(time.Hour, 0)
	for _, seq := range []uint64{3, 1, 2} {
		s.Put(0, id(7, seq), []byte{byte(seq)})
	}
	got := s.DrainFlow(0, 7, 0)
	if want := []core.PacketID{id(7, 1), id(7, 2), id(7, 3)}; !slices.Equal(got, want) {
		t.Fatalf("drain = %v, want %v", got, want)
	}
}

func TestDrainFlowSkipsExpired(t *testing.T) {
	s := NewStore(100*time.Millisecond, 0)
	s.Put(0, id(7, 1), []byte("a"))
	s.Put(80*time.Millisecond, id(7, 2), []byte("b"))
	got := s.DrainFlow(120*time.Millisecond, 7, 0)
	if len(got) != 1 || got[0] != id(7, 2) {
		t.Errorf("drain after expiry = %v", got)
	}
}

// TestFlowIndexCompaction: a flow's window goes with its last packet, and
// the flow's next packet opens a new one at its own seq, however far from
// the old window.
func TestFlowIndexCompaction(t *testing.T) {
	s := NewStore(50*time.Millisecond, 0)
	s.Put(0, id(7, 1), []byte("a"))
	s.Put(0, id(7, 500), []byte("b"))
	s.Get(time.Second, id(7, 1)) // force expiry
	if len(s.flows) != 0 {
		t.Errorf("flow window leaked: %v", s.flows)
	}
	s.Put(time.Second, id(7, 1<<40), []byte("c"))
	if w := s.flows[7]; w == nil || w.first != 1<<40>>pageBits || w.dir.Len() != 1 || w.pages != 1 {
		t.Errorf("the flow's next packet found a stale window: %+v", w)
	}
}

func TestZeroTTLPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStore(0) did not panic")
		}
	}()
	NewStore(0, 0)
}

func TestTTLAccessor(t *testing.T) {
	if NewStore(42*time.Millisecond, 0).TTL() != 42*time.Millisecond {
		t.Error("TTL accessor")
	}
}

// modelStore is the reference model for Store: one slice in put order,
// linear everywhere, written from the documented behaviour.
type modelStore struct {
	ttl      core.Time
	maxBytes int
	fifo     []modelEntry // expiry order
	stats    Stats        // BytesHeld unused
	far      int          // far-end evictions, a part of stats.Evicted
}

type modelEntry struct {
	id      core.PacketID
	payload []byte
	expires core.Time
}

func (m *modelStore) find(id core.PacketID) int {
	for i, e := range m.fifo {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (m *modelStore) bytes() int {
	n := 0
	for _, e := range m.fifo {
		n += len(e.payload)
	}
	return n
}

// pages returns the number of cached packets of flow in each page that
// holds one, and the lowest and highest such page.
func (m *modelStore) pages(flow core.FlowID) (held map[uint64]int, lo, hi uint64) {
	held = map[uint64]int{}
	for _, e := range m.fifo {
		if e.id.Flow == flow {
			pn := uint64(e.id.Seq >> pageBits)
			if len(held) == 0 {
				lo, hi = pn, pn
			}
			held[pn]++
			lo, hi = min(lo, pn), max(hi, pn)
		}
	}
	return held, lo, hi
}

// fit evicts the page at the far end of id's flow while a directory
// stretched to id's page would span dirPerPage entries or more per page
// then held, plus dirSlack.
func (m *modelStore) fit(id core.PacketID) {
	pn := uint64(id.Seq >> pageBits)
	for {
		held, lo, hi := m.pages(id.Flow)
		if len(held) == 0 || (lo <= pn && pn <= hi) ||
			max(hi, pn)-min(lo, pn) < dirPerPage*uint64(len(held)+1)+dirSlack {
			return
		}
		far := lo
		if pn < lo {
			far = hi
		}
		m.fifo = slices.DeleteFunc(m.fifo, func(e modelEntry) bool {
			return e.id.Flow == id.Flow && uint64(e.id.Seq>>pageBits) == far
		})
		m.stats.Evicted += uint64(held[far])
		m.far += held[far]
	}
}

// lowest returns flow's lowest cached seq; ok is false if it has none.
func (m *modelStore) lowest(flow core.FlowID) (lo core.Seq, ok bool) {
	for _, e := range m.fifo {
		if e.id.Flow == flow && (!ok || e.id.Seq < lo) {
			lo, ok = e.id.Seq, true
		}
	}
	return lo, ok
}

func (m *modelStore) expire(now core.Time) {
	for len(m.fifo) > 0 && m.fifo[0].expires <= now {
		m.fifo = m.fifo[1:]
		m.stats.Expired++
	}
}

func (m *modelStore) put(now core.Time, id core.PacketID, payload []byte) {
	m.expire(now)
	m.stats.Puts++
	if i := m.find(id); i >= 0 {
		m.fifo = slices.Delete(m.fifo, i, i+1)
	} else {
		m.fit(id)
	}
	m.fifo = append(m.fifo, modelEntry{id, slices.Clone(payload), now + m.ttl})
	for m.maxBytes > 0 && m.bytes() > m.maxBytes {
		m.fifo = m.fifo[1:]
		m.stats.Evicted++
	}
}

func (m *modelStore) get(now core.Time, id core.PacketID) ([]byte, bool) {
	m.expire(now)
	if i := m.find(id); i >= 0 {
		m.stats.Hits++
		return m.fifo[i].payload, true
	}
	m.stats.Misses++
	return nil, false
}

func (m *modelStore) drain(now core.Time, flow core.FlowID, after core.Seq) []core.PacketID {
	m.expire(now)
	var out []core.PacketID
	for _, e := range m.fifo {
		if e.id.Flow == flow && e.id.Seq > after {
			out = append(out, e.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// checkStore holds s to m: the same packets with the same payloads, the same
// counters, a window for each flow with a cached packet and none other, its
// directory spanning exactly its flow's lowest to highest cached page and
// holding a page, with the right count, for each page with a cached packet
// and for no other, a put order of at most 2·Len + maxSpare refs, and at
// most maxSpare spare buffers and pages, none of them a cached packet's.
func checkStore(t *testing.T, s *Store, m *modelStore, format string, args ...any) {
	t.Helper()
	where := func() string { return fmt.Sprintf(format, args...) }
	want := m.stats
	want.BytesHeld = uint64(m.bytes())
	if st := s.Stats(); st != want || s.Len() != len(m.fifo) {
		t.Fatalf("%s: Len %d, %+v; model %d, %+v", where(), s.Len(), st, len(m.fifo), want)
	}
	held := map[*byte]bool{}
	windows := map[core.FlowID]bool{}
	for _, e := range m.fifo {
		w := s.flows[e.id.Flow]
		if w == nil {
			t.Fatalf("%s: no window for the cached %v", where(), e.id)
		}
		_, sl := w.find(e.id.Seq)
		if sl == nil || !bytes.Equal(sl.payload, e.payload) {
			t.Fatalf("%s: %v holds %v, model %x", where(), e.id, sl, e.payload)
		}
		if cap(sl.payload) > 0 {
			held[&sl.payload[:1][0]] = true
		}
		if windows[e.id.Flow] {
			continue
		}
		windows[e.id.Flow] = true
		pages, lo, hi := m.pages(e.id.Flow)
		if w.first != lo || w.first+uint64(w.dir.Len()-1) != hi || w.pages != len(pages) {
			t.Fatalf("%s: flow %d's directory spans pages %d+%d with %d held, model %d..%d with %d",
				where(), e.id.Flow, w.first, w.dir.Len(), w.pages, lo, hi, len(pages))
		}
		for i := 0; i < w.dir.Len(); i++ {
			if d := w.dir.At(i); (d.p != nil) != (pages[w.first+uint64(i)] > 0) || d.n != pages[w.first+uint64(i)] {
				t.Fatalf("%s: flow %d's page %d holds %d (nil %v), model %d",
					where(), e.id.Flow, w.first+uint64(i), d.n, d.p == nil, pages[w.first+uint64(i)])
			}
		}
	}
	if len(s.flows) != len(windows) {
		t.Fatalf("%s: %d flow windows for %d flows with cached packets", where(), len(s.flows), len(windows))
	}
	if s.order.Len() > 2*s.Len()+maxSpare {
		t.Fatalf("%s: %d refs in the put order for %d packets", where(), s.order.Len(), s.Len())
	}
	if len(s.spare) > maxSpare || len(s.sparePages) > maxSpare || len(s.spareWindows) > maxSpare {
		t.Fatalf("%s: %d spare buffers, %d pages and %d windows, cap %d",
			where(), len(s.spare), len(s.sparePages), len(s.spareWindows), maxSpare)
	}
	for _, w := range s.spareWindows {
		if w.dir.Len() != 0 || s.flows[w.flow] == w {
			t.Fatalf("%s: spare window of flow %d is in use", where(), w.flow)
		}
	}
	for _, b := range s.spare {
		if cap(b) > 0 && held[&b[:1][0]] {
			t.Fatalf("%s: a spare buffer is still a cached packet's", where())
		}
	}
	for _, p := range s.sparePages {
		for i := range p {
			if p[i].payload != nil || p[i].put != 0 {
				t.Fatalf("%s: a spare page still holds a packet", where())
			}
		}
	}
}

// TestStoreMatchesModel is the differential oracle for the per-flow
// windows: random Put across 64 flows, each starting at its own seq, new
// seqs sometimes overtaking the one before them or leaving a gap of
// hundreds, late seqs below the flow's lowest cached one, re-Put (which
// reorders expiry but not the flow's window), byte-cap eviction and TTL
// expiry, with DrainFlow, Get and the whole store compared after every
// step.
func TestStoreMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const ttl = 40 * time.Millisecond
	const maxBytes = 3000
	s := NewStore(ttl, maxBytes)
	m := &modelStore{ttl: ttl, maxBytes: maxBytes}
	var now core.Time
	next := map[core.FlowID]core.Seq{}
	held := map[core.FlowID]core.Seq{} // a new seq overtaken by the one after it
	put := func(pid core.PacketID) {
		p := make([]byte, 20+rng.Intn(100))
		rng.Read(p)
		s.Put(now, pid, p)
		m.put(now, pid, p)
	}
	for step := 0; step < 20000; step++ {
		flow := core.FlowID(1 + rng.Intn(4)) // four busy flows among 64
		if rng.Intn(4) == 0 {
			flow = core.FlowID(1 + rng.Intn(64))
		}
		switch r := rng.Intn(12); {
		case r < 5: // a new packet, sometimes ahead of the one before it
			seq := held[flow]
			if seq != 0 {
				held[flow] = 0
			} else {
				if next[flow] == 0 {
					next[flow] = core.Seq(rng.Intn(1000))
				}
				next[flow]++
				switch rng.Intn(200) {
				case 0: // far ahead: the window's far end goes
					next[flow] += core.Seq(1000 + rng.Intn(1<<20))
				case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10:
					next[flow] += core.Seq(100 + rng.Intn(400))
				}
				if rng.Intn(4) == 0 {
					held[flow] = next[flow]
					next[flow]++
				}
				seq = next[flow]
			}
			put(core.PacketID{Flow: flow, Seq: seq})
		case r < 7 && next[flow] > 0: // a recent one again
			put(core.PacketID{Flow: flow, Seq: next[flow] - core.Seq(rng.Intn(int(min(next[flow], 30))))})
		case r < 8: // a late one, below the flow's lowest cached seq
			if lo, ok := m.lowest(flow); ok && lo > 1 {
				seq := lo - 1 - core.Seq(rng.Intn(int(min(lo-1, 300))))
				if rng.Intn(50) == 0 { // far behind: the window's far end goes
					seq = core.Seq(rng.Int63n(int64(lo)))
				}
				put(core.PacketID{Flow: flow, Seq: seq})
			}
		case r < 11:
			now += core.Time(rng.Intn(3000)) * time.Microsecond
		default: // a quiet spell: the whole cache expires
			if rng.Intn(20) == 0 {
				now += ttl
			}
		}
		for _, f := range []core.FlowID{1, 2, 3, 4, flow} {
			after := core.Seq(0)
			if n := next[f]; n > 0 {
				after = n - min(n, core.Seq(rng.Intn(600)))
			}
			got, want := s.DrainFlow(now, f, after), m.drain(now, f, after)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d at %v: DrainFlow(%d, %d) = %v, model %v", step, now, f, after, got, want)
			}
			for _, pid := range want {
				got, ok := s.Get(now, pid)
				if want, _ := m.get(now, pid); !ok || !bytes.Equal(got, want) {
					t.Fatalf("step %d: Get(%v) = %x %v", step, pid, got, ok)
				}
			}
		}
		checkStore(t, s, m, "step %d at %v", step, now)
	}
	if st := m.stats; st.Expired == 0 || st.Evicted == uint64(m.far) || m.far == 0 {
		t.Errorf("expired %d, evicted %d (%d at a window's far end): a removal path went unexercised", st.Expired, st.Evicted, m.far)
	}
}

// loneReach is how many seqs past a one-page window's page a Put may land
// without evicting it.
const loneReach = (dirPerPage*2 + dirSlack) * pageSize

// fuzzSeq spreads a fuzz byte over the seqs that matter: small ones, the
// edge of what a window holding page 0 alone may reach, and the top of the
// seq space.
func fuzzSeq(b byte) core.Seq {
	switch {
	case b >= 0xF8:
		return loneReach - 4 + core.Seq(b&7)
	case b >= 0xF0:
		return math.MaxUint64 - core.Seq(b&7)
	}
	return core.Seq(b)
}

// FuzzStore drives Store and modelStore through the same operations, three
// fuzz bytes each — Put, re-Put of a cached packet, Get, DrainFlow and a
// clock advance — and holds the two equal after every one.
func FuzzStore(f *testing.F) {
	f.Add([]byte{0, 40, 1, 0, 40, 2, 2, 0, 1, 3, 0, 0, 4, 0, 200, 2, 0, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const ttl = 40 * time.Millisecond
		const maxBytes = 600
		s := NewStore(ttl, maxBytes)
		m := &modelStore{ttl: ttl, maxBytes: maxBytes}
		var now core.Time
		// The checks are linear in the live packets, so a run is kept to
		// 256 operations.
		ops = ops[:min(len(ops), 3*256)]
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			op, a, b := ops[0], ops[1], ops[2]
			pid := core.PacketID{Flow: core.FlowID(1 + a%4), Seq: fuzzSeq(b)}
			switch op % 5 {
			case 0: // Put of any seq, the payload 0 to 63 bytes
				p := bytes.Repeat([]byte{a ^ b}, int(a>>2))
				s.Put(now, pid, p)
				m.put(now, pid, p)
			case 1: // re-Put of a cached packet
				if len(m.fifo) > 0 {
					pid = m.fifo[int(b)%len(m.fifo)].id
					p := bytes.Repeat([]byte{a}, int(op>>3))
					s.Put(now, pid, p)
					m.put(now, pid, p)
				}
			case 2:
				got, ok := s.Get(now, pid)
				if want, wok := m.get(now, pid); ok != wok || !bytes.Equal(got, want) {
					t.Fatalf("step %d: Get(%v) = %x %v, model %x %v", step, pid, got, ok, want, wok)
				}
			case 3:
				got, want := s.DrainFlow(now, pid.Flow, pid.Seq), m.drain(now, pid.Flow, pid.Seq)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d at %v: DrainFlow(%d, %d) = %v, model %v", step, now, pid.Flow, pid.Seq, got, want)
				}
			default:
				now += core.Time(b) * 250 * time.Microsecond
			}
			checkStore(t, s, m, "step %d (%d %d %d) at %v", step, op, a, b, now)
		}
	})
}

// TestStoreWindowIsBounded: a Put far from its flow's cached seqs — far
// ahead, far behind, or alternating between the two ends of the seq space
// — is cached, evicting the window's far end, and the store stays
// consistent.
func TestStoreWindowIsBounded(t *testing.T) {
	s := NewStore(time.Second, 0)
	m := &modelStore{ttl: time.Second}
	put := func(flow uint64, seq core.Seq) {
		pid := core.PacketID{Flow: core.FlowID(flow), Seq: seq}
		s.Put(0, pid, []byte("p"))
		m.put(0, pid, []byte("p"))
	}
	// Far ahead: a window holding page 62 alone reaches page 101.
	put(1, 1000)
	put(1, 62*pageSize+loneReach-1)
	put(1, math.MaxUint64)
	// Far behind: the same reach, the directory growing at its front.
	put(2, math.MaxUint64-5)
	put(2, math.MaxUint64-loneReach+1)
	put(2, 0)
	// Alternating between the extremes on one flow.
	for i := core.Seq(0); i < 1000; i++ {
		put(3, i)
		put(3, math.MaxUint64-i)
	}
	checkStore(t, s, m, "after the far seqs")
	if st := s.Stats(); s.Len() != 3 || st.Evicted != 2+2+1999 || st.BytesHeld != 3 {
		t.Errorf("Len %d, Evicted %d, BytesHeld %d; want 3, 2003, 3", s.Len(), st.Evicted, st.BytesHeld)
	}
	// Once the windows expire, a flow may start again anywhere.
	s.Get(time.Second, id(1, 0))
	m.get(time.Second, id(1, 0))
	put(1, math.MaxUint64)
	checkStore(t, s, m, "after the expiry")
}

// TestForgedFlowsCostTheirPackets: many flows, each of two seqs as far
// apart as a window holds or far beyond it, as forged datagrams at the
// socket relay would make them. What the store allocates follows the
// packets: at most a page, a directory of twice the reach of a lone page,
// and a little bookkeeping per Put.
func TestForgedFlowsCostTheirPackets(t *testing.T) {
	s := NewStore(time.Second, 0)
	const flows = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for f := uint64(1); f <= flows; f++ {
		s.Put(0, id(f, 0), nil)
		if f%2 == 0 {
			s.Put(0, id(f, loneReach-1), nil)
		} else {
			s.Put(0, id(f, 1<<16-1), nil)
		}
	}
	runtime.ReadMemStats(&after)
	t.Logf("%d bytes per Put", (after.TotalAlloc-before.TotalAlloc)/(2*flows))
	if s.Len() != flows*3/2 || s.Stats().Evicted != flows/2 {
		t.Fatalf("Len %d, Evicted %d; want %d, %d", s.Len(), s.Stats().Evicted, flows*3/2, flows/2)
	}
	perPut := unsafe.Sizeof(page{}) + 2*(2*dirPerPage+dirSlack)*unsafe.Sizeof(dirEntry{}) + 256
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*flows*perPut); got > limit {
		t.Errorf("%d Puts on %d flows allocated %d bytes, more than %d", 2*flows, flows, got, limit)
	}
}

// TestLongTTLKeepsEveryPacket: at a rendezvous TTL of an hour a flow's
// in-order packets stay cached however many there are.
func TestLongTTLKeepsEveryPacket(t *testing.T) {
	s := NewStore(time.Hour, 0)
	const n = 1<<16 + 5000
	for seq := uint64(1); seq <= n; seq++ {
		s.Put(core.Time(seq)*time.Millisecond, id(1, seq), []byte{byte(seq)})
	}
	now := core.Time(n) * time.Millisecond
	if st := s.Stats(); s.Len() != n || st.Evicted != 0 || st.Expired != 0 {
		t.Fatalf("Len %d, %+v; want all %d cached", s.Len(), st, n)
	}
	got := s.DrainFlow(now, 1, 0)
	if len(got) != n || got[0] != id(1, 1) || got[n-1] != id(1, n) {
		t.Fatalf("drained %d packets, want %d in order", len(got), n)
	}
	for _, seq := range []uint64{1, 1 << 16, n} {
		if p, ok := s.Get(now, id(1, seq)); !ok || p[0] != byte(seq) {
			t.Errorf("Get(%d) = %v %v", seq, p, ok)
		}
	}
}

// TestPutSteadyStateAllocatesNothing: at a steady depth with equal-size
// payloads every Put of a new packet reuses the payload buffer of the one
// its expiry check just dropped, and its slot in a window and in the put
// order.
func TestPutSteadyStateAllocatesNothing(t *testing.T) {
	const depth = 500
	s := NewStore(depth*time.Microsecond, 0)
	payload := make([]byte, 512)
	var seq uint64
	put := func() {
		seq++
		payload[0] = byte(seq)
		s.Put(core.Time(seq)*time.Microsecond, id(1+seq%4, seq), payload)
	}
	for i := 0; i < 2*depth; i++ {
		put()
	}
	if n := testing.AllocsPerRun(1000, put); n != 0 {
		t.Errorf("Put at steady depth allocates %v times, want 0", n)
	}
	if s.Len() != depth {
		t.Errorf("Len = %d, want the steady depth %d", s.Len(), depth)
	}
	// Reused buffers hold what was last put under each id.
	for back := uint64(0); back < depth; back++ {
		got, ok := s.Get(core.Time(seq)*time.Microsecond, id(1+(seq-back)%4, seq-back))
		if !ok || len(got) != len(payload) || got[0] != byte(seq-back) {
			t.Fatalf("packet %d back: ok=%v first byte %d", back, ok, got[0])
		}
	}
}

// TestIdleCacheShrinks: a cache whose packets have all expired holds no
// more than the spare constant of buffers and of pages and no window of
// theirs, and a small packet does not keep an MTU-sized spare buffer alive.
func TestIdleCacheShrinks(t *testing.T) {
	s := NewStore(time.Second, 0)
	mtu := make([]byte, 1400)
	for n := uint64(0); n < 10*maxSpare*pageSize; n++ {
		s.Put(0, id(2+n%(2*maxSpare), n/(2*maxSpare)), mtu)
	}
	s.Put(time.Hour, id(1, 1), []byte("tiny"))
	if s.Len() != 1 || s.Stats().BytesHeld != 4 || len(s.flows) != 1 {
		t.Fatalf("after the idle hour: Len %d Bytes %d flows %d", s.Len(), s.Stats().BytesHeld, len(s.flows))
	}
	if len(s.spare) > maxSpare || len(s.sparePages) > maxSpare || len(s.spareWindows) > maxSpare {
		t.Errorf("an idle cache holds %d spare buffers, %d pages and %d windows, cap %d",
			len(s.spare), len(s.sparePages), len(s.spareWindows), maxSpare)
	}
	if _, sl := s.flows[1].find(1); cap(sl.payload) > 8 {
		t.Errorf("a 4-byte packet sits in a %d-byte buffer", cap(sl.payload))
	}
}

func BenchmarkPutGet(b *testing.B) {
	payload := make([]byte, 512)
	run := func(b *testing.B, s *Store, flows uint64) {
		putGet := func(n int) {
			now := core.Time(n) * time.Microsecond
			pid := id(1+uint64(n)%flows, uint64(n)/flows)
			s.Put(now, pid, payload)
			s.Get(now, pid)
		}
		// Fill to the steady depth first: every timed Put then reuses what
		// expiry or eviction freed.
		const warm = 4096
		for n := 0; n < warm; n++ {
			putGet(n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			putGet(warm + i)
		}
	}
	// The byte cap evicts: 2 048 live packets of one flow.
	b.Run("bytecap", func(b *testing.B) { run(b, NewStore(time.Second, 1<<20), 1) })
	// The TTL expires: 2 000 live packets of one flow, the oldest leaving
	// on every Put — the steady state of a caching flow.
	b.Run("ttl2000", func(b *testing.B) { run(b, NewStore(2000*time.Microsecond, 0), 1) })
	// The same depth over 64 interleaved flows, about 31 packets each.
	b.Run("flows64", func(b *testing.B) { run(b, NewStore(2000*time.Microsecond, 0), 64) })
	// A flow that sends less than once a TTL: every Put opens the window
	// of a flow whose last packet just expired.
	b.Run("churn", func(b *testing.B) { run(b, NewStore(time.Microsecond, 0), 8) })
}
