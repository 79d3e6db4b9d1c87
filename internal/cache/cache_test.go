package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

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

func TestFlowIndexCompaction(t *testing.T) {
	s := NewStore(50*time.Millisecond, 0)
	s.Put(0, id(7, 1), []byte("a"))
	s.Get(time.Second, id(7, 1)) // force expiry
	if len(s.flows) != 0 {
		t.Errorf("flow index leaked: %v", s.flows)
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

// modelStore is the reference model for Store: plain slices, linear
// everywhere, written from the documented behaviour.
type modelStore struct {
	ttl      core.Time
	maxBytes int
	fifo     []modelEntry               // expiry order
	flows    map[core.FlowID][]core.Seq // insertion order
	expired  uint64
	evicted  uint64
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

func (m *modelStore) dropFront() {
	id := m.fifo[0].id
	m.fifo = m.fifo[1:]
	seqs := m.flows[id.Flow]
	for i, q := range seqs {
		if q == id.Seq {
			m.flows[id.Flow] = append(seqs[:i:i], seqs[i+1:]...)
			break
		}
	}
}

func (m *modelStore) expire(now core.Time) {
	for len(m.fifo) > 0 && m.fifo[0].expires <= now {
		m.dropFront()
		m.expired++
	}
}

func (m *modelStore) put(now core.Time, id core.PacketID, payload []byte) {
	m.expire(now)
	e := modelEntry{id, append([]byte(nil), payload...), now + m.ttl}
	if i := m.find(id); i >= 0 {
		m.fifo = append(m.fifo[:i:i], m.fifo[i+1:]...)
	} else {
		m.flows[id.Flow] = append(m.flows[id.Flow], id.Seq)
	}
	m.fifo = append(m.fifo, e)
	for m.maxBytes > 0 && m.bytes() > m.maxBytes && len(m.fifo) > 0 {
		m.dropFront()
		m.evicted++
	}
}

func (m *modelStore) drain(now core.Time, flow core.FlowID, after core.Seq) []core.PacketID {
	m.expire(now)
	var out []core.PacketID
	for _, q := range m.flows[flow] {
		if q > after {
			out = append(out, core.PacketID{Flow: flow, Seq: q})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TestStoreMatchesModel is the differential oracle for the per-flow index:
// random Put, new seqs sometimes overtaking the one before them, re-Put
// (which reorders expiry but not the flow's index), byte-cap eviction and
// TTL expiry, with DrainFlow and Get compared after every step.
func TestStoreMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const ttl = 40 * time.Millisecond
	const maxBytes = 3000
	s := NewStore(ttl, maxBytes)
	m := &modelStore{ttl: ttl, maxBytes: maxBytes, flows: map[core.FlowID][]core.Seq{}}
	var now core.Time
	next := map[core.FlowID]core.Seq{}
	held := map[core.FlowID]core.Seq{} // a new seq overtaken by the one after it
	for step := 0; step < 20000; step++ {
		flow := core.FlowID(1 + rng.Intn(4))
		switch r := rng.Intn(10); {
		case r < 5: // a new packet, sometimes ahead of the one before it
			seq := held[flow]
			if seq != 0 {
				held[flow] = 0
			} else {
				next[flow]++
				if rng.Intn(4) == 0 {
					held[flow] = next[flow]
					next[flow]++
				}
				seq = next[flow]
			}
			p := make([]byte, 20+rng.Intn(100))
			rng.Read(p)
			pid := core.PacketID{Flow: flow, Seq: seq}
			s.Put(now, pid, p)
			m.put(now, pid, p)
		case r < 7 && next[flow] > 0: // a recent one again
			pid := core.PacketID{Flow: flow, Seq: next[flow] - core.Seq(rng.Intn(int(min(next[flow], 30))))}
			p := make([]byte, 20+rng.Intn(100))
			rng.Read(p)
			s.Put(now, pid, p)
			m.put(now, pid, p)
		case r < 9:
			now += core.Time(rng.Intn(3000)) * time.Microsecond
		default: // a quiet spell: the whole cache expires
			if rng.Intn(20) == 0 {
				now += ttl
			}
		}
		for f := core.FlowID(1); f <= 4; f++ {
			after := core.Seq(0)
			if next[f] > 10 {
				after = next[f] - core.Seq(rng.Intn(40))
			}
			got, want := s.DrainFlow(now, f, after), m.drain(now, f, after)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d at %v: DrainFlow(%d, %d) = %v, model %v", step, now, f, after, got, want)
			}
			for _, pid := range want {
				got, ok := s.Get(now, pid)
				if !ok || !bytes.Equal(got, m.fifo[m.find(pid)].payload) {
					t.Fatalf("step %d: Get(%v) = %x %v", step, pid, got, ok)
				}
			}
		}
		st := s.Stats()
		if s.Len() != len(m.fifo) || int(s.Stats().BytesHeld) != m.bytes() || st.Expired != m.expired || st.Evicted != m.evicted {
			t.Fatalf("step %d at %v: len %d bytes %d expired %d evicted %d, model %d %d %d %d",
				step, now, s.Len(), s.Stats().BytesHeld, st.Expired, st.Evicted, len(m.fifo), m.bytes(), m.expired, m.evicted)
		}
		if n := spareEntries(t, s); n > maxSpare {
			t.Fatalf("step %d: %d spare entries, cap %d", step, n, maxSpare)
		}
		if len(s.flows) != countNonEmpty(m.flows) {
			t.Fatalf("step %d: %d flow indexes for %d flows with cached packets", step, len(s.flows), countNonEmpty(m.flows))
		}
	}
	if m.expired == 0 || m.evicted == 0 {
		t.Errorf("expired %d evicted %d: a removal path went unexercised", m.expired, m.evicted)
	}
}

// spareEntries walks the spare list: every entry on it is out of the cache.
func spareEntries(t *testing.T, s *Store) int {
	t.Helper()
	n := 0
	for e := s.spare; e != nil; e = e.next {
		if e.prev != nil || s.items[e.id] == e {
			t.Fatalf("spare entry %v is still linked into the cache", e.id)
		}
		n++
	}
	if n != s.spares {
		t.Fatalf("spare list holds %d entries, counter says %d", n, s.spares)
	}
	return n
}

// TestPutSteadyStateAllocatesNothing: at a steady depth with equal-size
// payloads every Put of a new packet reuses the entry, and the payload
// buffer, of the one its expiry check just dropped.
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
// more than the spare constant, and a small packet does not keep an
// MTU-sized spare buffer alive.
func TestIdleCacheShrinks(t *testing.T) {
	s := NewStore(time.Second, 0)
	for seq := uint64(1); seq <= 10*maxSpare; seq++ {
		s.Put(0, id(1, seq), make([]byte, 1400))
	}
	s.Put(time.Hour, id(2, 1), []byte("tiny"))
	if s.Len() != 1 || s.Stats().BytesHeld != 4 || len(s.flows) != 1 {
		t.Fatalf("after the idle hour: Len %d Bytes %d flows %d", s.Len(), s.Stats().BytesHeld, len(s.flows))
	}
	if n := spareEntries(t, s); n > maxSpare {
		t.Errorf("an idle cache holds %d spare entries, cap %d", n, maxSpare)
	}
	if e := s.items[id(2, 1)]; cap(e.payload) > 8 {
		t.Errorf("a 4-byte packet sits in a %d-byte buffer", cap(e.payload))
	}
}

func countNonEmpty(flows map[core.FlowID][]core.Seq) int {
	n := 0
	for _, seqs := range flows {
		if len(seqs) > 0 {
			n++
		}
	}
	return n
}

func BenchmarkPutGet(b *testing.B) {
	payload := make([]byte, 512)
	run := func(b *testing.B, s *Store) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := core.Time(i) * time.Microsecond
			pid := id(1, uint64(i))
			s.Put(now, pid, payload)
			s.Get(now, pid)
		}
	}
	// The byte cap evicts: 2 048 live packets of one flow.
	b.Run("bytecap", func(b *testing.B) { run(b, NewStore(time.Second, 1<<20)) })
	// The TTL expires: 2 000 live packets of one flow, the oldest leaving
	// on every Put — the steady state of a caching flow.
	b.Run("ttl2000", func(b *testing.B) { run(b, NewStore(2000*time.Microsecond, 0)) })
}
