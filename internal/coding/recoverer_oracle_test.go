package coding

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

// scanNextDeadline is the reference model for Recoverer.NextDeadline: the
// full scan of live state the expiry queues replaced.
func scanNextDeadline(r *Recoverer) (core.Time, bool) {
	var min core.Time
	found := false
	consider := func(d core.Time) {
		if !found || d < min {
			min, found = d, true
		}
	}
	for _, b := range r.batches {
		consider(b.expires)
	}
	for _, rec := range r.recoveries {
		consider(rec.deadline)
	}
	for _, p := range r.pending {
		consider(p.expires)
	}
	return min, found
}

// packetIndex is the reference model for Recoverer.sources: the map from a
// packet to the ids of the cached batches naming it, in arrival order, that
// the per-flow rings replaced. It mirrors the batches of the Recoverer the
// scan model runs on, by batch number alone: a dropped batch's state is
// recycled, so the model keeps its own copy of what each batch names.
type packetIndex struct {
	byPacket map[core.PacketID][]uint64
	known    map[uint64][]core.PacketID
}

func newPacketIndex() *packetIndex {
	return &packetIndex{byPacket: map[core.PacketID][]uint64{}, known: map[uint64][]core.PacketID{}}
}

// learn records the batch an OnCoded call may have just created.
func (m *packetIndex) learn(r *Recoverer, bid uint64) {
	b := r.batches[bid]
	if _, ok := m.known[bid]; b == nil || ok {
		return
	}
	ids := []core.PacketID{}
	for _, src := range b.meta.Sources {
		id := core.PacketID{Flow: src.Flow, Seq: src.Seq}
		m.byPacket[id] = append(m.byPacket[id], bid)
		ids = append(ids, id)
	}
	m.known[bid] = ids
}

// forget removes an expiring batch and returns the packets it was the last
// to name.
func (m *packetIndex) forget(bid uint64) (uncovered []core.PacketID) {
	for _, id := range m.known[bid] {
		m.byPacket[id] = removeBatch(m.byPacket[id], bid)
		if len(m.byPacket[id]) == 0 {
			delete(m.byPacket, id)
			uncovered = append(uncovered, id)
		}
	}
	delete(m.known, bid)
	return uncovered
}

func removeBatch(s []uint64, bid uint64) []uint64 {
	for i, v := range s {
		if v == bid {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// covering is the map version of Recoverer.coveringBatches: the freshest
// in-stream and cross-stream batch naming id, 0 for none.
func (m *packetIndex) covering(r *Recoverer, id core.PacketID) (in, cross uint64) {
	for _, bid := range m.byPacket[id] {
		b := r.batches[bid]
		if b == nil || b.held == 0 {
			continue
		}
		if b.meta.Kind == wire.InStream {
			in = bid
		} else {
			cross = bid
		}
	}
	return in, cross
}

// checkIndex holds r's per-flow rings to the model after any operation:
// the same covering batches for every packet of ids, every ring counting
// exactly the refs the model has for its flow (so an idle flow has no ring),
// and none longer than its compaction bound at the most it ever counted.
// peak carries that most.
func (m *packetIndex) checkIndex(t testing.TB, r *Recoverer, ids []core.PacketID, peak map[core.FlowID]int) {
	t.Helper()
	for _, id := range ids {
		var in, cross uint64
		b, c := r.coveringBatches(id)
		if b != nil {
			in = b.meta.Batch
		}
		if c != nil {
			cross = c.meta.Batch
		}
		if wantIn, wantCross := m.covering(r, id); in != wantIn || cross != wantCross {
			t.Fatalf("packet %v: covered by in-stream %d / cross-stream %d, map model says %d / %d", id, in, cross, wantIn, wantCross)
		}
	}
	named := map[core.FlowID]int{}
	for id, bids := range m.byPacket {
		named[id.Flow] += len(bids)
	}
	if len(r.sources) != len(named) {
		t.Fatalf("%d flow indexes for %d flows with a cached batch", len(r.sources), len(named))
	}
	for flow, x := range r.sources {
		if x.batches != named[flow] {
			t.Fatalf("flow %d: index counts %d live refs, model %d", flow, x.batches, named[flow])
		}
		peak[flow] = max(peak[flow], x.batches)
		if x.Len() > peak[flow]+peak[flow]/4+compactSlack+1 {
			t.Fatalf("flow %d: index holds %d refs for at most %d live ones", flow, x.Len(), peak[flow])
		}
	}
}

// scanOnTimer is the reference model for Recoverer.OnTimer: range every
// map, drop what is due. It never touches the expiry queues. A due batch
// leaves r's flow indexes the way it does in OnTimer, and the map model m
// (which mirrors r) says which escalation counts that had to clear: those
// of the packets the batch was the last to name, and no other.
func scanOnTimer(t testing.TB, r *Recoverer, m *packetIndex, now core.Time) {
	t.Helper()
	for _, b := range r.batches {
		if b.expires > now {
			continue
		}
		counted := map[core.PacketID]bool{}
		for _, src := range b.meta.Sources {
			id := core.PacketID{Flow: src.Flow, Seq: src.Seq}
			_, counted[id] = r.attempts[id]
		}
		for _, id := range m.forget(b.meta.Batch) {
			counted[id] = false
		}
		r.dropBatch(b)
		for id, want := range counted {
			if _, got := r.attempts[id]; got != want {
				t.Fatalf("batch %d dropped at %v: packet %v keeps its escalation count: %v, map model says %v", b.meta.Batch, now, id, got, want)
			}
		}
	}
	for key, rec := range r.recoveries {
		if rec.deadline <= now {
			r.stats.CoopFailed++
			delete(r.recoveries, key)
		}
	}
	for id, p := range r.pending {
		if p.expires <= now {
			delete(r.pending, id)
			r.stats.PendingExpired++
			r.stats.Unrecoverable++
			if len(m.byPacket[id]) == 0 {
				delete(r.attempts, id)
			}
		}
	}
	for id, until := range r.recent {
		if until <= now {
			delete(r.recent, id)
		}
	}
}

// recovererProgram drives a Recoverer and the scan model side by side
// through the operations a byte string spells out, on a non-decreasing
// clock, and fails on the first difference. It is both the differential
// test's and the fuzzer's body.
//
// The world is small so that operations collide: batches 0–31 over
// packets of flows 1–4 (flow 5 is never covered), parity computed for
// real so cooperative recoveries decode. Each op is an opcode byte and
// its operand bytes; a program that runs out of bytes stops.
type recovererProgram struct {
	t        testing.TB
	sub, ref *Recoverer
	now      core.Time
	prog     []byte
	steps    int
	// peak is the most items each of the subject's four maps ever held,
	// the bound its queues are checked against; flowPeak the same for its
	// per-flow source indexes.
	peak     [4]int
	flowPeak map[core.FlowID]int
	// idx is the map model of the source index, mirroring ref's batches.
	idx *packetIndex
	// reused counts the batches the subject cached in a dropped one's state.
	reused int
}

// progIDs is every packet a program can name, and one it cannot.
var progIDs = func() []core.PacketID {
	ids := []core.PacketID{{Flow: 9, Seq: 9}}
	for f := core.FlowID(1); f <= 5; f++ {
		for q := core.Seq(1); q <= 17; q++ {
			ids = append(ids, core.PacketID{Flow: f, Seq: q})
		}
	}
	return ids
}()

func (p *recovererProgram) next() (byte, bool) {
	if len(p.prog) == 0 {
		return 0, false
	}
	b := p.prog[0]
	p.prog = p.prog[1:]
	return b, true
}

func progPayload(id core.PacketID) []byte {
	return []byte(fmt.Sprintf("flow %d seq %d %s", id.Flow, id.Seq, "padpadpad"[:id.Seq%9]))
}

// progBatch is batch b's shape and sources, a pure function of b.
func progBatch(b byte) wire.Coded {
	meta := wire.Coded{Batch: uint64(b), K: 1 + b%4, R: 1 + (b/4)%3, Kind: wire.CrossStream}
	if b < 16 {
		meta.Kind = wire.InStream
	}
	for i := 0; i < int(meta.K); i++ {
		src := wire.SourceRef{Flow: core.FlowID(1 + i), Seq: core.Seq(1 + b%16)}
		if meta.Kind == wire.InStream {
			src = wire.SourceRef{Flow: core.FlowID(1 + b%4), Seq: core.Seq(int(b/4%4)*4 + i + 1)}
		}
		src.Receiver = core.NodeID(100) + core.NodeID(src.Flow)
		meta.Sources = append(meta.Sources, src)
	}
	return meta
}

// progParity encodes batch b's real parity shards.
func progParity(meta *wire.Coded) [][]byte {
	payloads := make([][]byte, len(meta.Sources))
	for i, src := range meta.Sources {
		payloads[i] = progPayload(core.PacketID{Flow: src.Flow, Seq: src.Seq})
	}
	shards, shardLen, err := rs.PackBatch(payloads)
	if err != nil {
		panic(err)
	}
	codec, err := rs.NewCodec(int(meta.K), int(meta.R))
	if err != nil {
		panic(err)
	}
	for i := 0; i < int(meta.R); i++ {
		shards = append(shards, make([]byte, shardLen))
	}
	if err := codec.Encode(shards); err != nil {
		panic(err)
	}
	return shards[meta.K:]
}

// oldestRecovery picks the in-flight recovery with the earliest deadline
// (ties by key), so programs can aim helper responses at live state.
func oldestRecovery(r *Recoverer) (key recoveryKey, ok bool) {
	var at core.Time
	for k, rec := range r.recoveries {
		older := rec.deadline < at || rec.deadline == at &&
			(k.batch < key.batch || k.batch == key.batch && k.want.Seq < key.want.Seq)
		if !ok || older {
			key, at, ok = k, rec.deadline, true
		}
	}
	return key, ok
}

func progID(a, b byte) core.PacketID {
	return core.PacketID{Flow: core.FlowID(1 + a%5), Seq: core.Seq(1 + b%17)}
}

// step runs one operation on both engines; false means the program ended.
func (p *recovererProgram) step() bool {
	op, ok := p.next()
	if !ok {
		return false
	}
	arg := func() byte { b, _ := p.next(); return b }
	var got, want []core.Emit
	switch op % 8 {
	case 0: // the clock moves, by up to 63 ms or up to 630 ms
		d := core.Time(arg()%64) * time.Millisecond
		if op&8 != 0 {
			d *= 10
		}
		p.now += d
	case 1, 2: // parity arrives: a new batch, a refresh, a duplicate index
		meta := progBatch(arg() % 32)
		parity := progParity(&meta)
		meta.Index = arg() % 4 // may name a shard past R
		shard := []byte{1, 2, 3}
		if int(meta.Index) < len(parity) {
			shard = parity[meta.Index]
		}
		meta.ShardLen = uint16(len(shard))
		switch hostile := arg(); {
		case hostile >= 250: // a shape no codec has
			meta.R = 255
		case hostile >= 245: // more sources than K
			meta.Sources = append(meta.Sources, wire.SourceRef{Flow: 9, Seq: 9, Receiver: 109})
		case hostile >= 240: // fewer
			meta.K++
		}
		hdr := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dc1, Dst: dc2}
		spares := len(p.sub.spare)
		got = p.sub.OnCoded(p.now, &hdr, &meta, shard)
		if len(p.sub.spare) < spares {
			p.reused++
		}
		want = p.ref.OnCoded(p.now, &hdr, &meta, shard)
		p.idx.learn(p.ref, meta.Batch)
	case 3, 4: // a receiver reports a loss: covered, uncovered, speculative
		id := progID(arg(), arg())
		if op%8 == 4 { // a packet of some batch, live or not
			src := progBatch(byte(id.Flow) * byte(id.Seq) % 32).Sources[0]
			id = core.PacketID{Flow: src.Flow, Seq: src.Seq}
		}
		var flags uint16
		if op&8 != 0 {
			flags = wire.FlagWantVerify
		}
		from := core.NodeID(100) + core.NodeID(id.Flow)
		got = p.sub.OnNACK(p.now, from, id, flags)
		want = p.ref.OnNACK(p.now, from, id, flags)
	case 5: // a helper answers (or someone pretends to)
		meta := progBatch(arg() % 32)
		helper := meta.Sources[int(arg())%len(meta.Sources)]
		wanted := meta.Sources[int(arg())%len(meta.Sources)]
		ref := wire.CoopRef{Batch: meta.Batch, Want: core.PacketID{Flow: wanted.Flow, Seq: wanted.Seq}}
		if op&8 != 0 { // … to the oldest recovery in flight, when there is one
			if rec, ok := oldestRecovery(p.ref); ok {
				meta = progBatch(byte(rec.batch))
				helper = meta.Sources[int(arg())%len(meta.Sources)]
				ref = wire.CoopRef{Batch: rec.batch, Want: rec.want}
			}
		}
		hdr := wire.Header{
			Type: wire.TypeCoopResp, Service: core.ServiceCoding,
			Flow: helper.Flow, Seq: helper.Seq, TS: p.now, Src: helper.Receiver, Dst: dc2,
		}
		payload := progPayload(hdr.ID())
		got = p.sub.OnCoopResp(p.now, &hdr, &ref, payload)
		want = p.ref.OnCoopResp(p.now, &hdr, &ref, payload)
	case 6: // a verify probe is answered
		id := progID(arg(), arg())
		hdr := wire.Header{Type: wire.TypeVerifyResp, Service: core.ServiceCoding, Flow: id.Flow, Seq: id.Seq}
		if op&8 != 0 {
			hdr.Flags = wire.FlagStillWanted
		}
		got = p.sub.OnVerifyResp(p.now, &hdr)
		want = p.ref.OnVerifyResp(p.now, &hdr)
	case 7: // the host's timer fires at the reported deadline
		if d, ok := p.sub.NextDeadline(); ok && d > p.now {
			p.now = d
		}
		got = p.sub.OnTimer(p.now)
		scanOnTimer(p.t, p.ref, p.idx, p.now)
	}
	p.steps++
	p.compare(op, got, want)
	return true
}

func (p *recovererProgram) compare(op byte, got, want []core.Emit) {
	t, sub, ref := p.t, p.sub, p.ref
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d op %d at %v: emits differ\n got %v\nwant %v", p.steps, op, p.now, got, want)
	}
	wantD, wantOK := scanNextDeadline(ref)
	if d, ok := scanNextDeadline(sub); d != wantD || ok != wantOK {
		t.Fatalf("step %d op %d at %v: subject's state says deadline %v %v, model's %v %v", p.steps, op, p.now, d, ok, wantD, wantOK)
	}
	if d, ok := sub.NextDeadline(); d != wantD || ok != wantOK {
		t.Fatalf("step %d op %d at %v: NextDeadline = %v %v, scan says %v %v", p.steps, op, p.now, d, ok, wantD, wantOK)
	}
	if sub.Stats() != ref.Stats() {
		t.Fatalf("step %d op %d at %v: stats\n got %+v\nwant %+v", p.steps, op, p.now, sub.Stats(), ref.Stats())
	}
	sizes := func(r *Recoverer) [5]int {
		return [5]int{r.Batches(), len(r.recoveries), len(r.pending), len(r.recent), len(r.attempts)}
	}
	if sizes(sub) != sizes(ref) {
		t.Fatalf("step %d op %d at %v: batches/recoveries/pending/recent/attempts = %v, model %v", p.steps, op, p.now, sizes(sub), sizes(ref))
	}
	p.idx.checkIndex(t, sub, progIDs, p.flowPeak)
	// No unbounded growth: stale entries never outnumber what a queue's
	// map has held by more than two to one.
	queued := [4]int{sub.batchQ.Len(), sub.recoveryQ.Len(), sub.pendingQ.Len(), sub.recentQ.Len()}
	live := sizes(sub)
	for i := range queued {
		p.peak[i] = max(p.peak[i], live[i])
		if queued[i] > 2*p.peak[i]+compactSlack+1 {
			t.Fatalf("step %d op %d at %v: queue %d holds %d entries for at most %d items", p.steps, op, p.now, i, queued[i], p.peak[i])
		}
	}
}

// finish lets every lifetime run out and requires that nothing is left.
func (p *recovererProgram) finish() {
	p.t.Helper()
	p.now += time.Hour
	p.sub.OnTimer(p.now)
	scanOnTimer(p.t, p.ref, p.idx, p.now)
	p.compare(255, nil, nil)
	r := p.sub
	left := []int{
		len(r.batches), len(r.sources), len(r.recoveries), len(r.pending), len(r.attempts), len(r.recent),
		r.batchQ.Len(), r.recoveryQ.Len(), r.pendingQ.Len(), r.recentQ.Len(),
	}
	for _, n := range left {
		if n != 0 {
			p.t.Fatalf("after every TTL ran out, state remains: %v (%v)", left, r)
		}
	}
}

func runRecovererProgram(t testing.TB, prog []byte) *recovererProgram {
	p := &recovererProgram{
		t:    t,
		sub:  NewRecoverer(dc2, DefaultRecovererConfig()),
		ref:  NewRecoverer(dc2, DefaultRecovererConfig()),
		prog: prog,
		idx:  newPacketIndex(),

		flowPeak: map[core.FlowID]int{},
	}
	for p.step() {
	}
	p.finish()
	return p
}

// TestRecovererMatchesScan is the differential oracle for the expiry
// queues: seeded random programs, the scan model checked after every step.
func TestRecovererMatchesScan(t *testing.T) {
	steps, reused := 0, 0
	var did RecovererStats
	for seed := int64(1); steps < 20000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2000)
		rng.Read(prog)
		p := runRecovererProgram(t, prog)
		steps += p.steps
		reused += p.reused
		st := p.sub.Stats()
		did.CodedStored += st.CodedStored
		did.InStreamServed += st.InStreamServed
		did.CoopRecovered += st.CoopRecovered
		did.CoopFailed += st.CoopFailed
		did.StragglersSaved += st.StragglersSaved
		did.Verifies += st.Verifies
		did.PendingMatched += st.PendingMatched
		did.PendingExpired += st.PendingExpired
	}
	// Every path the queues index must have run, or agreement means little.
	if did.CodedStored == 0 || did.InStreamServed == 0 || did.CoopRecovered == 0 || did.CoopFailed == 0 ||
		did.Verifies == 0 || did.PendingMatched == 0 || did.PendingExpired == 0 || reused == 0 {
		t.Errorf("random programs left a path unexercised: %d batches in recycled states, %+v", reused, did)
	}
	t.Logf("%d steps, %d batches in recycled states: %+v", steps, reused, did)
}

// FuzzRecoverer runs arbitrary operation sequences: no panic, no state
// outliving its TTL, queues bounded by live state, and the same answers as
// the scan model throughout.
func FuzzRecoverer(f *testing.F) {
	// A batch, its loss reported twice (in-stream, then cooperative),
	// helpers answering, timers run.
	f.Add([]byte{1, 6, 0, 0, 1, 6, 1, 0, 3, 0, 6, 3, 0, 6, 5, 6, 1, 0, 5, 6, 2, 0, 7, 7, 7})
	// A speculative NACK parked, parity arriving, the probe answered.
	f.Add([]byte{11, 2, 2, 1, 2, 0, 0, 14, 2, 2, 7, 8, 250, 7})
	// One batch refreshed over and over on a moving clock.
	f.Add([]byte{1, 5, 0, 0, 0, 9, 1, 5, 0, 0, 0, 9, 1, 5, 0, 0, 0, 9, 1, 5, 0, 0, 0, 9, 1, 5, 1, 0, 7})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runRecovererProgram(t, prog)
	})
}

// TestRecovererIndexHostileShapes drives the source index with what the
// program's small world cannot spell: one forged batch naming packets at
// opposite ends of the sequence space, a thousand batches all naming one
// packet, and a batch naming the same packet twice — each held to the map
// model while cached, and gone without residue once its TTL runs out.
func TestRecovererIndexHostileShapes(t *testing.T) {
	r := NewRecoverer(dc2, DefaultRecovererConfig())
	idx := newPacketIndex()
	hdr := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dc1, Dst: dc2}
	store := func(now core.Time, meta wire.Coded) {
		t.Helper()
		meta.K, meta.R, meta.ShardLen = uint8(len(meta.Sources)), 1, 3
		r.OnCoded(now, &hdr, &meta, []byte{1, 2, 3})
		idx.learn(r, meta.Batch)
	}
	one := core.PacketID{Flow: 1, Seq: 1}
	far := core.PacketID{Flow: 1, Seq: 1 << 62}
	twice := core.PacketID{Flow: 2, Seq: 5}
	ids := []core.PacketID{one, far, twice, {Flow: 1, Seq: 2}, {Flow: 3, Seq: 1}}

	store(0, wire.Coded{Batch: 1, Kind: wire.InStream, Sources: []wire.SourceRef{
		{Flow: 1, Seq: one.Seq, Receiver: 101}, {Flow: 1, Seq: far.Seq, Receiver: 101}}})
	store(0, wire.Coded{Batch: 2, Sources: []wire.SourceRef{
		{Flow: 2, Seq: twice.Seq, Receiver: 102}, {Flow: 2, Seq: twice.Seq, Receiver: 102}}})
	store(0, wire.Coded{Batch: 3, Kind: wire.InStream, Sources: []wire.SourceRef{
		{Flow: 1, Seq: one.Seq, Receiver: 101}, {Flow: 1, Seq: 2, Receiver: 101}}})
	for i := 0; i < 1000; i++ {
		store(core.Time(i)*time.Millisecond, wire.Coded{Batch: uint64(10 + i), Sources: []wire.SourceRef{
			{Flow: 1, Seq: one.Seq, Receiver: 101}, {Flow: 3, Seq: core.Seq(i), Receiver: 103}}})
	}
	peak := map[core.FlowID]int{}
	idx.checkIndex(t, r, ids, peak)
	if in, cross := r.coveringBatches(one); in == nil || in.meta.Batch != 3 || cross == nil || cross.meta.Batch != 1009 {
		t.Fatalf("the packet 1 002 batches name is covered by %v / %v, want the freshest of each kind, 3 and 1009", in, cross)
	}
	if in, _ := r.coveringBatches(far); in == nil || in.meta.Batch != 1 {
		t.Fatal("the far-apart seq of the forged batch is not indexed")
	}

	// NACKs count escalation for every packet; expiry must clear each count
	// when — and only when — the last batch naming the packet goes.
	now := 999 * time.Millisecond
	for _, id := range ids[:3] {
		r.OnNACK(now, 200, id, 0)
	}
	ttl := DefaultRecovererConfig().BatchTTL
	for _, step := range []struct {
		at      core.Time
		batches int
		counted []core.PacketID
	}{
		{ttl, 999, []core.PacketID{one}}, // batches 1, 2, 3 and 10 are due
		{ttl + 500*time.Millisecond, 499, []core.PacketID{one}},
		{ttl + 999*time.Millisecond, 0, nil},
	} {
		for _, b := range r.batches {
			if b.expires <= step.at {
				idx.forget(b.meta.Batch)
			}
		}
		r.OnTimer(step.at)
		idx.checkIndex(t, r, ids, peak)
		if r.Batches() != step.batches || len(r.attempts) != len(step.counted) {
			t.Fatalf("at %v: %d batches, escalation counts %v; want %d and %v", step.at, r.Batches(), r.attempts, step.batches, step.counted)
		}
		for _, id := range step.counted {
			if _, ok := r.attempts[id]; !ok {
				t.Fatalf("at %v: %v lost its escalation count while batches still name it", step.at, id)
			}
		}
	}
	if left := []int{len(r.sources), len(r.batches), len(r.attempts), len(r.pending)}; !reflect.DeepEqual(left, []int{0, 0, 0, 0}) {
		t.Fatalf("after every TTL ran out: sources/batches/attempts/pending = %v", left)
	}
}

// TestRecovererIndexStuckHead: a peer that keeps refreshing one old batch
// keeps that batch's ref live at the head of its flow's ring, so the refs of
// every later batch go stale behind it instead of leaving. Compaction must
// hold the ring — and with it the dropped batches the stale refs still
// reference — to its bound, however long that goes on.
func TestRecovererIndexStuckHead(t *testing.T) {
	r := NewRecoverer(dc2, DefaultRecovererConfig())
	idx := newPacketIndex()
	peak := map[core.FlowID]int{}
	hdr := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dc1, Dst: dc2}
	store := func(now core.Time, batch uint64, seq core.Seq) {
		meta := wire.Coded{Batch: batch, K: 1, R: 1, ShardLen: 3, Sources: []wire.SourceRef{{Flow: 4, Seq: seq, Receiver: 104}}}
		r.OnCoded(now, &hdr, &meta, []byte{1, 2, 3})
		idx.learn(r, batch)
	}
	ids := []core.PacketID{{Flow: 4, Seq: 1}, {Flow: 4, Seq: 2}, {Flow: 4, Seq: 5000}}
	for i := 1; i <= 5000; i++ {
		now := core.Time(i) * 10 * time.Millisecond
		store(now, 1, 1) // the refresh: same batch, a new lease
		store(now, uint64(1+i), core.Seq(1+i))
		idx.checkIndex(t, r, ids, peak)
		for _, b := range r.batches {
			if b.expires <= now {
				idx.forget(b.meta.Batch)
			}
		}
		r.OnTimer(now)
		idx.checkIndex(t, r, ids, peak)
	}
	if x := r.sources[4]; x.batches != 201 || r.Batches() != 201 {
		t.Fatalf("after 50 s: %d live refs, %d batches; want the refreshed one and 2 s worth, 201", x.batches, r.Batches())
	}
}
