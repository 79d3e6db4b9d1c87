package recovery

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

const (
	self   core.NodeID = 100
	dcNode core.NodeID = 2
	sender core.NodeID = 50
)

func testReceiver() *Receiver {
	cfg := DefaultConfig(self, dcNode, 100*time.Millisecond)
	return New(cfg)
}

func dataHdr(flow, seq uint64, ts core.Time) wire.Header {
	return wire.Header{
		Type: wire.TypeData, Flow: core.FlowID(flow), Seq: core.Seq(seq),
		TS: ts, Src: sender, Dst: self,
	}
}

func pay(seq uint64) []byte { return []byte{byte(seq), 0xAB, byte(seq >> 8)} }

// feed pushes seq with default payload at time now.
func feed(r *Receiver, now core.Time, flow, seq uint64) Result {
	h := dataHdr(flow, seq, now)
	return r.OnData(now, &h, pay(seq))
}

// scribble overwrites every delivered payload, as the application owning
// them may at once: nothing the receiver reads later may change with them.
func scribble(res Result) {
	for _, d := range res.Deliveries {
		for i := range d.Packet.Payload {
			d.Packet.Payload[i] = 0xFF
		}
	}
}

func emitTypes(t *testing.T, emits []core.Emit) []wire.MsgType {
	t.Helper()
	var ts []wire.MsgType
	for _, em := range emits {
		var h wire.Header
		if _, err := wire.SplitMessage(&h, em.Msg); err != nil {
			t.Fatal(err)
		}
		ts = append(ts, h.Type)
	}
	return ts
}

func TestInOrderDelivery(t *testing.T) {
	r := testReceiver()
	var delivered []core.Seq
	for seq := uint64(1); seq <= 5; seq++ {
		res := feed(r, core.Time(seq)*time.Millisecond, 1, seq)
		if len(res.Emits) != 0 {
			t.Fatalf("seq %d emitted %v", seq, emitTypes(t, res.Emits))
		}
		for _, d := range res.Deliveries {
			delivered = append(delivered, d.Packet.ID.Seq)
			if d.Recovered || d.Via != core.ServiceInternet {
				t.Errorf("direct delivery marked recovered: %+v", d)
			}
		}
	}
	if len(delivered) != 5 {
		t.Fatalf("delivered %v", delivered)
	}
	if r.Stats().DataReceived != 5 || r.Stats().LossesSeen != 0 {
		t.Errorf("stats: %+v", r.Stats())
	}
}

func TestGapTriggersNACK(t *testing.T) {
	r := testReceiver()
	feed(r, 0, 1, 1)
	res := feed(r, time.Millisecond, 1, 4) // 2,3 missing
	nacks := 0
	for i, typ := range emitTypes(t, res.Emits) {
		if typ != wire.TypeNACK {
			t.Errorf("emit %d = %v", i, typ)
		}
		nacks++
	}
	if nacks != 2 {
		t.Fatalf("NACKs = %d, want 2", nacks)
	}
	var h wire.Header
	if _, err := wire.SplitMessage(&h, res.Emits[0].Msg); err != nil {
		t.Fatal(err)
	}
	if h.Dst != dcNode || res.Emits[0].To != dcNode {
		t.Error("NACK not addressed to the DC")
	}
	if h.Seq != 2 {
		t.Errorf("first NACK seq = %d", h.Seq)
	}
	st := r.Stats()
	if st.GapNACKs != 2 || st.LossesSeen != 2 {
		t.Errorf("stats: %+v", st)
	}
	if r.OutstandingLosses() != 2 {
		t.Errorf("outstanding = %d", r.OutstandingLosses())
	}
}

func TestMidJoinDoesNotNACKHistory(t *testing.T) {
	r := testReceiver()
	res := feed(r, 0, 1, 500)
	if len(res.Emits) != 0 {
		t.Fatalf("join emitted %v", emitTypes(t, res.Emits))
	}
	if len(res.Deliveries) != 1 {
		t.Fatal("join packet not delivered")
	}
}

func TestLateArrivalResolvesLoss(t *testing.T) {
	r := testReceiver()
	feed(r, 0, 1, 1)
	feed(r, time.Millisecond, 1, 3) // 2 missing
	res := feed(r, 2*time.Millisecond, 1, 2)
	if len(res.Deliveries) != 1 || res.Deliveries[0].Recovered {
		t.Fatalf("late arrival mishandled: %+v", res.Deliveries)
	}
	if r.OutstandingLosses() != 0 {
		t.Error("loss not resolved")
	}
	if r.Stats().LateArrivals != 1 {
		t.Errorf("stats: %+v", r.Stats())
	}
}

func TestDuplicateDropped(t *testing.T) {
	r := testReceiver()
	feed(r, 0, 1, 1)
	res := feed(r, time.Millisecond, 1, 1)
	if len(res.Deliveries) != 0 {
		t.Fatal("duplicate delivered")
	}
	if r.Stats().Duplicates != 1 {
		t.Errorf("stats: %+v", r.Stats())
	}
}

func TestFirstPacketArmsLongTimer(t *testing.T) {
	// A lone packet gives no inter-arrival evidence of a burst, so the
	// long (RTT) timer applies — this is what keeps CBR streams with
	// spacing above the small timeout from NACK-storming.
	r := testReceiver()
	feed(r, 0, 1, 1)
	dl, ok := r.NextDeadline()
	if !ok || dl != 100*time.Millisecond {
		t.Fatalf("deadline = %v %v, want RTT", dl, ok)
	}
}

func TestSmallTimeoutNACKsAndGoesIdle(t *testing.T) {
	r := testReceiver()
	feed(r, 0, 1, 1)
	feed(r, 5*time.Millisecond, 1, 2) // 5ms inter-arrival → burst state
	dl, ok := r.NextDeadline()
	if !ok || dl != 30*time.Millisecond {
		t.Fatalf("deadline = %v %v, want 5ms+small", dl, ok)
	}
	res := r.OnTimer(30 * time.Millisecond)
	types := emitTypes(t, res.Emits)
	if len(types) != 1 || types[0] != wire.TypeNACK {
		t.Fatalf("timer emits = %v", types)
	}
	var h wire.Header
	wire.SplitMessage(&h, res.Emits[0].Msg)
	if h.Seq != 3 || h.Flags&wire.FlagWantVerify == 0 {
		t.Errorf("timer NACK: seq=%d flags=%x", h.Seq, h.Flags)
	}
	if r.Stats().TimerNACKs != 1 {
		t.Errorf("stats: %+v", r.Stats())
	}
	// Now idle: long timer (RTT = 100ms) armed.
	dl, ok = r.NextDeadline()
	if !ok || dl > 30*time.Millisecond+100*time.Millisecond {
		t.Fatalf("idle deadline = %v", dl)
	}
}

func TestIdleTimeoutFiresOnceThenDisarms(t *testing.T) {
	cfg := DefaultConfig(self, dcNode, 100*time.Millisecond)
	cfg.NACKRetry = 0 // isolate the state machine
	cfg.GiveUpAfter = time.Hour
	r := New(cfg)
	feed(r, 0, 1, 1)
	r.OnTimer(25 * time.Millisecond) // burst → NACK seq2, idle
	res := r.OnTimer(time.Second)    // idle fires: NACK seq3
	if n := len(res.Emits); n != 1 {
		t.Fatalf("idle emits = %d", n)
	}
	if r.Stats().IdleNACKs != 1 {
		t.Errorf("stats: %+v", r.Stats())
	}
	// After the single idle NACK the flow timer disarms.
	r.OnTimer(2 * time.Second)
	res = r.OnTimer(3 * time.Second)
	if len(res.Emits) != 0 {
		t.Error("idle NACK repeated")
	}
	// New data re-arms everything.
	feed(r, 4*time.Second, 1, 4)
	if _, ok := r.NextDeadline(); !ok {
		t.Error("timer not re-armed by data")
	}
}

func TestSingleTimerModeKeepsFiring(t *testing.T) {
	cfg := DefaultConfig(self, dcNode, 100*time.Millisecond)
	cfg.SingleTimer = true
	cfg.NACKRetry = 0
	cfg.GiveUpAfter = time.Hour
	r := New(cfg)
	feed(r, 0, 1, 1)
	fired := 0
	now := core.Time(0)
	for i := 0; i < 10; i++ {
		dl, ok := r.NextDeadline()
		if !ok {
			break
		}
		now = dl
		res := r.OnTimer(now)
		fired += len(res.Emits)
	}
	// Single-timer mode keeps NACKing every small timeout — the NACK
	// storm the two-state model avoids (§6.4: 5× fewer NACKs).
	if fired < 5 {
		t.Errorf("single-timer fired only %d NACKs", fired)
	}
}

func TestTwoStateVsSingleTimerNACKReduction(t *testing.T) {
	// Bursty sender: 10 bursts of 5 packets at 5ms spacing, 2s gaps.
	run := func(single bool) uint64 {
		cfg := DefaultConfig(self, dcNode, 200*time.Millisecond)
		cfg.SingleTimer = single
		cfg.NACKRetry = 0
		cfg.GiveUpAfter = time.Hour
		r := New(cfg)
		now := core.Time(0)
		seq := uint64(1)
		for burst := 0; burst < 10; burst++ {
			for p := 0; p < 5; p++ {
				feed(r, now, 1, seq)
				seq++
				now += 5 * time.Millisecond
			}
			// Silence between bursts: drive timers to quiescence.
			end := now + 2*time.Second
			for {
				dl, ok := r.NextDeadline()
				if !ok || dl > end {
					break
				}
				r.OnTimer(dl)
			}
			now = end
		}
		return r.Stats().NACKsSent()
	}
	two := run(false)
	single := run(true)
	if two == 0 || single == 0 {
		t.Fatalf("no NACKs at all: two=%d single=%d", two, single)
	}
	ratio := float64(single) / float64(two)
	if ratio < 3 {
		t.Errorf("single/two NACK ratio = %.1f (%d vs %d), want ≥3 (paper: ~5x)",
			ratio, single, two)
	}
}

func TestNACKRetryEscalation(t *testing.T) {
	cfg := DefaultConfig(self, dcNode, 100*time.Millisecond)
	cfg.NACKRetry = 20 * time.Millisecond
	cfg.MaxNACKs = 3
	cfg.GiveUpAfter = time.Hour
	cfg.SmallTimeout = 10 * time.Second // keep the burst timer out of the way
	r := New(cfg)
	feed(r, 0, 1, 1)
	feed(r, time.Millisecond, 1, 3) // seq 2 missing, first NACK sent
	res := r.OnTimer(21 * time.Millisecond)
	if got := len(res.Emits); got < 1 {
		t.Fatalf("no retry NACK: %d", got)
	}
	r.OnTimer(41 * time.Millisecond)
	// MaxNACKs=3 reached; no further retries.
	res = r.OnTimer(61 * time.Millisecond)
	for _, typ := range emitTypes(t, res.Emits) {
		if typ == wire.TypeNACK {
			t.Error("retry beyond MaxNACKs")
		}
	}
	if r.Stats().RetryNACKs != 2 {
		t.Errorf("retries = %d", r.Stats().RetryNACKs)
	}
}

func TestGiveUpAfterHorizon(t *testing.T) {
	cfg := DefaultConfig(self, dcNode, 50*time.Millisecond)
	cfg.GiveUpAfter = 100 * time.Millisecond
	cfg.NACKRetry = 0
	cfg.SmallTimeout = 10 * time.Second // keep the burst timer out of the way
	r := New(cfg)
	feed(r, 0, 1, 1)
	feed(r, time.Millisecond, 1, 3)
	r.OnTimer(200 * time.Millisecond)
	if r.OutstandingLosses() != 0 {
		t.Error("loss not abandoned")
	}
	if r.Stats().GaveUp != 1 {
		t.Errorf("stats: %+v", r.Stats())
	}
}

func TestOnRecoveredDelivers(t *testing.T) {
	r := testReceiver()
	feed(r, 0, 1, 1)
	feed(r, time.Millisecond, 1, 3) // 2 missing
	h := wire.Header{Type: wire.TypeRecovered, Service: core.ServiceCoding,
		Flow: 1, Seq: 2, TS: 0, Src: dcNode, Dst: self}
	res := r.OnRecovered(10*time.Millisecond, &h, pay(2))
	if len(res.Deliveries) != 1 {
		t.Fatal("no delivery")
	}
	d := res.Deliveries[0]
	if !d.Recovered || d.Via != core.ServiceCoding || !bytes.Equal(d.Packet.Payload, pay(2)) {
		t.Errorf("delivery: %+v", d)
	}
	if r.OutstandingLosses() != 0 || r.Stats().Recovered != 1 {
		t.Errorf("stats: %+v", r.Stats())
	}
	// A second copy of the same recovery is a duplicate.
	if res := r.OnRecovered(11*time.Millisecond, &h, pay(2)); len(res.Deliveries) != 0 {
		t.Error("duplicate recovery delivered")
	}
}

// TestPumpNACKsAheadDuringOutage: a recovery of a loss detected while the
// direct path was already silent marks an outage. The pump then NACKs the
// pumpWindow sequence numbers past the recovered one, and each further
// recovery tops the window up.
func TestPumpNACKsAheadDuringOutage(t *testing.T) {
	r := testReceiver()
	for seq := uint64(1); seq <= 3; seq++ {
		feed(r, time.Duration(seq)*5*time.Millisecond, 1, seq)
	}
	// The direct path goes silent: the next timer NACKs seq 4.
	at, ok := r.NextDeadline()
	if !ok {
		t.Fatal("no timer armed")
	}
	if res := r.OnTimer(at); len(res.Emits) != 1 || r.OutstandingLosses() != 1 {
		t.Fatalf("timer sent %d messages, %d losses tracked; want 1 NACK for seq 4", len(res.Emits), r.OutstandingLosses())
	}
	recoverSeq := func(seq uint64) []core.Seq {
		at += 5 * time.Millisecond
		h := wire.Header{Type: wire.TypeRecovered, Service: core.ServiceCoding,
			Flow: 1, Seq: core.Seq(seq), Src: dcNode, Dst: self}
		var nacked []core.Seq
		for _, em := range r.OnRecovered(at, &h, pay(seq)).Emits {
			var nh wire.Header
			if _, err := wire.SplitMessage(&nh, em.Msg); err != nil || nh.Type != wire.TypeNACK {
				t.Fatalf("recovery emitted %v (%v), want NACKs only", nh.Type, err)
			}
			nacked = append(nacked, nh.Seq)
		}
		return nacked
	}
	// Recovering 4 NACKs (4, 4+pumpWindow]: everything after it.
	var want []core.Seq
	for s := core.Seq(5); s <= 4+pumpWindow; s++ {
		want = append(want, s)
	}
	if got := recoverSeq(4); !slices.Equal(got, want) {
		t.Fatalf("recovering 4 NACKed %v, want %v", got, want)
	}
	if got := r.Stats().PumpNACKs; got != pumpWindow {
		t.Fatalf("PumpNACKs = %d, want %d", got, pumpWindow)
	}
	// Recovering 5, itself a pump NACK, moves the window one on.
	if got := recoverSeq(5); !slices.Equal(got, []core.Seq{5 + pumpWindow}) {
		t.Fatalf("recovering 5 NACKed %v, want [%d]", got, 5+pumpWindow)
	}
	if got := r.Stats().PumpNACKs; got != pumpWindow+1 {
		t.Fatalf("PumpNACKs = %d, want %d", got, pumpWindow+1)
	}
}

func TestInStreamLocalDecode(t *testing.T) {
	r := testReceiver()
	// Build a 3-packet block with 1 parity, lose seq 2.
	payloads := [][]byte{pay(1), pay(2), pay(3)}
	shards, shardLen, err := rs.PackBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	codec, _ := rs.NewCodec(3, 1)
	all := append(shards, make([]byte, shardLen))
	if err := codec.Encode(all); err != nil {
		t.Fatal(err)
	}
	// The decode reads the window's copies, not the scribbled deliveries.
	scribble(feed(r, 0, 1, 1))
	scribble(feed(r, time.Millisecond, 1, 3)) // seq2 missing → NACK
	meta := wire.Coded{Batch: 9, Kind: wire.InStream, K: 3, R: 1, Index: 0,
		ShardLen: uint16(shardLen),
		Sources: []wire.SourceRef{
			{Flow: 1, Seq: 1, Receiver: self},
			{Flow: 1, Seq: 2, Receiver: self},
			{Flow: 1, Seq: 3, Receiver: self},
		}}
	h := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dcNode, Dst: self}
	res := r.OnCoded(2*time.Millisecond, &h, &meta, all[3])
	if len(res.Deliveries) != 1 {
		t.Fatalf("deliveries = %d", len(res.Deliveries))
	}
	d := res.Deliveries[0]
	if d.Packet.ID.Seq != 2 || !bytes.Equal(d.Packet.Payload, pay(2)) || !d.Recovered {
		t.Errorf("decoded delivery: %+v seq payload %q", d, d.Packet.Payload)
	}
	if r.Stats().InStreamLocal != 1 {
		t.Errorf("stats: %+v", r.Stats())
	}
	if r.OutstandingLosses() != 0 {
		t.Error("loss still tracked after decode")
	}
}

func TestInStreamDecodeInsufficient(t *testing.T) {
	r := testReceiver()
	// Two of three packets missing with only one parity: cannot decode.
	payloads := [][]byte{pay(1), pay(2), pay(3)}
	shards, shardLen, _ := rs.PackBatch(payloads)
	codec, _ := rs.NewCodec(3, 1)
	all := append(shards, make([]byte, shardLen))
	codec.Encode(all)
	feed(r, 0, 1, 1) // only seq 1 received
	meta := wire.Coded{Batch: 9, Kind: wire.InStream, K: 3, R: 1, Index: 0,
		ShardLen: uint16(shardLen),
		Sources: []wire.SourceRef{
			{Flow: 1, Seq: 1, Receiver: self},
			{Flow: 1, Seq: 2, Receiver: self},
			{Flow: 1, Seq: 3, Receiver: self},
		}}
	h := wire.Header{Type: wire.TypeCoded, Src: dcNode, Dst: self}
	res := r.OnCoded(time.Millisecond, &h, &meta, all[3])
	if len(res.Deliveries) != 0 {
		t.Fatal("decoded from insufficient shards")
	}
	// The pending decode state expires via OnTimer.
	r.OnTimer(time.Hour)
	if len(r.inDec) != 0 {
		t.Error("in-stream decode state leaked")
	}
}

// TestOnCodedRejectsMalformed: the shard table is sized from the wire's K
// and R, so an in-stream message whose source list, parity count or parity
// index disagrees with them must be dropped before anything is indexed.
func TestOnCodedRejectsMalformed(t *testing.T) {
	three := []wire.SourceRef{
		{Flow: 1, Seq: 1, Receiver: self},
		{Flow: 1, Seq: 2, Receiver: self},
		{Flow: 1, Seq: 3, Receiver: self},
	}
	cases := []struct {
		name string
		meta wire.Coded
	}{
		// Panicked with "index out of range [2] with length 2".
		{"more sources than K", wire.Coded{Batch: 9, Kind: wire.InStream, K: 1, R: 1, Sources: three}},
		{"fewer sources than K", wire.Coded{Batch: 9, Kind: wire.InStream, K: 5, R: 1, Sources: three}},
		{"no parity", wire.Coded{Batch: 9, Kind: wire.InStream, K: 3, R: 0, Sources: three}},
		{"index past R", wire.Coded{Batch: 9, Kind: wire.InStream, K: 3, R: 1, Index: 1, Sources: three}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := testReceiver()
			feed(r, 0, 1, 1)
			h := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dcNode, Dst: self}
			res := r.OnCoded(time.Millisecond, &h, &c.meta, make([]byte, 8))
			if len(res.Deliveries) != 0 || len(res.Emits) != 0 {
				t.Errorf("malformed parity produced output: %+v", res)
			}
			if r.Stats().Dropped != 1 {
				t.Errorf("Dropped = %d, want 1", r.Stats().Dropped)
			}
			if len(r.inDec) != 0 {
				t.Error("malformed parity left decode state behind")
			}
		})
	}
}

// TestForgedShapesLeaveCodecCacheBounded: an in-stream decode takes its
// (K, R) off the wire. A flood of distinct forged shapes, each decodable
// (K=1, the one parity shard present), must leave the receiver's codec
// cache at its bound rather than growing by a matrix per shape.
func TestForgedShapesLeaveCodecCacheBounded(t *testing.T) {
	r := testReceiver()
	h := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dcNode, Dst: self}
	shard := make([]byte, 8)
	for m := 1; m <= 200; m++ {
		meta := wire.Coded{Batch: uint64(m), Kind: wire.InStream, K: 1, R: uint8(m), ShardLen: 8,
			Sources: []wire.SourceRef{{Flow: 1, Seq: core.Seq(m), Receiver: self}}}
		if res := r.OnCoded(0, &h, &meta, shard); len(res.Deliveries) != 1 {
			t.Fatalf("forged (1, %d) block: %d deliveries, want 1 (the flood must reach the codec)", m, len(res.Deliveries))
		}
		if n := r.codecs.Len(); n > rs.DecoderShapes {
			t.Fatalf("after %d forged shapes the receiver caches %d codecs, bound %d", m, n, rs.DecoderShapes)
		}
	}
	if n := r.codecs.Len(); n != rs.DecoderShapes {
		t.Errorf("cache holds %d codecs after the flood, want its bound %d", n, rs.DecoderShapes)
	}
}

func TestCrossStreamCodedIgnoredLocally(t *testing.T) {
	r := testReceiver()
	meta := wire.Coded{Batch: 9, Kind: wire.CrossStream, K: 2, R: 1,
		Sources: []wire.SourceRef{{Flow: 1, Seq: 1, Receiver: self}, {Flow: 2, Seq: 1, Receiver: 7}}}
	h := wire.Header{Type: wire.TypeCoded, Src: dcNode, Dst: self}
	if res := r.OnCoded(0, &h, &meta, []byte{1, 2}); len(res.Deliveries) != 0 || len(res.Emits) != 0 {
		t.Error("cross-stream parity processed by receiver")
	}
}

func TestCoopReqAnswered(t *testing.T) {
	r := testReceiver()
	scribble(feed(r, 0, 1, 7)) // the response reads the window's copy
	ref := wire.CoopRef{Batch: 3, Want: core.PacketID{Flow: 9, Seq: 1}}
	h := wire.Header{Type: wire.TypeCoopReq, Flow: 1, Seq: 7, Src: dcNode, Dst: self}
	res := r.OnCoopReq(time.Millisecond, &h, &ref)
	if len(res.Emits) != 1 || res.Emits[0].To != dcNode {
		t.Fatalf("coop response: %+v", res.Emits)
	}
	var rh wire.Header
	body, _ := wire.SplitMessage(&rh, res.Emits[0].Msg)
	if rh.Type != wire.TypeCoopResp || rh.Flow != 1 || rh.Seq != 7 {
		t.Errorf("resp header: %+v", rh)
	}
	var gotRef wire.CoopRef
	payload, err := gotRef.Unmarshal(body)
	if err != nil || gotRef != ref || !bytes.Equal(payload, pay(7)) {
		t.Errorf("resp body: %+v %q %v", gotRef, payload, err)
	}
	if r.Stats().CoopResponses != 1 {
		t.Errorf("stats: %+v", r.Stats())
	}
}

// TestCoopRespAllocatesOnce: a helper's answer is one allocation, sized for
// header, reference and payload before any of them is written.
func TestCoopRespAllocatesOnce(t *testing.T) {
	// Under the race detector append(dst, make(...)...), which marshalling
	// uses, materialises its temporary.
	roomy, n := make([]byte, 0, 64), 40
	if testing.AllocsPerRun(10, func() { roomy = append(roomy[:0], make([]byte, n)...) }) != 0 {
		t.Skip("this build allocates for append(dst, make(...)...)")
	}
	r := testReceiver()
	feed(r, 0, 1, 7)
	ref := wire.CoopRef{Batch: 3, Want: core.PacketID{Flow: 9, Seq: 1}}
	h := wire.Header{Type: wire.TypeCoopReq, Flow: 1, Seq: 7, Src: dcNode, Dst: self}
	answer := func() {
		if res := r.OnCoopReq(time.Millisecond, &h, &ref); len(res.Emits) != 1 {
			t.Fatalf("%d coop responses, want 1", len(res.Emits))
		}
	}
	if n := testing.AllocsPerRun(100, answer); n != 1 {
		t.Errorf("a coop response allocates %v times, want 1", n)
	}
}

func TestCoopReqForUnknownPacketIgnored(t *testing.T) {
	r := testReceiver()
	ref := wire.CoopRef{Batch: 3}
	h := wire.Header{Type: wire.TypeCoopReq, Flow: 1, Seq: 7, Src: dcNode, Dst: self}
	if res := r.OnCoopReq(0, &h, &ref); len(res.Emits) != 0 {
		t.Error("responded without the packet")
	}
	feed(r, 0, 2, 1)
	h.Flow = 2
	h.Seq = 99
	if res := r.OnCoopReq(0, &h, &ref); len(res.Emits) != 0 {
		t.Error("responded for unseen seq")
	}
}

func TestVerifyResponses(t *testing.T) {
	r := testReceiver()
	feed(r, 0, 1, 1)
	feed(r, time.Millisecond, 1, 3) // seq 2 missing
	h := wire.Header{Type: wire.TypeVerify, Flow: 1, Seq: 2, Src: dcNode, Dst: self}
	res := r.OnVerify(2*time.Millisecond, &h)
	var rh wire.Header
	wire.SplitMessage(&rh, res.Emits[0].Msg)
	if rh.Type != wire.TypeVerifyResp || rh.Flags&wire.FlagStillWanted == 0 {
		t.Errorf("verify resp: %+v", rh)
	}
	// After the packet shows up, verification reports not-wanted.
	feed(r, 3*time.Millisecond, 1, 2)
	res = r.OnVerify(4*time.Millisecond, &h)
	wire.SplitMessage(&rh, res.Emits[0].Msg)
	if rh.Flags&wire.FlagStillWanted != 0 {
		t.Error("verify still wanted after arrival")
	}
	if r.Stats().VerifyReplies != 2 {
		t.Errorf("stats: %+v", r.Stats())
	}
}

func TestRecentWindowEviction(t *testing.T) {
	cfg := DefaultConfig(self, dcNode, 100*time.Millisecond)
	cfg.RecentWindow = 4
	r := New(cfg)
	for seq := uint64(1); seq <= 10; seq++ {
		feed(r, core.Time(seq)*time.Millisecond, 1, seq)
	}
	fs := r.flows[1]
	if len(fs.recent) != 4 || len(fs.order) != 4 {
		t.Errorf("window sizes: recent=%d order=%d", len(fs.recent), len(fs.order))
	}
	if _, ok := fs.recent[10]; !ok {
		t.Error("newest packet evicted")
	}
	if _, ok := fs.recent[1]; ok {
		t.Error("oldest packet retained")
	}
}

// TestRecentWindowMatchesSliceModel holds the ring of seqs to the slice it
// replaced (append, then cut the front while over the window): under
// scrambled, duplicated and late arrivals the two keep the same packets.
func TestRecentWindowMatchesSliceModel(t *testing.T) {
	cfg := DefaultConfig(self, dcNode, 100*time.Millisecond)
	cfg.RecentWindow = 7
	r := New(cfg)
	var order []core.Seq
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		seq := uint64(1 + i/2 + rng.Intn(12)) // mostly forward, often back
		res := feed(r, core.Time(i)*time.Millisecond, 1, seq)
		for _, d := range res.Deliveries {
			order = append(order, d.Packet.ID.Seq)
			for len(order) > cfg.RecentWindow {
				order = order[1:]
			}
		}
		fs := r.flows[1]
		if len(fs.recent) != len(order) {
			t.Fatalf("step %d: window holds %d packets, model %d", i, len(fs.recent), len(order))
		}
		for _, q := range order {
			if _, ok := fs.recent[q]; !ok {
				t.Fatalf("step %d: seq %d left the window, model keeps %v", i, q, order)
			}
		}
	}
	if st := r.Stats(); st.Duplicates == 0 || st.LateArrivals == 0 {
		t.Errorf("the script exercised no duplicate or late arrival: %+v", st)
	}
}

// TestInOrderOnDataAllocatesNothing pins the steady state of the direct
// path: the application is handed the arriving payload itself, and once the
// window has filled each accept copies into the buffer of the packet it
// evicts. While the window fills, an accept allocates that buffer.
func TestInOrderOnDataAllocatesNothing(t *testing.T) {
	r := testReceiver()
	payload := make([]byte, 512)
	seq := uint64(0)
	next := func() {
		seq++
		h := dataHdr(1, seq, core.Time(seq)*time.Millisecond)
		if res := r.OnData(h.TS, &h, payload); len(res.Deliveries) != 1 || len(res.Emits) != 0 {
			t.Fatalf("seq %d: %d deliveries, %d emits", seq, len(res.Deliveries), len(res.Emits))
		}
	}
	next() // the flow's state and the result buffer
	window := r.Config().RecentWindow
	if n := testing.AllocsPerRun(window-2, next); n != 1 {
		t.Errorf("in-order OnData allocates %v times while the window fills, want 1 (its buffer)", n)
	}
	if n := testing.AllocsPerRun(500, next); n != 0 {
		t.Errorf("in-order OnData allocates %v times on a full window, want 0", n)
	}
}

// TestRetryNACKsAscending: retries that come due in the same instant leave
// in seq order, not in the order a map walk happens to find them.
func TestRetryNACKsAscending(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := testReceiver()
		feed(r, 0, 1, 1)
		feed(r, time.Millisecond, 1, 40) // 2..39 missing, all NACKed at 1 ms
		res := r.OnTimer(time.Millisecond + r.Config().NACKRetry)
		var seqs []core.Seq
		for _, em := range res.Emits {
			var h wire.Header
			if _, err := wire.SplitMessage(&h, em.Msg); err != nil {
				t.Fatal(err)
			}
			// The burst timer's own NACK (seq 41, speculative) comes due too.
			if h.Type == wire.TypeNACK && h.Flags&wire.FlagWantVerify == 0 {
				seqs = append(seqs, h.Seq)
			}
		}
		if len(seqs) != 38 || !slices.IsSorted(seqs) {
			t.Fatalf("round %d: retry NACKs for %v", round, seqs)
		}
	}
}

func TestMultipleFlowsIndependent(t *testing.T) {
	r := testReceiver()
	feed(r, 0, 1, 1)
	feed(r, 0, 2, 1)
	res := feed(r, time.Millisecond, 1, 3) // flow 1 gap
	if len(res.Emits) != 1 {
		t.Fatal("flow 1 gap NACK missing")
	}
	if res := feed(r, time.Millisecond, 2, 2); len(res.Emits) != 0 {
		t.Error("flow 2 affected by flow 1 gap")
	}
}

func TestDeliveryCarriesTimestamps(t *testing.T) {
	r := testReceiver()
	h := dataHdr(1, 1, 5*time.Millisecond) // sender stamped 5ms
	res := r.OnData(9*time.Millisecond, &h, pay(1))
	d := res.Deliveries[0]
	if d.Packet.Sent != 5*time.Millisecond || d.At != 9*time.Millisecond {
		t.Errorf("timestamps: sent=%v at=%v", d.Packet.Sent, d.At)
	}
}

func TestDefaultsFilled(t *testing.T) {
	r := New(Config{Self: self, DC: dcNode})
	cfg := r.Config()
	if cfg.SmallTimeout != 25*time.Millisecond || cfg.RTT <= 0 || cfg.MaxNACKs <= 0 ||
		cfg.GiveUpAfter <= 0 || cfg.RecentWindow <= 0 {
		t.Errorf("defaults not filled: %+v", cfg)
	}
}

func TestStringer(t *testing.T) {
	r := testReceiver()
	if s := r.String(); !strings.Contains(s, "0 flows") {
		t.Errorf("String = %q", s)
	}
}

func BenchmarkOnDataInOrder(b *testing.B) {
	r := testReceiver()
	payload := make([]byte, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := dataHdr(1, uint64(i+1), core.Time(i))
		r.OnData(core.Time(i), &h, payload)
	}
}
