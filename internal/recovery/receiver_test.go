package recovery

import (
	"bytes"
	"math/rand"
	"slices"
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

// dataHdr is the header of a direct data copy of a coding flow, the service
// DefaultConfig's receivers serve: its payload is kept in the window.
func dataHdr(flow, seq uint64, ts core.Time) wire.Header {
	return wire.Header{
		Type: wire.TypeData, Service: core.ServiceCoding, Flow: core.FlowID(flow), Seq: core.Seq(seq),
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
	r := testReceiver()
	feed(r, 0, 1, 1)
	r.OnTimer(25 * time.Millisecond) // a lone packet armed the long timer: nothing yet
	res := r.OnTimer(time.Second)    // idle fires: NACK seq 2
	if n := len(res.Emits); n != 1 {
		t.Fatalf("idle emits = %d", n)
	}
	if r.Stats().IdleNACKs != 1 {
		t.Errorf("stats: %+v", r.Stats())
	}
	// After the single idle NACK the flow timer disarms; seq 2 is given up
	// on before any retry of it is due.
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

func TestTwoStateVsSingleTimerNACKReduction(t *testing.T) {
	// Bursty sender: 10 bursts of 5 packets at 5ms spacing, 2s gaps.
	r := New(DefaultConfig(self, dcNode, 200*time.Millisecond))
	// The baseline is a receiver without the idle state (§3.4): its small
	// timer NACKs once per SmallTimeout of silence, across bursts too.
	var single uint64
	last := core.Time(0)
	silence := func(until core.Time) {
		single += uint64((until - last) / SmallTimeout)
	}
	now := core.Time(0)
	seq := uint64(1)
	for burst := 0; burst < 10; burst++ {
		for p := 0; p < 5; p++ {
			silence(now)
			feed(r, now, 1, seq)
			last = now
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
	silence(now)
	// Retries of the timers' NACKs are left out: the baseline counts none.
	two := r.Stats().NACKsSent() - r.Stats().RetryNACKs
	if two == 0 || single == 0 {
		t.Fatalf("no NACKs at all: two=%d single=%d", two, single)
	}
	ratio := float64(single) / float64(two)
	if ratio < 3 {
		t.Errorf("single/two NACK ratio = %.1f (%d vs %d), want ≥3 (paper: ~5x)",
			ratio, single, two)
	}
}

// nackTimes drives r through every deadline up to until and returns when
// each NACK for seq left.
func nackTimes(t *testing.T, r *Receiver, seq core.Seq, until core.Time) []core.Time {
	t.Helper()
	var at []core.Time
	for {
		dl, ok := r.NextDeadline()
		if !ok || dl > until {
			return at
		}
		for _, em := range r.OnTimer(dl).Emits {
			var h wire.Header
			if _, err := wire.SplitMessage(&h, em.Msg); err != nil {
				t.Fatal(err)
			}
			if h.Type == wire.TypeNACK && h.Seq == seq {
				at = append(at, dl)
			}
		}
	}
}

// TestNACKRetryEscalation: an outstanding loss is NACKed again RTT/4 after
// each NACK, maxNACKs times in all, and then waits for its give-up.
func TestNACKRetryEscalation(t *testing.T) {
	r := testReceiver() // RTT 100 ms
	feed(r, 0, 1, 1)
	feed(r, time.Millisecond, 1, 3) // seq 2 missing, first NACK sent
	retries := nackTimes(t, r, 2, 300*time.Millisecond)
	if want := []core.Time{26 * time.Millisecond, 51 * time.Millisecond}; !slices.Equal(retries, want) {
		t.Fatalf("seq 2 retried at %v, want %v: RTT/4 apart, %d NACKs in all", retries, want, maxNACKs)
	}
	if _, still := r.missing[2]; !still {
		t.Error("seq 2 given up on before 4×RTT")
	}
}

// TestGiveUpAfterHorizon: a loss is abandoned 4×RTT after it was detected,
// and not before.
func TestGiveUpAfterHorizon(t *testing.T) {
	r := New(DefaultConfig(self, dcNode, 50*time.Millisecond))
	feed(r, 0, 1, 1)
	feed(r, time.Millisecond, 1, 3) // seq 2 missing at 1 ms
	r.OnTimer(200 * time.Millisecond)
	if _, still := r.missing[2]; !still {
		t.Fatal("seq 2 abandoned before 4×RTT")
	}
	gaveUp := r.Stats().GaveUp
	r.OnTimer(201 * time.Millisecond)
	if _, still := r.missing[2]; still {
		t.Error("seq 2 not abandoned at 4×RTT")
	}
	if got := r.Stats().GaveUp - gaveUp; got != 1 {
		t.Errorf("%d give-ups at 4×RTT, want 1: %+v", got, r.Stats())
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

// inStreamParity is the one parity shard of an in-stream batch over flow
// 1's seqs, each carrying pay(seq).
func inStreamParity(t *testing.T, seqs ...uint64) (wire.Coded, []byte) {
	t.Helper()
	meta := wire.Coded{Batch: 9, Kind: wire.InStream, K: uint8(len(seqs)), R: 1}
	payloads := make([][]byte, len(seqs))
	for i, seq := range seqs {
		payloads[i] = pay(seq)
		meta.Sources = append(meta.Sources, wire.SourceRef{Flow: 1, Seq: core.Seq(seq), Receiver: self})
	}
	shards, shardLen, err := rs.PackBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	codec, _ := rs.NewCodec(len(seqs), 1)
	shards = append(shards, make([]byte, shardLen))
	if err := codec.Encode(shards); err != nil {
		t.Fatal(err)
	}
	meta.ShardLen = uint16(shardLen)
	return meta, shards[len(seqs)]
}

// TestInStreamDecodePastExpectationNACKsGap: a packet decoded in-stream
// past the expectation proves the packets before it were sent, as a data
// or recovered packet there does: the gap is NACKed.
func TestInStreamDecodePastExpectationNACKsGap(t *testing.T) {
	r := testReceiver()
	feed(r, 0, 1, 1)
	feed(r, time.Millisecond, 1, 2)
	meta, shard := inStreamParity(t, 2, 5)
	h := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dcNode, Dst: self}
	res := r.OnCoded(2*time.Millisecond, &h, &meta, shard)
	if len(res.Deliveries) != 1 || res.Deliveries[0].Packet.ID.Seq != 5 {
		t.Fatalf("the parity delivered %+v, want seq 5", res.Deliveries)
	}
	var nacked []core.Seq
	for _, em := range res.Emits {
		var nh wire.Header
		if _, err := wire.SplitMessage(&nh, em.Msg); err != nil || nh.Type != wire.TypeNACK {
			t.Fatalf("the decode emitted %v (%v), want NACKs only", nh.Type, err)
		}
		nacked = append(nacked, nh.Seq)
	}
	if !slices.Equal(nacked, []core.Seq{3, 4}) || r.Stats().GapNACKs != 2 || r.OutstandingLosses() != 2 {
		t.Errorf("NACKed %v, %+v, %d outstanding; want 3 and 4 NACKed as a gap", nacked, r.Stats(), r.OutstandingLosses())
	}
}

// TestArrivalLeavesMissing: every delivery takes its seq out of the loss
// table, whichever path brings it. During an outage the pump NACKs seqs
// ahead of the expectation; one of them that then arrives in order, past a
// gap or decoded in-stream is no longer missing, is not NACKed again when
// the pump's retries come due RTT/4 later, and is not given up on.
func TestArrivalLeavesMissing(t *testing.T) {
	cases := []struct {
		name   string
		arrive func(r *Receiver) []core.Seq // delivers pumped seqs at 160–170 ms
	}{
		{"data in order and past a gap", func(r *Receiver) []core.Seq {
			feed(r, 160*time.Millisecond, 1, 3)
			feed(r, 170*time.Millisecond, 1, 5)
			return []core.Seq{3, 5}
		}},
		{"in-stream decode", func(r *Receiver) []core.Seq {
			// Parity over 2 and 5 decodes 5 from the recovered 2.
			h := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dcNode, Dst: self}
			meta, shard := inStreamParity(t, 2, 5)
			if res := r.OnCoded(160*time.Millisecond, &h, &meta, shard); len(res.Deliveries) != 1 {
				t.Fatalf("the parity decoded %d packets, want seq 5", len(res.Deliveries))
			}
			return []core.Seq{5}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := testReceiver() // RTT 100 ms
			feed(r, 0, 1, 1)
			// The direct path falls silent: the idle timer NACKs seq 2.
			if r.OnTimer(100 * time.Millisecond); r.Stats().IdleNACKs != 1 {
				t.Fatalf("no idle NACK: %+v", r.Stats())
			}
			// Its recovery marks an outage: the pump NACKs 3..2+pumpWindow.
			rec := wire.Header{Type: wire.TypeRecovered, Service: core.ServiceCoding, Flow: 1, Seq: 2, Src: dcNode, Dst: self}
			r.OnRecovered(150*time.Millisecond, &rec, pay(2))
			if got := r.Stats().PumpNACKs; got != pumpWindow {
				t.Fatalf("the pump NACKed %d seqs, want %d", got, pumpWindow)
			}

			delivered := c.arrive(r)
			for _, seq := range delivered {
				if _, still := r.missing[seq]; still {
					t.Errorf("seq %d was delivered and is still missing", seq)
				}
			}
			retried := 0
			for _, em := range r.OnTimer(175 * time.Millisecond).Emits {
				var h wire.Header
				if _, err := wire.SplitMessage(&h, em.Msg); err != nil {
					t.Fatal(err)
				}
				if h.Type != wire.TypeNACK {
					continue
				}
				retried++
				if slices.Contains(delivered, h.Seq) {
					t.Errorf("seq %d NACKed again after it was delivered", h.Seq)
				}
			}
			if want := pumpWindow - len(delivered); retried != want {
				t.Errorf("%d retries at 175 ms, want %d: one per pumped seq still missing", retried, want)
			}
			for {
				dl, ok := r.NextDeadline()
				if !ok || dl > 2*time.Second {
					break
				}
				r.OnTimer(dl)
			}
			if got, want := r.Stats().GaveUp, uint64(pumpWindow-len(delivered)); got != want || r.OutstandingLosses() != 0 {
				t.Errorf("gave up on %d seqs, %d still missing; want %d given up: only the pumped seqs that never arrived",
					got, r.OutstandingLosses(), want)
			}
		})
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

// TestRecentWindowEviction: the window keeps the last recentWindow packets
// delivered and evicts the oldest first.
func TestRecentWindowEviction(t *testing.T) {
	r := testReceiver()
	const last = recentWindow + 6
	for seq := uint64(1); seq <= last; seq++ {
		feed(r, core.Time(seq)*time.Millisecond, 1, seq)
	}
	if len(r.recent) != recentWindow || r.order.Len() != recentWindow {
		t.Errorf("window sizes: recent=%d order=%d, want %d", len(r.recent), r.order.Len(), recentWindow)
	}
	if _, ok := r.recent[last]; !ok {
		t.Error("newest packet evicted")
	}
	if _, ok := r.recent[last-recentWindow+1]; !ok {
		t.Error("oldest packet of the window evicted")
	}
	for seq := core.Seq(1); seq <= last-recentWindow; seq++ {
		if _, ok := r.recent[seq]; ok {
			t.Errorf("seq %d retained past the window", seq)
		}
	}
}

// TestRecentWindowMatchesSliceModel holds the ring of seqs to the slice it
// replaced (append, then cut the front while over the window): under
// scrambled, duplicated and late arrivals the two keep the same packets.
func TestRecentWindowMatchesSliceModel(t *testing.T) {
	r := testReceiver()
	var order []core.Seq
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		seq := uint64(1 + i/2 + rng.Intn(12)) // mostly forward, often back
		res := feed(r, core.Time(i)*time.Millisecond, 1, seq)
		for _, d := range res.Deliveries {
			order = append(order, d.Packet.ID.Seq)
			for len(order) > recentWindow {
				order = order[1:]
			}
		}
		if len(r.recent) != len(order) {
			t.Fatalf("step %d: window holds %d packets, model %d", i, len(r.recent), len(order))
		}
		for _, q := range order {
			if _, ok := r.recent[q]; !ok {
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
	if n := testing.AllocsPerRun(recentWindow-2, next); n != 1 {
		t.Errorf("in-order OnData allocates %v times while the window fills, want 1 (its buffer)", n)
	}
	if n := testing.AllocsPerRun(500, next); n != 0 {
		t.Errorf("in-order OnData allocates %v times on a full window, want 0", n)
	}
}

// TestWarmInStreamDecodeAllocatesThePayload: once a receiver has decoded
// a few in-stream batches, decoding the next one's single loss allocates
// only the reconstructed shard, whose payload the delivery hands to the
// application. The shard table, the packed sources, the decode state and
// its parity copy, and the codec's matrices are scratch the receiver
// reuses.
func TestWarmInStreamDecodeAllocatesThePayload(t *testing.T) {
	const k = 5
	payloads := make([][]byte, k) // every batch carries these
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(1 + i)}, 200+i)
	}
	shards, shardLen, err := rs.PackBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	codec, _ := rs.NewCodec(k, 1)
	shards = append(shards, make([]byte, shardLen))
	if err := codec.Encode(shards); err != nil {
		t.Fatal(err)
	}

	r := testReceiver()
	h := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dcNode, Dst: self}
	meta := wire.Coded{Kind: wire.InStream, K: k, R: 1, ShardLen: uint16(shardLen), Sources: make([]wire.SourceRef, k)}
	seq := uint64(0)
	batch := func() {
		meta.Batch++
		for i := range meta.Sources {
			seq++
			meta.Sources[i] = wire.SourceRef{Flow: 1, Seq: core.Seq(seq), Receiver: self}
			if i < k-1 { // the last one is lost: no gap shows it, so no NACK leaves
				dh := dataHdr(1, seq, core.Time(seq)*time.Millisecond)
				r.OnData(dh.TS, &dh, payloads[i])
			}
		}
		res := r.OnCoded(core.Time(seq)*time.Millisecond, &h, &meta, shards[k])
		if len(res.Deliveries) != 1 || !bytes.Equal(res.Deliveries[0].Packet.Payload, payloads[k-1]) {
			t.Fatalf("batch %d: %d deliveries, want the lost packet", meta.Batch, len(res.Deliveries))
		}
	}
	for meta.Batch < 40 { // the window fills, and the scratch is sized
		batch()
	}
	if n := testing.AllocsPerRun(100, batch); n != 1 {
		t.Errorf("a warm in-stream decode of one loss allocates %v times, want 1 (the reconstructed shard)", n)
	}
	if st := r.Stats(); st.InStreamLocal != meta.Batch || len(r.inDec) != 0 {
		t.Errorf("%d in-stream decodes, %d pending; want %d and 0", st.InStreamLocal, len(r.inDec), meta.Batch)
	}
}

// TestNonCodingWindowAllocatesNothing: a packet of a caching or forwarding
// flow keeps its window slot and no bytes — no DC asks a receiver back for
// it — so even while the window fills, in-order OnData allocates nothing.
func TestNonCodingWindowAllocatesNothing(t *testing.T) {
	for _, svc := range []core.Service{core.ServiceCaching, core.ServiceForwarding} {
		r := testReceiver()
		payload := make([]byte, 512)
		seq := uint64(0)
		next := func() {
			seq++
			h := dataHdr(1, seq, core.Time(seq)*time.Millisecond)
			h.Service = svc
			if res := r.OnData(h.TS, &h, payload); len(res.Deliveries) != 1 || len(res.Emits) != 0 {
				t.Fatalf("%v seq %d: %d deliveries, %d emits", svc, seq, len(res.Deliveries), len(res.Emits))
			}
		}
		next() // the flow's state and the result buffer
		if n := testing.AllocsPerRun(recentWindow-2, next); n != 0 {
			t.Errorf("%v: in-order OnData allocates %v times while the window fills, want 0", svc, n)
		}
		if r.order.Len() != recentWindow {
			t.Fatalf("%v: the window holds %d packets, want it full (%d)", svc, r.order.Len(), recentWindow)
		}
		if n := testing.AllocsPerRun(500, next); n != 0 {
			t.Errorf("%v: in-order OnData allocates %v times on a full window, want 0", svc, n)
		}
	}
}

// TestNonCodingPacketKeepsNoBytes: a packet not stamped ServiceCoding —
// a data copy of another service, or a cache's pull response — keeps its
// window slot, so another copy of it is a duplicate, but no bytes, so a
// cooperative request for it answers nothing. A coding data copy and a
// coding recovery beside it are answered.
func TestNonCodingPacketKeepsNoBytes(t *testing.T) {
	for _, svc := range []core.Service{core.ServiceInternet, core.ServiceCaching, core.ServiceForwarding} {
		r := testReceiver()
		h := dataHdr(1, 1, 0)
		h.Service = svc
		r.OnData(0, &h, pay(1))
		feed(r, time.Millisecond, 1, 4) // coding; 2 and 3 missing
		pull := wire.Header{Type: wire.TypePullResp, Service: core.ServiceCaching, Flow: 1, Seq: 2, Src: dcNode, Dst: self}
		if res := r.OnRecovered(2*time.Millisecond, &pull, pay(2)); len(res.Deliveries) != 1 {
			t.Fatalf("%v: the pull response delivered %d packets, want 1", svc, len(res.Deliveries))
		}
		rec := wire.Header{Type: wire.TypeRecovered, Service: core.ServiceCoding, Flow: 1, Seq: 3, Src: dcNode, Dst: self}
		if res := r.OnRecovered(2*time.Millisecond, &rec, pay(3)); len(res.Deliveries) != 1 {
			t.Fatalf("%v: the coding recovery delivered %d packets, want 1", svc, len(res.Deliveries))
		}

		// Copies of the unkept packets are still duplicates.
		if res := r.OnData(3*time.Millisecond, &h, pay(1)); len(res.Deliveries) != 0 {
			t.Errorf("%v: a second copy of seq 1 was delivered again", svc)
		}
		if res := r.OnRecovered(3*time.Millisecond, &pull, pay(2)); len(res.Deliveries) != 0 {
			t.Errorf("%v: a second pull response for seq 2 was delivered again", svc)
		}
		if got := r.Stats().Duplicates; got != 2 {
			t.Errorf("%v: %d duplicates, want 2", svc, got)
		}

		ref := wire.CoopRef{Batch: 3, Want: core.PacketID{Flow: 9, Seq: 1}}
		for seq, answered := range map[core.Seq]bool{1: false, 2: false, 3: true, 4: true} {
			req := wire.Header{Type: wire.TypeCoopReq, Flow: 1, Seq: seq, Src: dcNode, Dst: self}
			res := r.OnCoopReq(4*time.Millisecond, &req, &ref)
			if (len(res.Emits) == 1) != answered || len(res.Emits) > 1 {
				t.Errorf("%v: a coop request for seq %d was answered %d times, want answered %v", svc, seq, len(res.Emits), answered)
			}
		}
	}
}

// TestEmptyCodingPayloadIsHeld: what a slot holds is its flag, never the
// length of its bytes. A zero-length coding packet is answered with its
// zero bytes, in a slot with no buffer yet and in one whose buffer held
// another packet's bytes.
func TestEmptyCodingPayloadIsHeld(t *testing.T) {
	r := testReceiver()
	const last = recentWindow + 1
	for seq := uint64(1); seq <= last; seq++ {
		h := dataHdr(1, seq, core.Time(seq)*time.Millisecond)
		payload := []byte{}
		if seq == 1 {
			payload = pay(1) // its buffer goes to the last seq, which evicts it
		}
		r.OnData(h.TS, &h, payload)
	}
	ref := wire.CoopRef{Batch: 3, Want: core.PacketID{Flow: 9, Seq: 1}}
	for _, seq := range []core.Seq{2, last} {
		req := wire.Header{Type: wire.TypeCoopReq, Flow: 1, Seq: seq, Src: dcNode, Dst: self}
		res := r.OnCoopReq(4*time.Millisecond, &req, &ref)
		if len(res.Emits) != 1 {
			t.Fatalf("a coop request for empty seq %d was answered %d times, want 1", seq, len(res.Emits))
		}
		var rh wire.Header
		body, _ := wire.SplitMessage(&rh, res.Emits[0].Msg)
		var got wire.CoopRef
		if payload, err := got.Unmarshal(body); err != nil || len(payload) != 0 || got != ref {
			t.Errorf("seq %d: coop response %+v %q %v, want an empty payload", seq, got, payload, err)
		}
	}
}

// TestNewReceiverAllocates pins what a receiver costs to build: New, then
// the first in-order packet, which joins the stream. The flow's state is the
// receiver's own fields, so this measures 10 on go1.24; a per-flow table in
// front of that state costs three more (the table, its entry, the state
// struct). The bound leaves one for other toolchains' maps. A receiver
// reused for the next flow costs nothing: Reset keeps the maps, the window
// ring and a spare window buffer for the first packet to fill.
func TestNewReceiverAllocates(t *testing.T) {
	cfg := DefaultConfig(self, dcNode, 100*time.Millisecond)
	payload := make([]byte, 64)
	h := dataHdr(1, 1, 0)
	n := testing.AllocsPerRun(100, func() {
		if res := New(cfg).OnData(0, &h, payload); len(res.Deliveries) != 1 {
			t.Fatalf("first packet: %d deliveries, want 1", len(res.Deliveries))
		}
	})
	if n > 11 {
		t.Errorf("New and the first packet allocate %v times, want at most 11", n)
	}

	r := New(cfg)
	r.OnData(0, &h, payload) // the flow before: its window buffer stays spare
	next := dataHdr(2, 1, 0)
	n = testing.AllocsPerRun(100, func() {
		r.Reset(cfg)
		if res := r.OnData(0, &next, payload); len(res.Deliveries) != 1 {
			t.Fatalf("first packet after Reset: %d deliveries, want 1", len(res.Deliveries))
		}
	})
	if n != 0 {
		t.Errorf("Reset and the first packet allocate %v times, want 0", n)
	}
}

// TestRetryNACKsAscending: retries that come due in the same instant leave
// in seq order, not in the order a map walk happens to find them.
func TestRetryNACKsAscending(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := testReceiver()
		feed(r, 0, 1, 1)
		feed(r, time.Millisecond, 1, 40) // 2..39 missing, all NACKed at 1 ms
		res := r.OnTimer(time.Millisecond + r.cfg.RTT/retryPerRTT)
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
	if cfg := r.cfg; cfg.RTT != 100*time.Millisecond {
		t.Errorf("defaults not filled: %+v", cfg)
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
