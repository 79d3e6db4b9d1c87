package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/ring"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

// opKind is one kind of event a receiver program feeds a receiver.
type opKind uint8

const (
	opData opKind = iota
	opRecovered
	opCoded
	opCoopReq
	opVerify
	opTimer
)

// progOp is one event: advance the clock by dt, then deliver it. A timer
// event fires OnTimer at the receiver's next deadline if one is pending
// after the advance, at the advanced clock otherwise.
type progOp struct {
	kind opKind
	dt   core.Time
	hdr  wire.Header
	body []byte // a data or recovered payload, or a coded shard
	meta wire.Coded
	ref  wire.CoopRef
}

// progPayload is the payload a program's sender sends as flow's seq: its
// length varies with seq, and an empty one is among them.
func progPayload(flow core.FlowID, seq core.Seq) []byte {
	p := make([]byte, int(seq*7)%41)
	for i := range p {
		p[i] = byte(uint64(seq)*31 + uint64(flow) + uint64(i))
	}
	return p
}

// randService picks a service to stamp on a header, the unset one included.
func randService(rng *rand.Rand) core.Service {
	return []core.Service{core.ServiceInternet, core.ServiceCoding, core.ServiceCaching, core.ServiceForwarding}[rng.Intn(4)]
}

// genProgram builds n events of one flow's life as a receiver sees it:
// in-order data with gaps, duplicates, late and far-ahead seqs; recoveries
// of tracked and untracked seqs; in-stream parity that decodes, parity that
// cannot yet, and forged shapes; cooperative requests and verify probes for
// packets in and out of the window; and timer firings.
func genProgram(rng *rand.Rand, flow core.FlowID, n int) []progOp {
	first := core.Seq(1 + rng.Intn(2000))
	hi := first - 1 // highest seq the sender has sent so far
	around := func(lo, span int) core.Seq {
		s := int64(hi) + int64(lo) + int64(rng.Intn(span))
		return core.Seq(max(s, int64(first)))
	}
	ops := make([]progOp, 0, n)
	for len(ops) < n {
		o := progOp{dt: core.Time(rng.Intn(5)) * time.Millisecond}
		switch p := rng.Intn(100); {
		case p < 10:
			o.dt = core.Time(rng.Intn(500)) * time.Millisecond
		case p < 30:
			o.dt = core.Time(rng.Intn(40)) * time.Millisecond
		}
		switch p := rng.Intn(100); {
		case p < 40:
			o.kind = opData
			var seq core.Seq
			switch q := rng.Intn(100); {
			case q < 60:
				seq = hi + 1
			case q < 75:
				seq = hi + 2 + core.Seq(rng.Intn(5)) // a gap
			case q < 97:
				seq = around(-20, 21) // a duplicate or a late arrival
			default:
				seq = hi + maxGap + core.Seq(1+rng.Intn(100)) // a restarted sender
			}
			hi = max(hi, seq)
			o.hdr = wire.Header{Type: wire.TypeData, Service: randService(rng), Flow: flow, Seq: seq, TS: core.Time(seq) * time.Millisecond, Src: sender, Dst: self}
			if rng.Intn(10) == 0 {
				o.hdr.Flags |= wire.FlagDup
			}
			o.body = progPayload(flow, seq)
		case p < 55:
			o.kind = opRecovered
			seq := around(-10, 30)
			typ := wire.TypeRecovered
			if rng.Intn(2) == 0 {
				typ = wire.TypePullResp
			}
			o.hdr = wire.Header{Type: typ, Service: randService(rng), Flow: flow, Seq: seq, TS: core.Time(seq) * time.Millisecond, Src: dcNode, Dst: self}
			o.body = progPayload(flow, seq)
		case p < 67:
			o.kind = opCoded
			o.hdr = wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, TS: core.Time(hi) * time.Millisecond, Src: dcNode, Dst: self}
			o.meta, o.body = genParity(rng, flow, around(-8, 11))
		case p < 75:
			o.kind = opCoopReq
			seq := around(-150, 156)
			o.hdr = wire.Header{Type: wire.TypeCoopReq, Service: core.ServiceCoding, Flow: flow, Seq: seq, Src: dcNode, Dst: self}
			o.ref = wire.CoopRef{Batch: uint64(rng.Intn(50)), Want: core.PacketID{Flow: flow + 1, Seq: seq}}
		case p < 80:
			o.kind = opVerify
			o.hdr = wire.Header{Type: wire.TypeVerify, Service: core.ServiceCoding, Flow: flow, Seq: around(-30, 40), Src: dcNode, Dst: self}
		default:
			o.kind = opTimer
		}
		ops = append(ops, o)
	}
	return ops
}

// genParity builds one in-stream parity message over K packets of flow
// from seq first on — or, one time in five, a forged one.
func genParity(rng *rand.Rand, flow core.FlowID, first core.Seq) (wire.Coded, []byte) {
	k, r := 1+rng.Intn(5), 1+rng.Intn(3)
	meta := wire.Coded{Batch: uint64(first)<<8 | uint64(k), Kind: wire.InStream, K: uint8(k), R: uint8(r), Index: uint8(rng.Intn(r))}
	payloads := make([][]byte, k)
	for i := range payloads {
		seq := first + core.Seq(i)
		payloads[i] = progPayload(flow, seq)
		meta.Sources = append(meta.Sources, wire.SourceRef{Flow: flow, Seq: seq, Receiver: self})
	}
	shards, shardLen, err := rs.PackBatch(payloads)
	if err != nil {
		panic(err)
	}
	codec, err := rs.NewCodec(k, r)
	if err != nil {
		panic(err)
	}
	for i := 0; i < r; i++ {
		shards = append(shards, make([]byte, shardLen))
	}
	if err := codec.Encode(shards); err != nil {
		panic(err)
	}
	meta.ShardLen = uint16(shardLen)
	shard := shards[k+int(meta.Index)]
	if rng.Intn(5) == 0 {
		switch rng.Intn(6) {
		case 0:
			meta.K++ // more K than sources
		case 1:
			meta.R = 0
		case 2:
			meta.Index = meta.R
		case 3:
			meta.Sources[len(meta.Sources)-1].Flow = flow + 1 // mixes two flows
		case 4:
			meta.Kind = wire.CrossStream
		case 5:
			shard = shard[:len(shard)-1] // does not match the window's shards
		}
	}
	return meta, shard
}

// programRun drives one receiver through a program on its own clock.
type programRun struct {
	r   *Receiver
	now core.Time
}

// step applies o, handing the receiver payload and shard copies of its own
// (ownership of a payload passes to the receiver).
func (p *programRun) step(o progOp) Result {
	p.now += o.dt
	hdr := o.hdr
	body := bytes.Clone(o.body)
	switch o.kind {
	case opData:
		return p.r.OnData(p.now, &hdr, body)
	case opRecovered:
		return p.r.OnRecovered(p.now, &hdr, body)
	case opCoded:
		meta := o.meta
		meta.Sources = append([]wire.SourceRef(nil), o.meta.Sources...)
		return p.r.OnCoded(p.now, &hdr, &meta, body)
	case opCoopReq:
		ref := o.ref
		return p.r.OnCoopReq(p.now, &hdr, &ref)
	case opVerify:
		return p.r.OnVerify(p.now, &hdr)
	}
	if dl, ok := p.r.NextDeadline(); ok && dl > p.now {
		p.now = dl
	}
	return p.r.OnTimer(p.now)
}

// sameResult reports how two receivers' results for one event differ: the
// messages emitted, byte for byte and in order, and the packets delivered
// with everything they carry.
func sameResult(a, b Result) error {
	if len(a.Emits) != len(b.Emits) {
		return fmt.Errorf("%d emits, want %d", len(a.Emits), len(b.Emits))
	}
	for i := range a.Emits {
		if a.Emits[i].To != b.Emits[i].To || !bytes.Equal(a.Emits[i].Msg, b.Emits[i].Msg) {
			return fmt.Errorf("emit %d: to %v %x, want to %v %x", i, a.Emits[i].To, a.Emits[i].Msg, b.Emits[i].To, b.Emits[i].Msg)
		}
	}
	if len(a.Deliveries) != len(b.Deliveries) {
		return fmt.Errorf("%d deliveries, want %d", len(a.Deliveries), len(b.Deliveries))
	}
	for i := range a.Deliveries {
		da, db := a.Deliveries[i], b.Deliveries[i]
		if !bytes.Equal(da.Packet.Payload, db.Packet.Payload) {
			return fmt.Errorf("delivery %d of %v: payload %x, want %x", i, da.Packet.ID, da.Packet.Payload, db.Packet.Payload)
		}
		da.Packet.Payload, db.Packet.Payload = nil, nil
		if !reflect.DeepEqual(da, db) {
			return fmt.Errorf("delivery %d: %+v, want %+v", i, da, db)
		}
	}
	return nil
}

// perFlow is r without what Reset keeps for the next flow: the rest must
// read exactly as a new receiver's does.
func perFlow(r *Receiver) Receiver {
	c := *r
	c.missing, c.recent, c.inDec, c.codecs = nil, nil, nil, nil
	c.order, c.spare, c.res, c.due = ring.Ring[core.Seq]{}, nil, Result{}, nil
	c.shards, c.packed, c.wanted, c.spareDec, c.spareParity = nil, nil, nil, nil, nil
	return c
}

// windowSlots is the size of the array under r's window ring: New reserves
// it for the whole window, and Reset keeps it as it is.
func windowSlots(r *Receiver) int { return reflect.ValueOf(r.order).FieldByName("buf").Len() }

// randConfig draws a receiver configuration: RTT and service vary.
func randConfig(rng *rand.Rand) Config {
	rtt := []core.Time{30, 100, 250}[rng.Intn(3)] * time.Millisecond
	cfg := DefaultConfig(self, dcNode, rtt)
	cfg.Service = []core.Service{core.ServiceCoding, core.ServiceCaching, core.ServiceForwarding}[rng.Intn(3)]
	return cfg
}

// TestResetMatchesNew: a receiver that served other flows under other
// configurations and was then Reset behaves exactly as New builds one. Each
// program runs on New(cfg) and on a receiver that first ran one to three
// other programs, each under its own configuration, Reset before each.
// After every event the two must have emitted the same bytes, delivered
// the same packets and agree on Stats, NextDeadline and OutstandingLosses.
func TestResetMatchesNew(t *testing.T) {
	programs := 300
	if testing.Short() {
		programs = 60
	}
	rng := rand.New(rand.NewSource(41))
	var seen Stats
	for prog := 0; prog < programs; prog++ {
		reused := &programRun{r: New(randConfig(rng))}
		for before := 1 + rng.Intn(3); before > 0; before-- {
			for _, o := range genProgram(rng, core.FlowID(100+before), 50+rng.Intn(250)) {
				reused.step(o)
			}
			if before > 1 {
				reused.r.Reset(randConfig(rng))
			}
		}
		// The new flow starts as soon as the old one's last event or up to
		// 50 ms later: sometimes inside the small timeout of it.
		reused.now += core.Time(rng.Intn(50)) * time.Millisecond
		fresh := &programRun{now: reused.now}

		cfg := randConfig(rng)
		reused.r.Reset(cfg)
		fresh.r = New(cfg)
		if got, want := perFlow(reused.r), perFlow(fresh.r); !reflect.DeepEqual(got, want) {
			t.Fatalf("program %d: after Reset the flow's state is\n%+v\nwant New's\n%+v", prog, got, want)
		}
		if n := len(reused.r.missing) + len(reused.r.recent) + len(reused.r.inDec) + reused.r.order.Len(); n != 0 {
			t.Fatalf("program %d: Reset left %d losses, packets or batches behind", prog, n)
		}
		if got, want := windowSlots(reused.r), windowSlots(fresh.r); got != want {
			t.Fatalf("program %d: window ring of %d slots after Reset, a new receiver's has %d", prog, got, want)
		}

		for i, o := range genProgram(rng, 7, 300) {
			got, want := reused.step(o), fresh.step(o)
			if err := sameResult(got, want); err != nil {
				t.Fatalf("program %d, event %d (kind %d): reused receiver: %v", prog, i, o.kind, err)
			}
			if got, want := reused.r.Stats(), fresh.r.Stats(); got != want {
				t.Fatalf("program %d, event %d: reused receiver's stats\n%+v\nwant\n%+v", prog, i, got, want)
			}
			gd, gok := reused.r.NextDeadline()
			wd, wok := fresh.r.NextDeadline()
			if gd != wd || gok != wok {
				t.Fatalf("program %d, event %d: reused NextDeadline %v %v, want %v %v", prog, i, gd, gok, wd, wok)
			}
			if got, want := reused.r.OutstandingLosses(), fresh.r.OutstandingLosses(); got != want {
				t.Fatalf("program %d, event %d: reused receiver holds %d losses, want %d", prog, i, got, want)
			}
		}
		seen.Add(fresh.r.Stats())
	}
	// The programs reach every path a stale field could change.
	for name, n := range map[string]uint64{
		"duplicates": seen.Duplicates, "late arrivals": seen.LateArrivals, "gap NACKs": seen.GapNACKs,
		"timer NACKs": seen.TimerNACKs, "idle NACKs": seen.IdleNACKs, "pump NACKs": seen.PumpNACKs,
		"retries": seen.RetryNACKs, "give-ups": seen.GaveUp, "in-stream decodes": seen.InStreamLocal,
		"coop responses": seen.CoopResponses, "dropped batches": seen.Dropped,
	} {
		if n == 0 {
			t.Errorf("no program produced %s: %+v", name, seen)
		}
	}
}

// TestResetKeepsBoundedBuffers: Reset keeps at most maxSpare window buffers,
// however large the window it empties, and the next flow's window takes
// them before it allocates.
func TestResetKeepsBoundedBuffers(t *testing.T) {
	r := testReceiver()
	for seq := uint64(1); seq <= 128; seq++ {
		feed(r, core.Time(seq)*time.Millisecond, 1, seq)
	}
	r.Reset(r.cfg)
	if len(r.spare) != maxSpare {
		t.Fatalf("Reset of a full window kept %d buffers, want %d", len(r.spare), maxSpare)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		feed(r, core.Time(seq)*time.Millisecond, 2, seq)
	}
	if len(r.spare) != maxSpare-10 {
		t.Errorf("10 packets into the next flow %d buffers are spare, want %d", len(r.spare), maxSpare-10)
	}
	r.Reset(r.cfg)
	if len(r.spare) != maxSpare {
		t.Errorf("a second Reset left %d spare buffers, want %d", len(r.spare), maxSpare)
	}
}
