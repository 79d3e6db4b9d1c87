package dataplane

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/recovery"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

// The host test world: endpoint 201 behind DC 2. Flow IDs below allocated
// that the test has not marked live are closed; the rest were never
// allocated.
const (
	hostSelf core.NodeID = 201
	hostDC   core.NodeID = 2
)

// fakeHostEnv is the one test implementation of HostEnv: a flow table the
// test edits, recording everything the core sends, delivers and reports
// holding. The hooks let a test react from inside a callback the way an
// application would.
type fakeHostEnv struct {
	live      map[core.FlowID]core.Time // live flow → RTT seed
	allocated core.FlowID
	held      []core.FlowID
	sent      []core.Emit
	delivered []core.Delivery
	onSend    func(core.Emit)
	onDeliver func(core.Delivery)
}

func (e *fakeHostEnv) Flow(id core.FlowID) (FlowState, core.Time) {
	switch rtt, live := e.live[id]; {
	case live:
		return FlowLive, rtt
	case id < e.allocated:
		return FlowClosed, 0
	}
	return FlowUnknown, 0
}
func (e *fakeHostEnv) Holding(id core.FlowID) { e.held = append(e.held, id) }
func (e *fakeHostEnv) Send(to core.NodeID, msg []byte) {
	em := core.Emit{To: to, Msg: msg}
	e.sent = append(e.sent, em)
	if e.onSend != nil {
		e.onSend(em)
	}
}
func (e *fakeHostEnv) Deliver(del core.Delivery) {
	e.delivered = append(e.delivered, del)
	if e.onDeliver != nil {
		e.onDeliver(del)
	}
}

func newHostWorld() (*HostCore, *fakeHostEnv) {
	env := &fakeHostEnv{live: map[core.FlowID]core.Time{}}
	return NewHost(hostSelf, hostDC, env, nil), env
}

// hostHandle feeds raw through the same split both hosts do.
func hostHandle(t testing.TB, c *HostCore, now core.Time, raw []byte) bool {
	t.Helper()
	var hdr wire.Header
	body, err := wire.SplitMessage(&hdr, raw)
	if err != nil {
		t.Fatalf("test message does not parse: %v", err)
	}
	return c.Handle(now, &hdr, body)
}

func recovered(flow core.FlowID, seq core.Seq) []byte {
	return message(wire.TypeRecovered, core.ServiceCoding, flow, seq, hostDC, hostSelf, 0, []byte("x"))
}

func data(flow core.FlowID, seq core.Seq) []byte {
	return message(wire.TypeData, core.ServiceCoding, flow, seq, 100, hostSelf, 0, []byte("x"))
}

// sentFlows lists the flow each sent message names, in order.
func sentFlows(t *testing.T, emits []core.Emit) []core.FlowID {
	t.Helper()
	var out []core.FlowID
	for _, em := range emits {
		var hdr wire.Header
		if _, err := wire.SplitMessage(&hdr, em.Msg); err != nil {
			t.Fatalf("sent an unparseable message: %v", err)
		}
		out = append(out, hdr.Flow)
	}
	return out
}

func TestHostCoreUnsolicitedBounded(t *testing.T) {
	// Never-allocated IDs create receivers lazily (the mid-join contract),
	// but the LRU cap bounds them: a forged-ID flood has no teardown path.
	c, env := newHostWorld()
	for i := 0; i < 200; i++ {
		hostHandle(t, c, core.Time(i)*time.Millisecond, recovered(core.FlowID(10_000+i), 1))
		if len(c.spare) > maxSpareReceivers {
			t.Fatalf("%d spare receivers after %d forged flows, cap %d", len(c.spare), i+1, maxSpareReceivers)
		}
	}
	if got := c.Unsolicited(); got != MaxUnsolicited {
		t.Errorf("unsolicited receivers = %d after 200 forged flows, want %d", got, MaxUnsolicited)
	}
	if got := c.Receivers(); got != MaxUnsolicited {
		t.Errorf("receivers = %d, want %d", got, MaxUnsolicited)
	}
	// The cap bounds state, not the lazy delivery contract.
	if len(env.delivered) != 200 {
		t.Errorf("forged flood delivered %d of 200", len(env.delivered))
	}
	if len(env.held) != 0 {
		t.Errorf("unsolicited flows reported as held: %v", env.held)
	}
	// Evicted receivers' counters are retired, not lost.
	if got := c.Stats().Recovered; got != 200 {
		t.Errorf("Stats().Recovered = %d across evictions, want 200", got)
	}
	// Letting every receiver go at once keeps no more than the cap.
	for i := 200 - MaxUnsolicited; i < 200; i++ {
		c.Drop(core.FlowID(10_000 + i))
	}
	if c.Receivers() != 0 || len(c.spare) != maxSpareReceivers {
		t.Errorf("after dropping every flow: %d receivers, %d spare; want 0, %d", c.Receivers(), len(c.spare), maxSpareReceivers)
	}
}

// TestHostCoreReusesClosedFlowsReceiver: a flow registered after another
// closed gets the closed flow's receiver, Reset — nothing of the old flow
// shows through it — and Stats, which retired the old flow's counters at
// the drop, never steps back.
func TestHostCoreReusesClosedFlowsReceiver(t *testing.T) {
	c, env := newHostWorld()
	env.live[1], env.allocated = 50*time.Millisecond, 2
	var last uint64
	stats := func(when string) {
		t.Helper()
		st := c.Stats()
		if n := st.DataReceived + st.Recovered + st.GapNACKs; n < last {
			t.Fatalf("%s: Stats stepped back, %d counted events after %d", when, n, last)
		} else {
			last = n
		}
	}
	for seq := core.Seq(1); seq <= 20; seq += 1 + seq%3 { // gaps NACK
		hostHandle(t, c, core.Time(seq)*time.Millisecond, data(1, seq))
		stats("flow 1")
	}
	hostHandle(t, c, 25*time.Millisecond, recovered(1, 2))
	stats("flow 1's recovery")
	old := c.Receiver(1)
	before := c.Stats()

	delete(env.live, 1)
	env.live[2], env.allocated = 80*time.Millisecond, 3
	c.Drop(1)
	stats("drop")
	if c.Stats() != before {
		t.Errorf("Stats after the drop = %+v, want %+v", c.Stats(), before)
	}
	r := c.Ensure(2, 0, core.ServiceCaching)
	stats("reuse")
	if r != old {
		t.Fatal("the next flow got a new receiver, not the closed flow's")
	}
	if r.Stats() != (recovery.Stats{}) || r.OutstandingLosses() != 0 {
		t.Errorf("reused receiver starts with %+v and %d losses", r.Stats(), r.OutstandingLosses())
	}
	if _, ok := r.NextDeadline(); ok {
		t.Error("reused receiver starts with a deadline")
	}
	// Flow 2 starts at seq 1 too: the old flow's window must not make it a
	// duplicate, nor its expectation a late arrival.
	env.delivered, env.sent = env.delivered[:0], env.sent[:0]
	hostHandle(t, c, 30*time.Millisecond, data(2, 1))
	stats("flow 2")
	if len(env.delivered) != 1 || len(env.sent) != 0 || r.Stats().Duplicates+r.Stats().LateArrivals != 0 {
		t.Errorf("flow 2's first packet: %d delivered, %d sent, stats %+v", len(env.delivered), len(env.sent), r.Stats())
	}
	if got, want := c.Stats().DataReceived, before.DataReceived+1; got != want {
		t.Errorf("DataReceived = %d, want %d", got, want)
	}
	// It runs flow 2's config: the long timer is flow 2's RTT, and a gap
	// asks for flow 2's service.
	if at, ok := r.NextDeadline(); !ok || at != 30*time.Millisecond+80*time.Millisecond {
		t.Errorf("after its first packet flow 2's deadline is %v (%v), want 110ms", at, ok)
	}
	hostHandle(t, c, 31*time.Millisecond, data(2, 3))
	var nack wire.Header
	if len(env.sent) != 1 {
		t.Fatalf("flow 2's gap sent %d messages, want one NACK", len(env.sent))
	}
	if _, err := wire.SplitMessage(&nack, env.sent[0].Msg); err != nil || nack.Type != wire.TypeNACK || nack.Service != core.ServiceCaching {
		t.Errorf("flow 2's gap sent %+v (%v), want a caching NACK", nack, err)
	}
}

func TestHostCoreUnsolicitedLRUKeepsActive(t *testing.T) {
	// A repeatedly-used unsolicited receiver survives a flood of one-shot
	// forged IDs, so it keeps its dedup history (no replays).
	c, env := newHostWorld()
	const active core.FlowID = 5_000
	hostHandle(t, c, 0, recovered(active, 1))
	for i := 0; i < 100; i++ {
		hostHandle(t, c, 0, recovered(core.FlowID(20_000+i), 1))
		hostHandle(t, c, 0, recovered(active, core.Seq(2+i)))
	}
	before := len(env.delivered)
	hostHandle(t, c, 0, recovered(active, 1))
	if len(env.delivered) != before {
		t.Error("replay on the LRU-kept receiver delivered: it was evicted")
	}
}

func TestHostCoreUnsolicitedPromotedWhenFlowGoesLive(t *testing.T) {
	// An ID met before its allocation leaves the LRU on first contact
	// after it: otherwise a forged flood could evict live state, and the
	// runtime would never be told to Drop it.
	c, env := newHostWorld()
	hostHandle(t, c, 0, recovered(1, 1))
	if c.Unsolicited() != 1 || len(env.held) != 0 {
		t.Fatalf("pre-allocation receiver: unsolicited %d, held %v", c.Unsolicited(), env.held)
	}
	env.live[1], env.allocated = 0, 2
	hostHandle(t, c, 0, recovered(1, 2))
	if c.Unsolicited() != 0 {
		t.Errorf("live flow still listed unsolicited (%d): evictable mid-stream", c.Unsolicited())
	}
	if len(env.held) != 1 || env.held[0] != 1 {
		t.Errorf("promotion reported holding %v, want [1]", env.held)
	}
	// Promoted means evict-proof: a full LRU's worth of forged IDs later,
	// the flow still deduplicates.
	for i := 0; i < 2*MaxUnsolicited; i++ {
		hostHandle(t, c, 0, recovered(core.FlowID(30_000+i), 1))
	}
	before := len(env.delivered)
	hostHandle(t, c, 0, recovered(1, 2))
	if len(env.delivered) != before {
		t.Error("promoted receiver was evicted by the flood")
	}
	c.Drop(1)
	if c.Receiver(1) != nil {
		t.Error("Drop left the promoted receiver behind")
	}
}

func TestHostCoreClosedFlowNotResurrected(t *testing.T) {
	c, env := newHostWorld()
	env.live[3], env.allocated = 50*time.Millisecond, 4
	r := c.Ensure(3, 0, core.ServiceCoding)
	if r == nil {
		t.Fatal("live flow has no receiver")
	}
	hostHandle(t, c, 0, data(3, 1))
	if at, ok := r.NextDeadline(); !ok || at != 50*time.Millisecond {
		t.Fatalf("live flow's receiver waits until %v (%v), want the env's 50ms RTT", at, ok)
	}
	env.delivered = env.delivered[:0]
	delete(env.live, 3) // closed: allocated, no longer live
	c.Drop(3)
	for _, raw := range [][]byte{
		data(3, 1), recovered(3, 2),
		message(wire.TypeCoded, core.ServiceCoding, 0, 0, hostDC, hostSelf, 0, codedBody(3)),
	} {
		if hostHandle(t, c, 0, raw) {
			t.Error("Handle reported a receiver ran for a closed flow")
		}
	}
	if c.Receivers() != 0 || len(env.delivered) != 0 {
		t.Errorf("late packets of a closed flow left %d receivers, %d deliveries", c.Receivers(), len(env.delivered))
	}
	if c.Pull(0, 3, 0) || len(env.sent) != 0 {
		t.Error("Pull for a closed flow sent a request nobody can answer")
	}
	if c.Dropped() != 0 {
		t.Errorf("closed-flow refusals counted as undecodable: Dropped = %d", c.Dropped())
	}
}

func TestHostCoreForgedRecoveryDeliversOnce(t *testing.T) {
	c, env := newHostWorld()
	hostHandle(t, c, 0, recovered(999, 5))
	hostHandle(t, c, 0, recovered(999, 5))
	if len(env.delivered) != 1 {
		t.Errorf("forged recovery delivered %d times", len(env.delivered))
	}
}

func TestHostCoreUndecodableCounted(t *testing.T) {
	c, env := newHostWorld()
	noSources := wire.Coded{Batch: 1, K: 2, R: 1, ShardLen: 4}
	for _, raw := range [][]byte{
		message(wire.TypeCoded, core.ServiceCoding, 0, 0, hostDC, hostSelf, 0, []byte{1, 2, 3}),
		message(wire.TypeCoded, core.ServiceCoding, 0, 0, hostDC, hostSelf, 0, noSources.AppendMarshal(nil, []byte("shrd"))),
		message(wire.TypeCoopReq, core.ServiceCoding, 7, 1, hostDC, hostSelf, 0, []byte{1}),
		message(wire.TypeNACK, core.ServiceCoding, 7, 1, hostDC, hostSelf, 0, nil),
	} {
		if hostHandle(t, c, 0, raw) {
			t.Error("Handle reported a receiver ran for a message none can take")
		}
	}
	if c.Dropped() != 4 || c.Receivers() != 0 || len(env.sent) != 0 {
		t.Errorf("Dropped = %d, receivers %d, sent %d; want 4, 0, 0", c.Dropped(), c.Receivers(), len(env.sent))
	}
}

// sentNACKs lists the (flow, seq) each sent NACK names, in order, and
// fails on anything sent that is not a NACK.
func sentNACKs(t *testing.T, emits []core.Emit) []core.PacketID {
	t.Helper()
	var out []core.PacketID
	for _, em := range emits {
		var hdr wire.Header
		if _, err := wire.SplitMessage(&hdr, em.Msg); err != nil || hdr.Type != wire.TypeNACK {
			t.Fatalf("sent %v (%v), want NACKs only", hdr.Type, err)
		}
		out = append(out, core.PacketID{Flow: hdr.Flow, Seq: hdr.Seq})
	}
	return out
}

// TestHostCoreFlowsIndependent: every flow has a receiver of its own, so a
// gap in flow 1 NACKs flow 1's missing packet only, and flow 2's next
// in-order packet sends nothing.
func TestHostCoreFlowsIndependent(t *testing.T) {
	c, env := newHostWorld()
	hostHandle(t, c, 0, data(1, 1))
	hostHandle(t, c, 0, data(2, 1))
	hostHandle(t, c, time.Millisecond, data(1, 3))
	if got := sentNACKs(t, env.sent); !slices.Equal(got, []core.PacketID{{Flow: 1, Seq: 2}}) {
		t.Fatalf("flow 1's gap sent NACKs for %v, want [1/2]", got)
	}
	env.sent = env.sent[:0]
	hostHandle(t, c, time.Millisecond, data(2, 2))
	if len(env.sent) != 0 || c.Receiver(2).OutstandingLosses() != 0 {
		t.Errorf("flow 2's in-order packet sent %d messages and left %d losses", len(env.sent), c.Receiver(2).OutstandingLosses())
	}
	if len(env.delivered) != 4 {
		t.Errorf("delivered %d packets, want all 4", len(env.delivered))
	}
}

// TestHostCoreMixedFlowBatchDropped: the encoder's in-stream batches are one
// flow's. A forged one listing flow 1's seq 1 and then flow 2's seq 5, with
// parity over both, reaches flow 1's receiver (the core routes parity by its
// first source). Decoded against flow 1's window, it would deliver flow 2's
// packet a second time and move flow 1's expectation past seq 5, so flow
// 1's real loss of seq 2 would never be NACKed. It is dropped instead.
func TestHostCoreMixedFlowBatchDropped(t *testing.T) {
	c, env := newHostWorld()
	env.live[1], env.live[2], env.allocated = 0, 0, 3
	hostHandle(t, c, 0, data(1, 1))
	for seq := core.Seq(1); seq <= 5; seq++ {
		hostHandle(t, c, 0, data(2, seq))
	}
	shards, shardLen, err := rs.PackBatch([][]byte{[]byte("x"), []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := rs.NewCodec(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	shards = append(shards, make([]byte, shardLen))
	if err := codec.Encode(shards); err != nil {
		t.Fatal(err)
	}
	forged := wire.Coded{Batch: 9, Kind: wire.InStream, K: 2, R: 1, ShardLen: uint16(shardLen),
		Sources: []wire.SourceRef{{Flow: 1, Seq: 1, Receiver: hostSelf}, {Flow: 2, Seq: 5, Receiver: hostSelf}}}
	env.delivered = env.delivered[:0]
	hostHandle(t, c, time.Millisecond, message(wire.TypeCoded, core.ServiceCoding, 0, 0, hostDC, hostSelf, 0, forged.AppendMarshal(nil, shards[2])))
	for _, del := range env.delivered {
		t.Errorf("the forged batch delivered %v (recovered=%v) through flow 1's receiver", del.Packet.ID, del.Recovered)
	}
	r := c.Receiver(1)
	if got := r.Stats().Dropped; got != 1 {
		t.Errorf("flow 1's receiver counted %d dropped batches, want 1", got)
	}
	// Flow 1 still expects seq 2: seq 3 opens a gap, not a late arrival.
	hostHandle(t, c, 2*time.Millisecond, data(1, 3))
	if got := sentNACKs(t, env.sent); !slices.Equal(got, []core.PacketID{{Flow: 1, Seq: 2}}) {
		t.Errorf("flow 1's seq 3 sent NACKs for %v, want [1/2]", got)
	}
	if r.OutstandingLosses() != 1 || r.Stats().LateArrivals != 0 {
		t.Errorf("flow 1: %d losses outstanding, %d late arrivals; want 1, 0", r.OutstandingLosses(), r.Stats().LateArrivals)
	}
}

// threeDue builds receivers for flows 7, 3 and 5 — in that order — each
// one packet in, so all three idle timers fall due at the same instant,
// which it returns.
func threeDue(t *testing.T) (*HostCore, *fakeHostEnv, core.Time) {
	t.Helper()
	c, env := newHostWorld()
	for _, flow := range []core.FlowID{7, 3, 5} {
		hostHandle(t, c, 0, data(flow, 1))
	}
	due, ok := c.NextDeadline()
	if !ok {
		t.Fatal("no deadline after first packets")
	}
	return c, env, due
}

func TestHostCoreSameInstantTimersAscendingFlowOrder(t *testing.T) {
	c, env, due := threeDue(t)
	c.OnTimer(due)
	got := sentFlows(t, env.sent)
	if want := []core.FlowID{3, 5, 7}; !slices.Equal(got, want) {
		t.Errorf("same-instant NACKs named flows %v, want %v", got, want)
	}
	if dl, ok := c.NextDeadline(); ok && dl <= due {
		t.Errorf("NextDeadline = %v after OnTimer(%v)", dl, due)
	}
}

func TestHostCoreFlowDroppedMidOnTimer(t *testing.T) {
	// A callback out of OnTimer may end a flow and shrink the list under
	// the walk. (Receivers' timers surface only sends today, so Send
	// stands in for the delivery callback.) Nothing may panic, and a
	// receiver the shift skipped is still due.
	c, env, due := threeDue(t)
	env.onSend = func(core.Emit) {
		env.onSend = nil
		c.Drop(3)
	}
	c.OnTimer(due)
	if got := sentFlows(t, env.sent); !slices.Equal(got, []core.FlowID{3, 7}) {
		t.Fatalf("walk across the drop sent for flows %v, want [3 7]", got)
	}
	if dl, ok := c.NextDeadline(); !ok || dl != due {
		t.Fatalf("NextDeadline = %v, %v; want the skipped receiver still due at %v", dl, ok, due)
	}
	c.OnTimer(due)
	if got := sentFlows(t, env.sent); !slices.Equal(got, []core.FlowID{3, 7, 5}) {
		t.Errorf("second firing sent for flows %v, want flow 5 last", got)
	}
}

// TestHostCoreResultOutlivesReentry: one parity shard completes an
// in-stream block and surfaces two packets in one Result, which lives in the
// receiver's buffers. The application's handler for the first may close the
// flow (freeing that receiver) or pull (entering the core again); the second
// packet must still arrive, intact, either way.
func TestHostCoreResultOutlivesReentry(t *testing.T) {
	payloads := [][]byte{[]byte("first"), []byte("second, longer"), []byte("third")}
	shards, shardLen, err := rs.PackBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := rs.NewCodec(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards = append(shards, make([]byte, shardLen), make([]byte, shardLen))
	if err := codec.Encode(shards); err != nil {
		t.Fatal(err)
	}
	const flow = 1
	meta := wire.Coded{Batch: 9, Kind: wire.InStream, K: 3, R: 2, ShardLen: uint16(shardLen)}
	for seq := core.Seq(1); seq <= 3; seq++ {
		meta.Sources = append(meta.Sources, wire.SourceRef{Flow: flow, Seq: seq, Receiver: hostSelf})
	}
	parity := func(i uint8) []byte {
		meta.Index = i
		return message(wire.TypeCoded, core.ServiceCoding, 0, 0, hostDC, hostSelf, 0, meta.AppendMarshal(nil, shards[3+i]))
	}
	for name, react := range map[string]func(c *HostCore, env *fakeHostEnv){
		"close": func(c *HostCore, env *fakeHostEnv) {
			delete(env.live, flow)
			c.Drop(flow)
		},
		"pull": func(c *HostCore, env *fakeHostEnv) { c.Pull(2*time.Millisecond, flow, 0) },
		// The pull's new flow takes the receiver the close just let go,
		// whose Result the core is still walking.
		"close, then pull another flow": func(c *HostCore, env *fakeHostEnv) {
			old := c.Receiver(flow)
			delete(env.live, flow)
			c.Drop(flow)
			env.live[2] = 100 * time.Millisecond
			c.Pull(2*time.Millisecond, 2, 0)
			if c.Receiver(2) != old {
				t.Error("the pulled flow did not reuse the closed flow's receiver")
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			c, env := newHostWorld()
			env.live[flow], env.allocated = 100*time.Millisecond, 10
			hostHandle(t, c, 0, message(wire.TypeData, core.ServiceCoding, flow, 1, 100, hostSelf, 0, payloads[0]))
			hostHandle(t, c, time.Millisecond, parity(0))
			if len(env.delivered) != 1 {
				t.Fatalf("delivered %d packets before the block was decodable", len(env.delivered))
			}
			env.onDeliver = func(core.Delivery) {
				env.onDeliver = nil
				react(c, env)
			}
			hostHandle(t, c, 2*time.Millisecond, parity(1))
			if len(env.delivered) != 3 {
				t.Fatalf("delivered %d packets, want the whole block of 3", len(env.delivered))
			}
			for i, del := range env.delivered {
				if del.Packet.ID.Seq != core.Seq(i+1) || !bytes.Equal(del.Packet.Payload, payloads[i]) || del.Recovered != (i > 0) {
					t.Errorf("delivery %d: seq %d %q recovered=%v", i, del.Packet.ID.Seq, del.Packet.Payload, del.Recovered)
				}
			}
			if want := map[string]int{"close": 0, "pull": 1, "close, then pull another flow": 1}[name]; c.Receivers() != want {
				t.Errorf("%d receivers held afterwards, want %d", c.Receivers(), want)
			}
		})
	}
}

// hostStep encodes one fuzz record: advance the clock by adv milliseconds,
// then receive datagram msg.
func hostStep(adv byte, msg []byte) []byte {
	return append([]byte{adv, byte(len(msg) >> 8), byte(len(msg))}, msg...)
}

// FuzzHostCoreHandle runs a sequence of datagrams and clock advances
// through a core whose runtime knows flows 1 and 2 as live and 3 and 4 as
// closed, firing OnTimer at every deadline that comes due in between: no
// input may panic, state stays bounded by live flows plus the unsolicited
// cap (and the spare list by its own), closed flows get none, everything
// sent is a well-formed message, and a deadline never stays at or behind
// the time it was serviced at (a host re-arming on NextDeadline would
// spin). A record with an empty datagram is the runtime closing its oldest
// live flow and registering the next ID, 5 onwards, whose receiver is the
// closed flow's, reused.
func FuzzHostCoreHandle(f *testing.F) {
	inStream := wire.Coded{Batch: 9, Kind: wire.InStream, K: 2, R: 1, ShardLen: 8,
		Sources: []wire.SourceRef{{Flow: 1, Seq: 1, Receiver: hostSelf}, {Flow: 1, Seq: 2, Receiver: hostSelf}}}
	noSources := wire.Coded{Batch: 1, K: 2, R: 1, ShardLen: 4}
	coded := func(body []byte) []byte {
		return message(wire.TypeCoded, core.ServiceCoding, 0, 0, hostDC, hostSelf, 0, body)
	}
	var flood []byte
	for i := 0; i < 3*MaxUnsolicited; i++ {
		flood = append(flood, hostStep(1, data(core.FlowID(1000+i), 1))...)
	}
	for _, seed := range [][]byte{
		bytes.Join([][]byte{
			hostStep(0, data(1, 1)),
			hostStep(5, data(1, 4)), // gap: NACKs 2 and 3
			hostStep(1, coded(inStream.AppendMarshal(nil, make([]byte, 8)))),
			hostStep(10, recovered(1, 3)),
			hostStep(0, message(wire.TypePullResp, core.ServiceCaching, 2, 2, hostDC, hostSelf, 0, []byte("x"))),
			hostStep(1, message(wire.TypeCoopReq, core.ServiceCoding, 1, 1, hostDC, hostSelf, 0, coopBody())),
			hostStep(1, message(wire.TypeVerify, core.ServiceCoding, 1, 9, hostDC, hostSelf, 0, nil)),
			hostStep(255, data(1, 5)), // after the idle timer
		}, nil),
		flood,
		hostStep(0, coded(noSources.AppendMarshal(nil, []byte("shrd")))),
		bytes.Join([][]byte{hostStep(0, data(3, 1)), hostStep(0, recovered(4, 1)), hostStep(0, coded(codedBody(3)))}, nil),
		hostStep(0, []byte("not a J-QoS datagram")),
		{},
		bytes.Join([][]byte{
			hostStep(0, data(1, 1)),
			hostStep(5, data(1, 3)),
			hostStep(1, nil), // 1 closes, 5 opens on its receiver
			hostStep(1, data(5, 1)),
			hostStep(5, data(5, 4)),
			hostStep(10, recovered(5, 2)),
			hostStep(0, data(1, 4)), // late, for a closed flow
			hostStep(1, nil),        // 2 closes, 6 opens
			hostStep(255, data(6, 9)),
		}, nil),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		c, env := newHostWorld()
		env.live[1], env.live[2], env.allocated = 0, 40*time.Millisecond, 5
		liveIDs, closed := []core.FlowID{1, 2}, []core.FlowID{3, 4}
		var now core.Time
		check := func(what string, at core.Time) {
			for _, em := range env.sent {
				var out wire.Header
				if _, err := wire.SplitMessage(&out, em.Msg); err != nil {
					t.Fatalf("%s: sent an unparseable message to %v: %v", what, em.To, err)
				}
			}
			env.sent = env.sent[:0]
			if c.Unsolicited() > MaxUnsolicited || c.Receivers() > len(env.live)+MaxUnsolicited || len(c.spare) > maxSpareReceivers {
				t.Fatalf("%s: %d receivers (%d unsolicited, %d spare) for %d live flows", what, c.Receivers(), c.Unsolicited(), len(c.spare), len(env.live))
			}
			for _, id := range closed {
				if c.Receiver(id) != nil {
					t.Fatalf("%s: closed flow %d holds a receiver", what, id)
				}
			}
			if dl, ok := c.NextDeadline(); ok && dl <= at {
				t.Fatalf("%s at %v: NextDeadline = %v, not after it", what, at, dl)
			}
		}
		for len(in) >= 3 {
			adv := in[0]
			now += core.Time(adv) * time.Millisecond
			n := min(int(in[1])<<8|int(in[2]), len(in)-3)
			msg := in[3 : 3+n]
			in = in[3+n:]
			for {
				dl, ok := c.NextDeadline()
				if !ok || dl > now {
					break
				}
				c.OnTimer(dl)
				check("OnTimer", dl)
			}
			if n == 0 {
				oldest, opened := liveIDs[0], env.allocated
				delete(env.live, oldest)
				c.Drop(oldest)
				liveIDs, closed = append(liveIDs[1:], opened), append(closed, oldest)
				env.live[opened], env.allocated = core.Time(adv%64)*time.Millisecond, opened+1
				c.Ensure(opened, 0, core.ServiceCoding)
				check("reopen", now)
				continue
			}
			var hdr wire.Header
			body, err := wire.SplitMessage(&hdr, msg)
			if err != nil {
				continue // the host counts these; the core never sees them
			}
			c.Handle(now, &hdr, body)
			check(hdr.Type.String(), now)
		}
	})
}

// churnEnv is a runtime that knows every flow as live and discards what the
// core sends and delivers: BenchmarkHostCoreFlowChurn measures the core.
type churnEnv struct{}

func (churnEnv) Flow(core.FlowID) (FlowState, core.Time) { return FlowLive, 100 * time.Millisecond }
func (churnEnv) Holding(core.FlowID)                     {}
func (churnEnv) Send(core.NodeID, []byte)                {}
func (churnEnv) Deliver(core.Delivery)                   {}

// BenchmarkHostCoreFlowChurn is one short flow's life at its receiving
// host: registration, 100 in-order 200 B packets, close. Each flow after
// the first runs on the receiver the one before let go.
func BenchmarkHostCoreFlowChurn(b *testing.B) {
	c := NewHost(hostSelf, hostDC, churnEnv{}, nil)
	payload := make([]byte, 200)
	var now core.Time
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flow := core.FlowID(i + 1)
		c.Ensure(flow, 0, core.ServiceCoding)
		for seq := core.Seq(1); seq <= 100; seq++ {
			hdr := wire.Header{Type: wire.TypeData, Service: core.ServiceCoding, Flow: flow, Seq: seq, TS: now, Src: 100, Dst: hostSelf}
			c.Handle(now, &hdr, payload)
			now += time.Millisecond
		}
		c.Drop(flow)
	}
}
