package transport

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/dataplane"
	"jqos/internal/wire"
)

func TestParseAddrBook(t *testing.T) {
	b, err := ParseAddrBook("1=127.0.0.1:9001, 2=127.0.0.1:9002")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Lookup(1); got == nil || got.Port != 9001 {
		t.Errorf("lookup 1 = %v", got)
	}
	if got := b.Lookup(2); got == nil || got.Port != 9002 {
		t.Errorf("lookup 2 = %v", got)
	}
	if empty, err := ParseAddrBook("  "); err != nil || empty.Lookup(1) != nil {
		t.Errorf("empty spec: %v %v", empty, err)
	}
	for _, bad := range []string{"x", "a=127.0.0.1:1", "1=notanaddr:::"} {
		if _, err := ParseAddrBook(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestAddrBookLearnDoesNotOverride(t *testing.T) {
	b := NewAddrBook()
	static := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1000}
	b.Set(5, static)
	b.Learn(5, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 2000})
	if b.Lookup(5).Port != 1000 {
		t.Error("Learn overrode a static entry")
	}
	b.Learn(6, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 3000})
	if b.Lookup(6) == nil {
		t.Error("Learn did not record a new node")
	}
}

func TestParseBindings(t *testing.T) {
	bs, err := ParseBindings("101@2, 102@3")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 || bs[0] != (HostBinding{101, 2}) || bs[1] != (HostBinding{102, 3}) {
		t.Errorf("bindings = %+v", bs)
	}
	if _, err := ParseBindings("101"); err == nil {
		t.Error("accepted binding without dc")
	}
	if _, err := ParseBindings("x@y"); err == nil {
		t.Error("accepted non-numeric binding")
	}
}

func TestEndpointRoundTrip(t *testing.T) {
	book := NewAddrBook()
	a, err := NewEndpoint(1, "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewEndpoint(2, "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	book.Set(1, a.LocalAddr())
	book.Set(2, b.LocalAddr())

	got := make(chan string, 1)
	b.Handler = func(now core.Time, hdr *wire.Header, body, _ []byte) {
		if hdr.Type == wire.TypeData {
			got <- string(body)
		}
	}
	a.Start()
	b.Start()
	hdr := wire.Header{Type: wire.TypeData, Flow: 1, Seq: 1, Src: 1, Dst: 2}
	if err := a.Send(2, wire.AppendMessage(nil, &hdr, []byte("over the wire"))); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "over the wire" {
			t.Errorf("body = %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never arrived")
	}
	if err := a.Send(99, []byte("x")); err == nil {
		t.Error("send to unknown node succeeded")
	}
}

// TestRelayRecyclesConsumedDatagrams: a relay reads each datagram into a
// buffer from its pool, and one it consumes without answering — here a
// caching NACK for a packet it never cached, a 40 B header — goes back
// there. Each is handed back before the next is read, so all of them
// pass through one pooled buffer.
func TestRelayRecyclesConsumedDatagrams(t *testing.T) {
	const relay, host, n = 1, 101, 16
	book := NewAddrBook()
	ep, err := NewEndpoint(relay, "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	book.Set(relay, ep.LocalAddr())
	r, err := NewRelay(ep, DefaultRelayConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var handled atomic.Int64
	handle := ep.Handler
	ep.Handler = func(now core.Time, hdr *wire.Header, body, raw []byte) {
		handle(now, hdr, body, raw)
		handled.Add(1)
	}
	src, err := NewEndpoint(host, "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	r.Start()
	for i := 0; i < n; i++ {
		hdr := wire.Header{Type: wire.TypeNACK, Service: core.ServiceCaching, Flow: 7, Seq: core.Seq(i), Src: host, Dst: relay}
		if err := src.Send(relay, wire.AppendMessage(nil, &hdr, nil)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); handled.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("relay handled %d of %d datagrams", handled.Load(), n)
		}
	}
	r.mu.Lock()
	held := r.pool.Len()
	r.mu.Unlock()
	if held != 1 {
		t.Errorf("relay pool holds %d buffers after consuming %d NACKs, want the 1 they all passed through", held, n)
	}
}

// TestLiveRecoveryOverUDP is the flagship transport test: a sender, two
// relays (DC1, DC2), three helper endpoints and a receiver on loopback
// UDP. The sender's direct datagrams to the receiver are partially
// dropped; CR-WAN over the relays repairs the stream on real sockets.
func TestLiveRecoveryOverUDP(t *testing.T) { liveRecovery(t, false) }

// TestLiveRecoveryAcrossTransitRelay puts the relays in a line: DC1 has no
// address for DC2, only a route to it through a third relay. The parity
// DC1's encoder emits must follow that route — engine emits go through
// the same hop resolution as forwarded packets — or nothing is repaired.
func TestLiveRecoveryAcrossTransitRelay(t *testing.T) { liveRecovery(t, true) }

func liveRecovery(t *testing.T, viaTransit bool) {
	const (
		dc1     core.NodeID = 1
		dc2     core.NodeID = 2
		transit core.NodeID = 3
		sender  core.NodeID = 101
		rcvr    core.NodeID = 201
	)
	// Every endpoint registers in book; DC1 resolves through its own
	// book1, which in the transit layout never learns DC2's address.
	book, book1 := NewAddrBook(), NewAddrBook()
	mkWith := func(id core.NodeID, own *AddrBook) *Endpoint {
		ep, err := NewEndpoint(id, "127.0.0.1:0", own)
		if err != nil {
			t.Fatal(err)
		}
		book.Set(id, ep.LocalAddr())
		if id != dc2 || !viaTransit {
			book1.Set(id, ep.LocalAddr())
		}
		return ep
	}
	mk := func(id core.NodeID) *Endpoint { return mkWith(id, book) }
	helpers := []core.NodeID{202, 203, 204}

	bindings := []HostBinding{{sender, dc1}, {rcvr, dc2}}
	for _, h := range helpers {
		bindings = append(bindings, HostBinding{h, dc2})
	}
	cfg := DefaultRelayConfig()
	cfg.Encoder.K = 4
	cfg.Encoder.CrossParity = 2
	cfg.Encoder.InBlock = 0
	cfg.Encoder.CrossTimeout = 20 * time.Millisecond

	ep1 := mkWith(dc1, book1)
	r1, err := NewRelay(ep1, cfg, bindings)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	var unroutable, transitRx, transitTx atomic.Int64
	ep1.DropSend = func(to core.NodeID, _ *wire.Header) bool {
		if book1.Lookup(to) == nil {
			unroutable.Add(1)
		}
		return false
	}
	if viaTransit {
		r1.dp.Forwarder.SetRoute(dc2, transit)
		ep3 := mk(transit)
		r3, err := NewRelay(ep3, cfg, bindings)
		if err != nil {
			t.Fatal(err)
		}
		defer r3.Close()
		handle := ep3.Handler
		ep3.Handler = func(now core.Time, hdr *wire.Header, body, raw []byte) {
			transitRx.Add(1)
			handle(now, hdr, body, raw)
		}
		ep3.DropSend = func(core.NodeID, *wire.Header) bool {
			transitTx.Add(1)
			return false
		}
		r3.Start()
	}
	r2, err := NewRelay(mk(dc2), cfg, bindings)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	r1.Start()
	r2.Start()

	// Receiver: count deliveries, mark recovered ones.
	var mu sync.Mutex
	gotSeq := map[core.Seq]bool{}
	recovered := 0
	rend := NewHostEnd(mk(rcvr), dc2, 60*time.Millisecond)
	rend.OnDeliver = func(del core.Delivery) {
		mu.Lock()
		gotSeq[del.Packet.ID.Seq] = true
		if del.Recovered {
			recovered++
		}
		mu.Unlock()
	}
	defer rend.Close()
	rend.Start()

	// Helpers: each runs its own flow so batches mix 4 flows.
	var hends []*HostEnd
	for _, h := range helpers {
		he := NewHostEnd(mk(h), dc2, 60*time.Millisecond)
		defer he.Close()
		he.Start()
		hends = append(hends, he)
	}

	// Sender: drop every 5th direct datagram to the receiver (loss is
	// injected at the sender socket — the wire itself is loopback).
	var sent atomic.Int64
	send := NewHostEnd(mk(sender), dc1, 60*time.Millisecond)
	send.SetDropSend(func(to core.NodeID, hdr *wire.Header) bool {
		return to == rcvr && hdr.Type == wire.TypeData && hdr.Seq%5 == 0
	})
	defer send.Close()
	send.Start()

	// Helper flows originate at the sender too (one process plays all
	// senders for simplicity; flows are what matters to the encoder).
	const packets = 50
	for seq := core.Seq(1); seq <= packets; seq++ {
		send.SendData(10, seq, rcvr, core.ServiceCoding, []byte("live-payload"))
		for fi, h := range helpers {
			send.SendData(core.FlowID(20+fi), seq, h, core.ServiceCoding, []byte("helper-payload"))
		}
		sent.Add(1)
		time.Sleep(4 * time.Millisecond)
	}

	// Wait for recovery to settle.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(gotSeq)
		mu.Unlock()
		if n >= packets {
			break
		}
		select {
		case <-deadline:
			mu.Lock()
			t.Fatalf("only %d/%d delivered (recovered %d)", len(gotSeq), packets, recovered)
			mu.Unlock()
		case <-time.After(50 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if recovered == 0 {
		t.Error("no recoveries despite injected loss")
	}
	encStats, _, _ := r1.Stats()
	if encStats.CrossBatches == 0 {
		t.Error("relay encoded no batches")
	}
	_, recStats, _ := r2.Stats()
	if recStats.CoopRecovered == 0 {
		t.Errorf("no cooperative recoveries at DC2: %+v", recStats)
	}
	if n := unroutable.Load(); n != 0 {
		t.Errorf("DC1 had no address for %d of its sends", n)
	}
	if viaTransit {
		if rx, tx := transitRx.Load(), transitTx.Load(); rx == 0 || tx != rx {
			t.Errorf("transit relay received %d datagrams and sent on %d", rx, tx)
		}
	}
}

// TestHostEndDeliveryHandlerReentry: OnDeliver runs with the host's lock
// released and on copies of what the core surfaced, so a datagram may
// arrive on the other goroutine from inside a delivery. (Under the lock
// this test deadlocks.)
func TestHostEndDeliveryHandlerReentry(t *testing.T) {
	ep, err := NewEndpoint(201, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	h := NewHostEnd(ep, 2, 60*time.Millisecond)
	feed := func(typ wire.MsgType, seq core.Seq) {
		hdr := wire.Header{Type: typ, Service: core.ServiceCaching, Flow: 7, Seq: seq, Src: 2, Dst: 201}
		h.handle(ep.Now(), &hdr, []byte("cached"), nil)
	}
	var got []core.Seq
	h.OnDeliver = func(del core.Delivery) {
		got = append(got, del.Packet.ID.Seq)
		if len(got) == 1 {
			feed(wire.TypePullResp, 3) // beyond the expectation: NACKs seq 2, delivers 3
			feed(wire.TypePullResp, 1) // a duplicate of the delivery in progress
		}
	}
	feed(wire.TypeData, 1)
	feed(wire.TypePullResp, 2)
	if !slices.Equal(got, []core.Seq{1, 3, 2}) {
		t.Errorf("delivered %v, want [1 3 2]", got)
	}
	if st := h.ReceiverStats(); st.Duplicates != 1 || st.GapNACKs != 1 || st.Recovered != 2 {
		t.Errorf("receiver stats after re-entry: %+v", st)
	}
}

// TestForgedFlowFloodBounded: datagrams naming flow IDs nobody registered
// are cheap to forge on a real socket. The host must hold at most the
// core's unsolicited cap of receivers however many arrive, spend per
// datagram what that cap costs (not what the flood has cost so far), and
// keep serving a legitimate flow interleaved with the flood.
func TestForgedFlowFloodBounded(t *testing.T) {
	ep, err := NewEndpoint(201, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	h := NewHostEnd(ep, 2, 60*time.Millisecond)
	var legit []core.Seq
	h.OnDeliver = func(del core.Delivery) {
		if del.Packet.ID.Flow == 7 {
			legit = append(legit, del.Packet.ID.Seq)
		}
	}
	// The socket is never started: handle is driven directly, so the
	// clock below is the flood's cost alone.
	feed := func(typ wire.MsgType, flow core.FlowID, seq core.Seq, body []byte) {
		hdr := wire.Header{Type: typ, Service: core.ServiceCoding, Flow: flow, Seq: seq, Src: 101, Dst: 201}
		h.handle(ep.Now(), &hdr, body, nil)
	}
	const forged, every = 20_000, 25 // a legitimate packet per 25 forged: inside the LRU's reach
	start := time.Now()
	for i := 0; i < forged; i++ {
		feed(wire.TypeData, core.FlowID(1_000+i), 1, []byte("forged"))
		if i%every == 0 {
			feed(wire.TypeData, 7, core.Seq(1+i/every), []byte("legit"))
		}
	}
	if took := time.Since(start); took > 4*time.Second {
		t.Errorf("flood of %d forged flows took %v: per-datagram cost grows with flows seen", forged, took)
	}
	if got := h.hc.Receivers(); got > dataplane.MaxUnsolicited {
		t.Errorf("host holds %d receivers after the flood, want ≤ %d", got, dataplane.MaxUnsolicited)
	}
	if len(legit) != forged/every {
		t.Fatalf("legitimate flow delivered %d of %d packets amid the flood", len(legit), forged/every)
	}
	// Its receiver was never evicted: it still knows what it delivered.
	feed(wire.TypeData, 7, legit[len(legit)-1], []byte("legit"))
	if len(legit) != forged/every {
		t.Error("replay delivered: the legitimate flow's receiver was evicted and rebuilt")
	}
	if st := h.ReceiverStats(); st.DataReceived != forged+forged/every+1 || st.Duplicates != 1 {
		t.Errorf("ReceiverStats lost evicted receivers' counts: %+v", st)
	}
	feed(wire.TypeCoded, 0, 0, []byte{1, 2, 3})
	feed(wire.TypeNACK, 7, 1, nil)
	if got := h.Dropped(); got != 2 {
		t.Errorf("Dropped = %d after an undecodable body and an unknown type, want 2", got)
	}
}
