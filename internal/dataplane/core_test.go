package dataplane

import (
	"bytes"
	"testing"
	"time"

	"jqos/internal/coding"
	"jqos/internal/core"
	"jqos/internal/forward"
	"jqos/internal/routing"
	"jqos/internal/wire"
)

// The test world, seen from DC 1: DCs 2 and 3 are adjacent; host 101 is
// served here and linked; hosts 201 and 301 are served by DCs 2 and 3 and
// reachable only through them.
const (
	self  core.NodeID = 1
	dcB   core.NodeID = 2
	dcC   core.NodeID = 3
	local core.NodeID = 101
	hostB core.NodeID = 201
	hostC core.NodeID = 301
	group core.NodeID = 900
)

// fakeEnv is the one test implementation of Env: a static link set and
// host→DC map, recording every send, and the pool its core draws from and
// hands back to.
type fakeEnv struct {
	links  map[core.NodeID]bool
	homes  map[core.NodeID]core.NodeID
	policy map[core.FlowID]uint32
	sent   []core.Emit
	pool   wire.Pool
}

func (e *fakeEnv) Linked(hop core.NodeID) bool { return e.links[hop] }
func (e *fakeEnv) Home(host core.NodeID) (core.NodeID, bool) {
	dc, ok := e.homes[host]
	return dc, ok
}
func (e *fakeEnv) PathPolicy(flow core.FlowID) uint32 { return e.policy[flow] }
func (e *fakeEnv) Send(hop core.NodeID, msg []byte) {
	e.sent = append(e.sent, core.Emit{To: hop, Msg: msg})
}

func newWorld(t testing.TB) (*Core, *fakeEnv) {
	t.Helper()
	env := &fakeEnv{
		links:  map[core.NodeID]bool{dcB: true, dcC: true, local: true},
		homes:  map[core.NodeID]core.NodeID{local: self, hostB: dcB, hostC: dcC},
		policy: map[core.FlowID]uint32{},
	}
	enc := coding.DefaultEncoderConfig()
	enc.K, enc.CrossParity, enc.InBlock = 2, 1, 0
	c, err := New(self, env, enc, core.Time(time.Second), &env.pool)
	if err != nil {
		t.Fatal(err)
	}
	return c, env
}

// pooled copies msg into a buffer drawn from p, the way a runtime's hosts
// build what its DCs consume.
func pooled(p *wire.Pool, msg []byte) []byte { return append(p.Get(len(msg)), msg...) }

// handedBack reports whether raw is what p holds: the one buffer in it,
// the one the next draw of raw's size returns.
func handedBack(t testing.TB, p *wire.Pool, raw []byte) bool {
	t.Helper()
	switch p.Len() {
	case 0:
		return false
	case 1:
		if got := p.Get(len(raw)); &got[:1][0] != &raw[:1][0] {
			t.Fatalf("the pool holds a buffer that is not the message handled")
		}
		return true
	}
	t.Fatalf("the pool holds %d buffers after one message", p.Len())
	return false
}

func message(typ wire.MsgType, svc core.Service, flow core.FlowID, seq core.Seq, src, dst core.NodeID, flags uint16, body []byte) []byte {
	hdr := wire.Header{Type: typ, Service: svc, Flags: flags, Flow: flow, Seq: seq, Src: src, Dst: dst}
	return wire.AppendMessage(nil, &hdr, body)
}

// codedBody is parity metadata whose first source is (flow, seq 1).
func codedBody(flow core.FlowID) []byte {
	meta := wire.Coded{Batch: 1, K: 2, R: 1, ShardLen: 4,
		Sources: []wire.SourceRef{{Flow: flow, Seq: 1, Receiver: hostB}, {Flow: flow + 1, Seq: 1, Receiver: hostB}}}
	return meta.AppendMarshal(nil, []byte("shrd"))
}

func coopBody() []byte {
	ref := wire.CoopRef{Batch: 1, Want: core.PacketID{Flow: 7, Seq: 1}}
	return ref.AppendMarshal(nil, []byte("helper-data"))
}

// handle feeds raw through the same split the hosts do.
func handle(t testing.TB, c *Core, raw []byte) {
	t.Helper()
	var hdr wire.Header
	body, err := wire.SplitMessage(&hdr, raw)
	if err != nil {
		t.Fatalf("test message does not parse: %v", err)
	}
	c.Handle(0, &hdr, body, raw)
}

type sent struct {
	hop core.NodeID
	// msg is the exact datagram expected, or nil when typ names what the
	// core must have built itself (parity, cache answers).
	msg []byte
	typ wire.MsgType
	dst core.NodeID
}

// Setups: the forwarding state a case runs under.
func noPin(*Core)     {}
func pinned(c *Core)  { c.Forwarder.SetFlowRoute(7, hostB, dcC); c.Forwarder.SetFlowRoute(7, dcB, dcC) }
func grouped(c *Core) { c.Forwarder.SetGroup(group, local, hostB) }

// cached: the cache holds packets 1..n of flow 7.
func cached(n core.Seq) func(*Core) {
	return func(c *Core) {
		for seq := core.Seq(1); seq <= n; seq++ {
			c.Cache.Put(0, core.PacketID{Flow: 7, Seq: seq}, []byte("kept"))
		}
	}
}

// drained: epoch 0 routed DC B directly, epoch 1 moved it behind DC C, and
// the drain window still holds epoch 0 live.
func drained(c *Core) {
	c.Forwarder.SetRoute(dcB, dcB)
	c.Forwarder.BeginEpoch(1)
	c.Forwarder.SetRoute(dcB, dcC)
}

func TestCoreHandle(t *testing.T) {
	oldTag, newTag := wire.EpochFlags(0), wire.EpochFlags(1)
	fwdData := func(dst core.NodeID, flags uint16) []byte {
		return message(wire.TypeData, core.ServiceForwarding, 7, 1, 100, dst, flags, []byte("payload"))
	}
	rewritten := func(raw []byte, dst core.NodeID) []byte {
		out := append([]byte(nil), raw...)
		if err := wire.RewriteDst(out, dst); err != nil {
			t.Fatal(err)
		}
		return out
	}
	coded := func(dst core.NodeID, flags uint16) []byte {
		return message(wire.TypeCoded, core.ServiceCoding, 0, 0, 5, dst, flags, codedBody(7))
	}
	transit := func(typ wire.MsgType, body []byte) []byte {
		return message(typ, core.ServiceCoding, 7, 1, hostC, dcB, 0, body)
	}
	here := func(typ wire.MsgType, svc core.Service, body []byte) []byte {
		return message(typ, svc, 7, 1, hostB, self, 0, body)
	}

	// back: the core consumed the message and handed its buffer back to
	// the pool. Data never goes back, nor does anything relayed or fanned
	// out.
	cases := []struct {
		name  string
		setup func(*Core)
		in    []byte
		want  []sent
		drops uint64
		back  bool
		check func(t *testing.T, c *Core)
	}{
		// Data, forwarding service.
		{name: "data/forwarding/local host: direct link", setup: noPin,
			in: fwdData(local, 0), want: []sent{{hop: local, msg: fwdData(local, 0)}}},
		{name: "data/forwarding/remote host: nearest DC", setup: noPin,
			in: fwdData(hostB, 0), want: []sent{{hop: dcB, msg: fwdData(hostB, 0)}}},
		{name: "data/forwarding/unknown host: dropped", setup: noPin,
			in: fwdData(999, 0), drops: 1},
		{name: "data/forwarding/pinned flow: pin outranks the table", setup: pinned,
			in: fwdData(hostB, 0), want: []sent{{hop: dcC, msg: fwdData(hostB, 0)}},
			check: func(t *testing.T, c *Core) {
				if st := c.Forwarder.Stats(); st.FlowPinned != 1 || st.Copies != 1 {
					t.Errorf("pinned forward counted %+v", st)
				}
			}},
		{name: "data/forwarding/old-epoch tag: resolves the retiring table", setup: drained,
			in: fwdData(dcB, oldTag), want: []sent{{hop: dcB, msg: fwdData(dcB, oldTag)}},
			check: func(t *testing.T, c *Core) {
				if n := c.Forwarder.Stats().OldEpochResolves; n != 1 {
					t.Errorf("OldEpochResolves = %d, want 1", n)
				}
			}},
		{name: "data/forwarding/current-epoch tag: resolves the new table", setup: drained,
			in: fwdData(dcB, newTag), want: []sent{{hop: dcC, msg: fwdData(dcB, newTag)}}},
		{name: "data/forwarding/untagged during drain: current table", setup: drained,
			in: fwdData(dcB, 0), want: []sent{{hop: dcC, msg: fwdData(dcB, 0)}}},
		{name: "data/forwarding/multicast group: per-member Dst rewrite", setup: grouped,
			in: fwdData(group, 0), want: []sent{
				{hop: local, msg: rewritten(fwdData(group, 0), local)},
				{hop: dcB, msg: rewritten(fwdData(group, 0), hostB)}}},
		{name: "data/forwarding/multicast group, old-epoch tag: each copy resolves the retiring table",
			setup: func(c *Core) { grouped(c); drained(c) },
			in:    fwdData(group, oldTag), want: []sent{
				{hop: local, msg: rewritten(fwdData(group, oldTag), local)},
				{hop: dcB, msg: rewritten(fwdData(group, oldTag), hostB)}}},
		{name: "data/internet service: moves on like forwarding", setup: noPin,
			in:   message(wire.TypeData, core.ServiceInternet, 7, 1, 100, hostB, 0, []byte("p")),
			want: []sent{{hop: dcB, msg: message(wire.TypeData, core.ServiceInternet, 7, 1, 100, hostB, 0, []byte("p"))}}},

		// Data, caching service.
		{name: "data/caching/served here: cached, not forwarded", setup: noPin,
			in: message(wire.TypeData, core.ServiceCaching, 7, 1, 100, local, 0, []byte("keep")),
			check: func(t *testing.T, c *Core) {
				if got, ok := c.Cache.Get(0, core.PacketID{Flow: 7, Seq: 1}); !ok || string(got) != "keep" {
					t.Errorf("cache holds %q, %v", got, ok)
				}
			}},
		{name: "data/caching/group homed here: cached", setup: grouped,
			in:    message(wire.TypeData, core.ServiceCaching, 7, 1, 100, group, 0, []byte("keep")),
			check: func(t *testing.T, c *Core) { wantLen(t, c.Cache.Len(), 1, "cache") }},
		{name: "data/caching/transit: relayed toward the egress DC", setup: noPin,
			in:    message(wire.TypeData, core.ServiceCaching, 7, 1, 100, hostB, 0, []byte("keep")),
			want:  []sent{{hop: dcB, msg: message(wire.TypeData, core.ServiceCaching, 7, 1, 100, hostB, 0, []byte("keep"))}},
			check: func(t *testing.T, c *Core) { wantLen(t, c.Cache.Len(), 0, "cache") }},

		// Data, coding service (this DC is DC1).
		{name: "data/coding/first of batch: held by the encoder", setup: noPin,
			in:    message(wire.TypeData, core.ServiceCoding, 7, 1, 100, hostB, 0, []byte("a")),
			check: func(t *testing.T, c *Core) { wantLen(t, int(c.Encoder.Stats().DataPackets), 1, "encoder data") }},
		{name: "data/coding/receiver unknown: dropped", setup: noPin,
			in: message(wire.TypeData, core.ServiceCoding, 7, 1, 100, 999, 0, []byte("a")), drops: 1},

		// Coded parity.
		{name: "coded/transit: forwarded as received", setup: noPin,
			in: coded(dcB, 0), want: []sent{{hop: dcB, msg: coded(dcB, 0)}}},
		{name: "coded/transit/pinned first source", setup: pinned,
			in: coded(dcB, 0), want: []sent{{hop: dcC, msg: coded(dcB, 0)}}},
		{name: "coded/transit/old-epoch tag", setup: drained,
			in: coded(dcB, oldTag), want: []sent{{hop: dcB, msg: coded(dcB, oldTag)}}},
		{name: "coded/here: stored in the recoverer", setup: noPin,
			in: coded(self, 0), back: true,
			check: func(t *testing.T, c *Core) { wantLen(t, c.Recoverer.Batches(), 1, "recoverer batches") }},
		{name: "coded/here/truncated metadata: dropped", setup: noPin,
			in: message(wire.TypeCoded, core.ServiceCoding, 0, 0, 5, self, 0, []byte{1, 2, 3}), drops: 1, back: true},

		// Point-to-point service messages: transit is relayed untouched,
		// whatever the type.
		{name: "nack/transit", setup: noPin, in: transit(wire.TypeNACK, nil),
			want: []sent{{hop: dcB, msg: transit(wire.TypeNACK, nil)}}},
		{name: "pull/transit", setup: noPin, in: transit(wire.TypePull, nil),
			want: []sent{{hop: dcB, msg: transit(wire.TypePull, nil)}}},
		{name: "coopresp/transit", setup: noPin, in: transit(wire.TypeCoopResp, coopBody()),
			want: []sent{{hop: dcB, msg: transit(wire.TypeCoopResp, coopBody())}}},
		{name: "verifyresp/transit", setup: noPin, in: transit(wire.TypeVerifyResp, nil),
			want: []sent{{hop: dcB, msg: transit(wire.TypeVerifyResp, nil)}}},
		{name: "recovered/transit: unknown types move along too", setup: noPin, in: transit(wire.TypeRecovered, []byte("x")),
			want: []sent{{hop: dcB, msg: transit(wire.TypeRecovered, []byte("x"))}}},
		{name: "nack/transit/pinned flow: pins do not apply", setup: pinned, in: transit(wire.TypeNACK, nil),
			want: []sent{{hop: dcB, msg: transit(wire.TypeNACK, nil)}}},
		{name: "nack/transit/drain: current table", setup: drained, in: transit(wire.TypeNACK, nil),
			want: []sent{{hop: dcC, msg: transit(wire.TypeNACK, nil)}}},

		// Addressed here.
		{name: "nack/here/coding: handed to the recoverer", setup: noPin,
			in: here(wire.TypeNACK, core.ServiceCoding, nil), back: true,
			check: func(t *testing.T, c *Core) { wantLen(t, int(c.Recoverer.Stats().NACKs), 1, "recoverer NACKs") }},
		{name: "nack/here/caching miss: silent", setup: noPin,
			in: here(wire.TypeNACK, core.ServiceCaching, nil), back: true},
		{name: "nack/here/caching hit: answered from the cache", setup: cached(1),
			in:   here(wire.TypeNACK, core.ServiceCaching, nil),
			want: []sent{{hop: dcB, typ: wire.TypePullResp, dst: hostB}}, back: true},
		{name: "pull/here/drain: every later packet of the flow", setup: cached(3),
			in: message(wire.TypePull, core.ServiceCaching, 7, 1, hostB, self, wire.FlagDrain, nil),
			want: []sent{{hop: dcB, typ: wire.TypePullResp, dst: hostB},
				{hop: dcB, typ: wire.TypePullResp, dst: hostB}}, back: true},
		{name: "coopresp/here: no recovery pending, no reply", setup: noPin,
			in: here(wire.TypeCoopResp, core.ServiceCoding, coopBody()), back: true},
		{name: "coopresp/here/truncated: dropped", setup: noPin,
			in: here(wire.TypeCoopResp, core.ServiceCoding, []byte{1}), drops: 1, back: true},
		{name: "verifyresp/here", setup: noPin,
			in: here(wire.TypeVerifyResp, core.ServiceCoding, nil), back: true},
		{name: "recovered/here: not a DC message, dropped", setup: noPin,
			in: here(wire.TypeRecovered, core.ServiceCoding, []byte("x")), drops: 1, back: true},
		{name: "probe/here: control types are the host's, dropped", setup: noPin,
			in: here(wire.TypeProbe, 0, nil), drops: 1, back: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, env := newWorld(t)
			tc.setup(c)
			raw := pooled(&env.pool, tc.in)
			handle(t, c, raw)
			if c.Dropped() != tc.drops {
				t.Errorf("Dropped = %d, want %d", c.Dropped(), tc.drops)
			}
			checkSent(t, env.sent, tc.want)
			if back := handedBack(t, &env.pool, raw); back != tc.back {
				t.Errorf("handed back to the pool: %v, want %v", back, tc.back)
			}
			if tc.check != nil {
				tc.check(t, c)
			}
		})
	}
}

// TestHostAttachedMidDrainRoutesThroughHome: a host attached while an
// older table epoch drains is reached, under that epoch's tag, through
// the tagged route to its home DC. The world is the line 1—2—3—4 with a
// spur 1—5, seen from DC 1, on a real controller and real forwarders.
// Taking the spur down opens a new epoch that leaves 1→4 alone; host 100
// then attaches at DC 4. A packet for it still tagged with the old epoch
// must leave toward DC 2, not be dropped for want of a host entry.
func TestHostAttachedMidDrainRoutesThroughHome(t *testing.T) {
	env := &fakeEnv{
		links: map[core.NodeID]bool{2: true, 5: true},
		homes: map[core.NodeID]core.NodeID{100: 4},
	}
	c, err := New(self, env, coding.DefaultEncoderConfig(), core.Time(time.Second), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := routing.NewController(2)
	ctrl.AddDC(self, c.Forwarder)
	for dc := core.NodeID(2); dc <= 5; dc++ {
		ctrl.AddDC(dc, forward.New(dc))
	}
	for _, l := range [][2]core.NodeID{{1, 2}, {2, 3}, {3, 4}, {1, 5}} {
		ctrl.SetLink(l[0], l[1], 10*time.Millisecond)
	}
	e := c.Forwarder.Epoch()
	ctrl.SetLinkHealth(1, 5, routing.LinkDown, 0)
	if c.Forwarder.Epoch() == e {
		t.Fatal("taking the spur down opened no epoch")
	}
	ctrl.AttachHost(100, 4)

	raw := message(wire.TypeData, core.ServiceForwarding, 7, 1, 50, 100, wire.EpochFlags(e), []byte("payload"))
	handle(t, c, raw)
	if len(env.sent) != 1 || env.sent[0].To != 2 {
		t.Fatalf("sent %v, dropped %d; want one send to DC 2", hops(env.sent), c.Dropped())
	}
}

func wantLen(t *testing.T, got, want int, what string) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %d, want %d", what, got, want)
	}
}

func checkSent(t *testing.T, got []core.Emit, want []sent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sent %d messages %v, want %d", len(got), hops(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.To != w.hop {
			t.Errorf("send %d left on hop %v, want %v", i, g.To, w.hop)
		}
		if w.msg != nil {
			if !bytes.Equal(g.Msg, w.msg) {
				t.Errorf("send %d bytes differ:\n got %x\nwant %x", i, g.Msg, w.msg)
			}
			continue
		}
		var hdr wire.Header
		if _, err := wire.SplitMessage(&hdr, g.Msg); err != nil || hdr.Type != w.typ || hdr.Dst != w.dst || hdr.Src != self {
			t.Errorf("send %d is %v %v→%v (%v), want %v %v→%v", i, hdr.Type, hdr.Src, hdr.Dst, err, w.typ, self, w.dst)
		}
	}
}

func hops(emits []core.Emit) []core.NodeID {
	out := make([]core.NodeID, len(emits))
	for i, em := range emits {
		out[i] = em.To
	}
	return out
}

// TestCoreEncoderEgress follows parity out of the encoder: to DC2 over the
// table, over the batch's pinned path, and — on a partial overlay, where
// this DC is also the receiver's DC2 — back into the local recoverer
// without touching the network, from both the batch-full and the timer
// flush.
func TestCoreEncoderEgress(t *testing.T) {
	data := func(flow core.FlowID, dst core.NodeID) []byte {
		return message(wire.TypeData, core.ServiceCoding, flow, 1, 100, dst, 0, []byte("payload"))
	}
	t.Run("table", func(t *testing.T) {
		c, env := newWorld(t)
		handle(t, c, data(7, hostB))
		handle(t, c, data(8, hostB))
		checkSent(t, env.sent, []sent{{hop: dcB, typ: wire.TypeCoded, dst: dcB}})
	})
	t.Run("pinned", func(t *testing.T) {
		c, env := newWorld(t)
		pinned(c)
		handle(t, c, data(7, hostB))
		handle(t, c, data(8, hostB))
		checkSent(t, env.sent, []sent{{hop: dcC, typ: wire.TypeCoded, dst: dcB}})
		if st := c.Forwarder.Stats(); st.FlowPinned != 1 || st.Copies != 0 {
			t.Errorf("pinned parity counted %+v", st)
		}
	})
	t.Run("policy splits batches", func(t *testing.T) {
		c, env := newWorld(t)
		env.policy[8] = 1
		handle(t, c, data(7, hostB))
		handle(t, c, data(8, hostB))
		checkSent(t, env.sent, nil) // two open batches, neither full
		handle(t, c, data(9, hostB))
		checkSent(t, env.sent, []sent{{hop: dcB, typ: wire.TypeCoded, dst: dcB}})
	})
	t.Run("loopback on batch full", func(t *testing.T) {
		c, env := newWorld(t)
		handle(t, c, data(7, local))
		handle(t, c, data(8, local))
		checkSent(t, env.sent, nil)
		wantLen(t, c.Recoverer.Batches(), 1, "recoverer batches")
		wantLen(t, env.pool.Len(), 1, "parity handed back")
	})
	t.Run("loopback on timer flush", func(t *testing.T) {
		c, env := newWorld(t)
		handle(t, c, data(7, local))
		dl, ok := c.NextDeadline()
		if !ok {
			t.Fatal("open batch holds no deadline")
		}
		c.OnTimer(dl)
		checkSent(t, env.sent, nil)
		wantLen(t, c.Recoverer.Batches(), 1, "recoverer batches")
		wantLen(t, int(c.Dropped()), 0, "drops")
		wantLen(t, env.pool.Len(), 1, "parity handed back")
	})
	t.Run("timer flush to DC2", func(t *testing.T) {
		c, env := newWorld(t)
		handle(t, c, data(7, hostB))
		dl, _ := c.NextDeadline()
		c.OnTimer(dl)
		checkSent(t, env.sent, []sent{{hop: dcB, typ: wire.TypeCoded, dst: dcB}})
	})
}

// FuzzCoreHandle feeds arbitrary datagrams through the split both hosts
// use into a core with pins, a group, a live drain and a warm cache: no
// input may panic, every message is accounted for — sent on, absorbed by
// an engine, or counted in Dropped — and exactly the messages addressed
// here that are not data come back to the pool, never one that was sent.
func FuzzCoreHandle(f *testing.F) {
	for _, seed := range [][]byte{
		message(wire.TypeData, core.ServiceForwarding, 7, 1, 100, hostB, wire.EpochFlags(0), []byte("payload")),
		message(wire.TypeData, core.ServiceForwarding, 7, 1, 100, group, 0, []byte("payload")),
		message(wire.TypeData, core.ServiceCaching, 7, 2, 100, local, 0, []byte("payload")),
		message(wire.TypeData, core.ServiceCoding, 7, 1, 100, local, 0, []byte("payload")),
		message(wire.TypeData, core.ServiceCoding, 8, 1, 100, hostB, 0, []byte("payload")),
		message(wire.TypeCoded, core.ServiceCoding, 0, 0, 5, self, 0, codedBody(7)),
		message(wire.TypeCoded, core.ServiceCoding, 0, 0, 5, dcB, wire.EpochFlags(1), codedBody(7)),
		message(wire.TypeCoded, core.ServiceCoding, 0, 0, 5, self, 0, []byte{1, 2, 3}),
		message(wire.TypeNACK, core.ServiceCaching, 7, 1, hostB, self, 0, nil),
		message(wire.TypeNACK, core.ServiceCoding, 7, 1, hostB, self, wire.FlagWantVerify, nil),
		message(wire.TypePull, core.ServiceCaching, 7, 0, hostB, self, wire.FlagDrain, nil),
		message(wire.TypeCoopResp, core.ServiceCoding, 7, 1, hostB, self, 0, coopBody()),
		message(wire.TypeCoopResp, core.ServiceCoding, 7, 1, hostB, self, 0, []byte{1}),
		message(wire.TypeVerifyResp, core.ServiceCoding, 7, 1, hostB, self, wire.FlagStillWanted, nil),
		message(wire.TypeProbe, 0, 0, 1, dcB, self, 0, nil),
		message(wire.TypeCongestion, 0, 0, 0, dcB, dcC, 0, make([]byte, wire.CongestionLen)),
		[]byte("not a J-QoS datagram"),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, env := newWorld(t)
		pinned(c)
		grouped(c)
		drained(c)
		cached(1)(c)

		if len(data) > 1<<16 {
			return // past the pool's largest class: it would not keep the buffer
		}
		raw := pooled(&env.pool, data)
		var hdr wire.Header
		body, err := wire.SplitMessage(&hdr, raw)
		if err != nil {
			return // the host counts these; the core never sees them
		}
		// Bodies the core must parse and cannot are counted, not ignored.
		// Decided first: once handled, raw may be the pool's.
		unparseable := false
		if hdr.Dst == self {
			switch hdr.Type {
			case wire.TypeCoded:
				var meta wire.Coded
				_, err := meta.Unmarshal(body)
				unparseable = err != nil
			case wire.TypeCoopResp:
				var ref wire.CoopRef
				_, err := ref.Unmarshal(body)
				unparseable = err != nil
			}
		}
		c.Handle(0, &hdr, body, raw)

		back, want := handedBack(t, &env.pool, raw), hdr.Dst == self && hdr.Type != wire.TypeData
		if back != want {
			t.Fatalf("%v to %v handed back to the pool: %v, want %v", hdr.Type, hdr.Dst, back, want)
		}
		for _, em := range env.sent {
			if back && len(em.Msg) > 0 && &em.Msg[0] == &raw[0] {
				t.Fatalf("sent %v to %v and handed it back too", hdr.Type, em.To)
			}
		}
		if unparseable && (c.Dropped() != 1 || len(env.sent) != 0) {
			t.Fatalf("unparseable %v body: Dropped = %d, sent %d", hdr.Type, c.Dropped(), len(env.sent))
		}
		// Everything sent is a well-formed message on a usable hop.
		for _, em := range env.sent {
			var out wire.Header
			if _, err := wire.SplitMessage(&out, em.Msg); err != nil {
				t.Fatalf("sent an unparseable message to %v: %v", em.To, err)
			}
			if em.To == self || !env.links[em.To] {
				t.Fatalf("sent to %v, which is not a linked hop", em.To)
			}
		}
		if dl, ok := c.NextDeadline(); ok {
			c.OnTimer(dl)
		}
	})
}

// TestHandleSteadyStateAllocs pins what one message costs the core once its
// buffers have grown: forwarding a data message allocates nothing (the
// forwarder answers in its own buffer, the datagram leaves as it came), and
// neither does a parity shard once batches come and go — the metadata is
// parsed into the core's scratch, and a new batch is copied into the state
// and shard buffers of one that expired.
func TestHandleSteadyStateAllocs(t *testing.T) {
	c, env := newWorld(t)
	c.Forwarder.SetRoute(hostC, dcC)
	data := message(wire.TypeData, core.ServiceForwarding, 7, 1, local, hostC, 0, []byte("payload"))
	var dataHdr wire.Header
	dataBody, err := wire.SplitMessage(&dataHdr, data)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		env.sent = env.sent[:0]
		c.Handle(0, &dataHdr, dataBody, data)
	}); n != 0 {
		t.Errorf("forwarding a data message allocates %v times, want 0", n)
	}
	if len(env.sent) != 1 || env.sent[0].To != dcC {
		t.Fatalf("data message went to %v", env.sent)
	}

	// A batch a millisecond, both of its shards, and the timer run at each
	// arrival: once BatchTTL's worth is cached, every new batch takes the
	// place of the one that just expired.
	const batches, warm = 4000, 3000
	coded := make([][]byte, 0, 2*batches)
	for b := uint64(1); b <= batches; b++ {
		for idx := uint8(0); idx < 2; idx++ {
			meta := wire.Coded{Batch: b, K: 2, R: 2, Index: idx, ShardLen: 4,
				Sources: []wire.SourceRef{{Flow: 7, Seq: core.Seq(b), Receiver: hostB}, {Flow: 8, Seq: core.Seq(b), Receiver: hostB}}}
			coded = append(coded, message(wire.TypeCoded, core.ServiceCoding, 0, 0, dcB, self, 0, meta.AppendMarshal(nil, []byte("shrd"))))
		}
	}
	var hdr wire.Header
	next := 0
	cycle := func() {
		now := core.Time(next/2+1) * time.Millisecond
		for shard := 0; shard < 2; shard++ {
			body, err := wire.SplitMessage(&hdr, coded[next])
			if err != nil {
				t.Fatal(err)
			}
			c.Handle(now, &hdr, body, coded[next])
			next++
		}
		c.OnTimer(now)
	}
	for next < 2*warm {
		cycle()
	}
	if n := testing.AllocsPerRun(batches-warm-1, cycle); n != 0 {
		t.Errorf("a batch arriving as another expires allocates %v times, want 0", n)
	}
	ttl := coding.DefaultRecovererConfig().BatchTTL / core.Time(time.Millisecond)
	if st := c.Recoverer.Stats(); next != len(coded) || st.CodedStored != 2*batches || c.Recoverer.Batches() != int(ttl) {
		t.Errorf("stored %d shards, %d batches cached; want %d and %d", st.CodedStored, c.Recoverer.Batches(), 2*batches, ttl)
	}
}
