// Package dataplane is the J-QoS data plane as two sans-IO cores.
//
// Core is one data center: the forwarding, caching and CR-WAN coding
// services (§3) dispatched per message, with every egress decision —
// pinned paths, epoch-tagged make-before-break drain, multicast fan-out,
// partial-overlay loopback, a host reached through its home DC's route —
// made in one place.
//
// HostCore is the receiving side of one endpoint: a recovery engine per
// inbound flow, the one dispatch of arriving messages over them, the
// refusal to rebuild a closed flow's state, and the cap on state for flow
// IDs nobody registered.
//
// What an engine hands back — the encoder's, recoverer's and forwarder's
// []core.Emit, a receiver's recovery.Result — is that engine's own buffer,
// valid until the next call into the same engine. The cores send or deliver
// every element before calling the engine again, so an Env / HostEnv must
// not call Handle or OnTimer from Send or Deliver.
//
// A message is a per-packet region its recipient uses alone: a DC fans a
// group packet out as one copy per member, a host's receiver hands a
// delivered payload to the application as it arrived and keeps a copy of
// its own, and the engines copy what they keep into storage they recycle.
// Data regions may share a backing array (a sender allocates every copy of
// one send at once), so a holder that keeps many of them long should copy.
// What a DC consumes — coded parity, NACKs, pulls, coop and verify
// responses — travels in buffers of its own, drawn from the runtime's one
// wire.Pool by the encoder, the receivers and HostCore.Pull; Core.Handle
// hands each back to that pool once it has read it, so on a steady run
// those messages allocate nothing. Nothing else goes back: not data, whose
// bytes are the sender's, and not a message the DC relays, queues or fans
// out, whose bytes are the next hop's.
//
// Neither core owns a clock, a socket or a topology. Its runtime passes
// the time in and answers a few questions through Env / HostEnv. There
// are four runtimes: the emulator's DCNode and Host, and the UDP
// transport.Relay and transport.HostEnd — so the code that runs on real
// sockets is the code the emulator tests, and a root-level differential
// test (TestEmulatorMatchesLoopbackUDP) holds the two worlds to the same
// deliveries and engine counters.
package dataplane

import (
	"jqos/internal/cache"
	"jqos/internal/coding"
	"jqos/internal/core"
	"jqos/internal/forward"
	"jqos/internal/wire"
)

// Env is what a Core needs from the runtime hosting it.
type Env interface {
	// Linked reports whether hop can be sent to directly.
	Linked(hop core.NodeID) bool
	// Home names the DC a host or multicast group was attached to.
	Home(host core.NodeID) (core.NodeID, bool)
	// PathPolicy is the opaque key the encoder batches flow's parity
	// under (0 = default fastest path, also for unknown flows).
	PathPolicy(flow core.FlowID) uint32
	// Send puts msg on the wire toward hop. The bytes are the recipient's
	// from then on: the runtime must not modify them, nor hand them to a
	// pool — whoever consumes the message does that.
	Send(hop core.NodeID, msg []byte)
}

// Core runs all three services of one DC: a forwarder, a packet cache, a
// CR-WAN encoder (DC1 role) and a CR-WAN recoverer (DC2 role). A single
// DC plays both coding roles — which one applies depends on whether it is
// the home of the sender or of the receiver of a flow. Not safe for concurrent
// use; the host serializes Handle and OnTimer.
type Core struct {
	Forwarder *forward.Forwarder // routes, pins, groups
	Cache     *cache.Store
	Encoder   *coding.Encoder   // CR-WAN DC1 role
	Recoverer *coding.Recoverer // CR-WAN DC2 role

	self core.NodeID
	env  Env
	pool *wire.Pool // the runtime's: parity is drawn from it, consumed messages go back
	drop uint64
	meta wire.Coded // scratch for parsing coded messages; the recoverer copies what it keeps
}

// New builds the core of DC self on env. The cache is bounded by cacheTTL
// alone, and the recoverer runs coding.DefaultRecovererConfig. The encoder
// draws parity from pool, and Handle hands what the DC consumes back to it;
// a nil pool allocates every message and keeps none.
func New(self core.NodeID, env Env, enc coding.EncoderConfig, cacheTTL core.Time, pool *wire.Pool) (*Core, error) {
	e, err := coding.NewEncoder(self, enc)
	if err != nil {
		return nil, err
	}
	e.SetPool(pool)
	return &Core{
		Forwarder: forward.New(self),
		Cache:     cache.NewStore(cacheTTL, 0),
		Encoder:   e,
		Recoverer: coding.NewRecoverer(self, coding.DefaultRecovererConfig()),
		self:      self,
		env:       env,
		pool:      pool,
	}, nil
}

// Dropped counts messages the core gave up on: bodies it could not parse,
// unknown types addressed here, and sends no hop could be found for.
func (c *Core) Dropped() uint64 { return c.drop }

// NextDeadline is when OnTimer next has work: the sooner of the encoder's
// queue timeouts and the recoverer's batch and recovery deadlines. ok is
// false when neither engine holds one.
func (c *Core) NextDeadline() (core.Time, bool) {
	d1, ok1 := c.Encoder.NextDeadline()
	d2, ok2 := c.Recoverer.NextDeadline()
	if ok1 && (!ok2 || d1 < d2) {
		return d1, true
	}
	return d2, ok2
}

// OnTimer runs both engines' timers. Timer-flushed batches carry parity
// like batch-full flushes, so they leave the same way.
func (c *Core) OnTimer(now core.Time) {
	c.sendCoded(now, c.Encoder.OnTimer(now))
	c.emit(c.Recoverer.OnTimer(now))
}

// Handle dispatches one parsed message. raw is the whole datagram, which
// body is a slice of, and the caller hands both over: a message in transit
// leaves as received, and one addressed to this DC that is not data — coded
// parity once the recoverer has copied its shard, a NACK, a pull, a coop or
// verify response, or a message the DC drops — goes back to the pool, to be
// overwritten by the next message drawn from it. Data never goes back: its
// payload is copied by the cache or the encoder, and its bytes are the
// sender's.
func (c *Core) Handle(now core.Time, hdr *wire.Header, body, raw []byte) {
	// Point-to-point service messages addressed elsewhere are relayed
	// (e.g. a helper's CoopResp transiting its own DC toward DC2). Data
	// and parity decide for themselves: they cache, encode or follow a
	// pinned path on the way.
	if hdr.Dst != c.self && hdr.Type != wire.TypeData && hdr.Type != wire.TypeCoded {
		c.send(hdr.Dst, raw, path{lookup: true})
		return
	}
	switch hdr.Type {
	case wire.TypeData:
		c.onData(now, hdr, body, raw)
		return
	case wire.TypeCoded:
		if hdr.Dst != c.self {
			flow, ok := wire.PeekCodedFlow(body)
			c.send(hdr.Dst, raw, path{lookup: true, pin: ok, flow: flow, flags: hdr.Flags})
			return
		}
		c.onCoded(now, hdr, body)
	case wire.TypeNACK:
		// A loss report goes to the service it names: the cache answers
		// directly, coding goes through the recoverer.
		if hdr.Service == core.ServiceCaching {
			c.answerFromCache(now, hdr.ID(), hdr.Src)
		} else {
			c.emit(c.Recoverer.OnNACK(now, hdr.Src, hdr.ID(), hdr.Flags))
		}
	case wire.TypePull:
		c.onPull(now, hdr)
	case wire.TypeCoopResp:
		var ref wire.CoopRef
		if payload, err := ref.Unmarshal(body); err != nil {
			c.drop++
		} else {
			c.emit(c.Recoverer.OnCoopResp(now, hdr, &ref, payload))
		}
	case wire.TypeVerifyResp:
		c.emit(c.Recoverer.OnVerifyResp(now, hdr))
	default:
		c.drop++
	}
	c.pool.Put(raw) // consumed: nothing the DC keeps or sends aliases it
}

// path says how one message picks the hop it leaves on (see send).
type path struct {
	// lookup: the message is in transit toward its destination, so the
	// forwarder names (and counts) the recipients — group members, the
	// tabled next hop, or the destination itself. Unset for engine
	// emits, whose recipient the engine already chose.
	lookup bool
	// pin: flow's pinned next hop, when one is installed here, outranks
	// the shared tables (data copies and coded parity only).
	pin  bool
	flow core.FlowID
	// flags are the message's header flags: an epoch tag resolves the
	// tables under the version the packet entered the overlay with while
	// the make-before-break drain holds it live. Re-resolving a hop
	// through the CURRENT table would defeat the drain — after a reroute
	// that flips this DC's route to the old hop backward, in-flight
	// old-epoch traffic would loop between the DCs on either side of the
	// change until the epoch retires.
	flags uint16
}

// send is the one place that decides which hop a message for to leaves on:
//
//  1. The flow's pinned next hop, sent on directly — a table lookup must
//     not re-resolve it, or the shared route to that DC would defeat the
//     pin.
//  2. The pushed next-hop table under the packet's epoch tag. It names
//     DCs only: a host or group homed elsewhere takes the tagged hop
//     toward its home DC, or the home itself when the table has no
//     usable one. The table outranks a direct link: on a healthy mesh
//     both agree, but after a failure the controller has moved the route
//     off the dead link while the link still exists — so the table, not
//     link presence, decides.
//  3. A direct link to the recipient: delivery at its home DC.
//
// A message none of these place is counted in Dropped.
func (c *Core) send(to core.NodeID, msg []byte, p path) {
	if p.pin {
		if via, ok := c.Forwarder.FlowRoute(p.flow, to); ok && c.usable(via) {
			c.env.Send(via, msg)
			c.Forwarder.NotePinned(p.lookup)
			return
		}
	}
	tag, ok := wire.EpochTag(p.flags)
	if !ok {
		tag = c.Forwarder.EpochTag() // untagged: the current version
	}
	one := [1]core.Emit{{To: to, Msg: msg}}
	recipients := one[:]
	if p.lookup {
		recipients = c.Forwarder.ForwardTagged(tag, to, msg)
	}
	for _, em := range recipients {
		via, ok := c.Forwarder.RouteTagged(tag, em.To)
		if !ok {
			if home, known := c.env.Home(em.To); known && home != c.self {
				if via, ok = c.Forwarder.RouteTagged(tag, home); !ok || !c.usable(via) {
					via, ok = home, true
				}
			}
		}
		switch {
		case ok && c.usable(via):
		case c.env.Linked(em.To):
			via = em.To
		default:
			c.drop++
			continue
		}
		c.env.Send(via, em.Msg)
	}
}

func (c *Core) usable(via core.NodeID) bool {
	return via != c.self && c.env.Linked(via)
}

// emit sends engine emits (recovery traffic, cache answers) to the
// recipients the engines chose.
func (c *Core) emit(emits []core.Emit) {
	for _, em := range emits {
		c.send(em.To, em.Msg, path{})
	}
}

// sendCoded sends encoder emits. Parity addressed to this very DC — a
// partial overlay, where DC1 and DC2 are the same DC — goes into the
// recoverer without touching the network, and then back to the pool, like
// parity that arrived. The rest is pinned by its batch's first source
// flow: cross-stream batches are policy-homogeneous (the encoder keys them
// by the flow's path policy), so the first source stands in for the whole
// batch, and transit DCs use the same key, which keeps a batch on one path
// policy end to end.
func (c *Core) sendCoded(now core.Time, emits []core.Emit) {
	pins := c.Forwarder.FlowRouteCount() > 0 // none here: skip the per-packet peek
	for _, em := range emits {
		if em.To == c.self {
			var hdr wire.Header
			if body, err := wire.SplitMessage(&hdr, em.Msg); err != nil {
				c.drop++
			} else {
				c.onCoded(now, &hdr, body)
			}
			c.pool.Put(em.Msg)
			continue
		}
		var p path
		if pins {
			p.flow, p.pin = wire.PeekCodedFlow(em.Msg[wire.HeaderLen:])
		}
		c.send(em.To, em.Msg, p)
	}
}

// onData handles an application data copy.
//
//   - forwarding: relay toward the (possibly multicast) destination.
//   - caching: relay until this DC is the destination's home DC (or the
//     destination is a group homed here), then cache.
//   - coding: this DC is DC1 for the flow — feed the encoder; parity flows
//     to the receiver's DC2.
func (c *Core) onData(now core.Time, hdr *wire.Header, payload, raw []byte) {
	switch hdr.Service {
	case core.ServiceCaching:
		if c.servesDst(hdr.Dst) {
			c.Cache.Put(now, hdr.ID(), payload)
			return
		}
	case core.ServiceCoding:
		dc2, ok := c.env.Home(hdr.Dst)
		if !ok {
			c.drop++
			return
		}
		pol := c.env.PathPolicy(hdr.Flow)
		c.sendCoded(now, c.Encoder.OnDataPolicy(now, dc2, hdr.Dst, hdr.Flow, hdr.Seq, pol, payload))
		return
	}
	// Forwarding — and Internet-service data, which should never reach a
	// DC, moves on too so nothing silently vanishes. Multicast groups fan
	// out with per-member destination rewriting, so downstream DCs route
	// each copy as plain unicast (cloud multicast, Figure 3c). A member
	// copy keeps the packet's epoch tag, and its hop toward the member's
	// home resolves under it, like unicast data's.
	if !c.Forwarder.IsGroup(hdr.Dst) {
		c.send(hdr.Dst, raw, path{lookup: true, pin: true, flow: hdr.Flow, flags: hdr.Flags})
		return
	}
	for _, m := range c.Forwarder.Group(hdr.Dst) {
		if m == c.self {
			continue
		}
		msg := append([]byte(nil), raw...)
		if err := wire.RewriteDst(msg, m); err != nil {
			c.drop++
			continue
		}
		c.send(m, msg, path{flags: hdr.Flags})
	}
}

// servesDst reports whether this DC is the egress DC for dst (the DC dst
// was attached to, or a multicast group installed here).
func (c *Core) servesDst(dst core.NodeID) bool {
	if c.Forwarder.IsGroup(dst) {
		return true
	}
	home, ok := c.env.Home(dst)
	return ok && home == c.self
}

// onCoded stores a parity packet addressed here in the recoverer (DC2
// role), which copies the shard. Parity in transit moves along in Handle,
// on the pinned path of its batch's first source flow when one is
// installed.
func (c *Core) onCoded(now core.Time, hdr *wire.Header, body []byte) {
	shard, err := c.meta.Unmarshal(body)
	if err != nil {
		c.drop++
		return
	}
	c.emit(c.Recoverer.OnCoded(now, hdr, &c.meta, shard))
}

// onPull serves explicit cache pulls, including FlagDrain for the mobility
// rendezvous case: return every cached packet of the flow after Seq.
func (c *Core) onPull(now core.Time, hdr *wire.Header) {
	if hdr.Flags&wire.FlagDrain == 0 {
		c.answerFromCache(now, hdr.ID(), hdr.Src)
		return
	}
	for _, id := range c.Cache.DrainFlow(now, hdr.Flow, hdr.Seq) {
		c.answerFromCache(now, id, hdr.Src)
	}
}

// answerFromCache sends the cached packet id to host, if still held. A
// miss fails silently; the receiver's retry or give-up horizon handles it.
func (c *Core) answerFromCache(now core.Time, id core.PacketID, host core.NodeID) {
	payload, ok := c.Cache.Get(now, id)
	if !ok {
		return
	}
	resp := wire.Header{
		Type:    wire.TypePullResp,
		Service: core.ServiceCaching,
		Flow:    id.Flow,
		Seq:     id.Seq,
		TS:      now,
		Src:     c.self,
		Dst:     host,
	}
	c.send(host, wire.AppendMessage(nil, &resp, payload), path{})
}
