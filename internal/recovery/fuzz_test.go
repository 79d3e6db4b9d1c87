package recovery

import (
	"bytes"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/wire"
)

// step encodes one fuzz record: advance the clock by adv milliseconds,
// then receive datagram msg.
func step(adv byte, msg []byte) []byte {
	return append([]byte{adv, byte(len(msg) >> 8), byte(len(msg))}, msg...)
}

func steps(recs ...[]byte) []byte { return bytes.Join(recs, nil) }

func fuzzMsg(typ wire.MsgType, svc core.Service, flow core.FlowID, seq core.Seq, src core.NodeID, body []byte) []byte {
	hdr := wire.Header{Type: typ, Service: svc, Flow: flow, Seq: seq, Src: src, Dst: self}
	return wire.AppendMessage(nil, &hdr, body)
}

// windowModel is what the recent window should hold: the last recentWindow
// packets delivered, oldest first, each with its payload if it was kept —
// if it arrived stamped ServiceCoding or was decoded in-stream.
type windowModel struct {
	size  int
	order []core.Seq
	kept  map[core.Seq][]byte // nil: in the window without bytes
}

func (m *windowModel) deliver(seq core.Seq, payload []byte, held bool) {
	if len(m.order) == m.size {
		delete(m.kept, m.order[0])
		m.order = m.order[1:]
	}
	m.order = append(m.order, seq)
	m.kept[seq] = nil
	if held {
		m.kept[seq] = append([]byte{}, payload...)
	}
}

// FuzzReceiver runs a sequence of datagrams and clock advances through the
// dispatch dataplane.HostCore.Handle uses, firing OnTimer at every deadline
// that comes due in between: no input may panic, everything emitted is a
// well-formed message to the configured DC or to whoever asked, every
// delivery names the receiver's flow, and a deadline never stays at or
// behind the time it was serviced at (a host re-arming on NextDeadline
// would spin). Each datagram carries the service it was stamped with, and
// a cooperative request is answered exactly when windowModel holds the
// packet's bytes, with those bytes. No packet in the window is missing.
//
// Like HostCore, it hands the receiver one flow: the one the first message
// names, in the field HostCore routes by (a parity message's first source,
// any other message's header). Headers are rewritten to that flow, and a
// parity message whose first source names another is not this receiver's;
// the rest of a batch's sources stay as written, so a batch mixing flows
// reaches the receiver.
func FuzzReceiver(f *testing.F) {
	inStream := wire.Coded{Batch: 9, Kind: wire.InStream, K: 2, R: 1, ShardLen: 8,
		Sources: []wire.SourceRef{{Flow: 1, Seq: 1, Receiver: self}, {Flow: 1, Seq: 2, Receiver: self}}}
	coopRef := wire.CoopRef{Batch: 4, Want: core.PacketID{Flow: 2, Seq: 7}}
	coding, caching := core.ServiceCoding, core.ServiceCaching
	f.Add(steps(
		step(0, fuzzMsg(wire.TypeData, coding, 1, 1, sender, pay(1))),
		step(5, fuzzMsg(wire.TypeData, coding, 1, 4, sender, pay(4))), // gap: NACKs 2 and 3
		step(1, fuzzMsg(wire.TypeCoded, coding, 0, 0, dcNode, inStream.AppendMarshal(nil, make([]byte, 8)))),
		step(10, fuzzMsg(wire.TypeRecovered, coding, 1, 3, dcNode, pay(3))),
		step(0, fuzzMsg(wire.TypePullResp, caching, 1, 2, dcNode, pay(2))),
		step(1, fuzzMsg(wire.TypeCoopReq, coding, 1, 1, dcNode, coopRef.AppendMarshal(nil, nil))),
		step(1, fuzzMsg(wire.TypeVerify, coding, 1, 9, dcNode, nil)),
		step(255, fuzzMsg(wire.TypeData, coding, 1, 5, sender, pay(5))), // after the idle timer
	))
	// A flow of every other service: its packets keep no bytes to answer.
	f.Add(steps(
		step(0, fuzzMsg(wire.TypeData, caching, 1, 1, sender, pay(1))),
		step(1, fuzzMsg(wire.TypeData, core.ServiceForwarding, 1, 2, sender, pay(2))),
		step(1, fuzzMsg(wire.TypeData, core.ServiceInternet, 1, 3, sender, nil)),
		step(1, fuzzMsg(wire.TypeData, coding, 1, 4, sender, nil)),
		step(1, fuzzMsg(wire.TypeCoopReq, coding, 1, 1, dcNode, coopRef.AppendMarshal(nil, nil))),
		step(0, fuzzMsg(wire.TypeCoopReq, coding, 1, 3, dcNode, coopRef.AppendMarshal(nil, nil))),
		step(0, fuzzMsg(wire.TypeCoopReq, coding, 1, 4, dcNode, coopRef.AppendMarshal(nil, nil))),
	))
	f.Add(step(0, []byte("not a J-QoS datagram")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := testReceiver()
		model := windowModel{size: recentWindow, kept: map[core.Seq][]byte{}}
		var now core.Time
		var flow core.FlowID
		routed := false
		// routes reports whether HostCore would hand a message naming f to
		// this receiver; the first message to ask fixes the flow.
		routes := func(f core.FlowID) bool {
			if !routed {
				flow, routed = f, true
			}
			return f == flow
		}
		// check validates one event's output; asker is who a reply may go
		// to besides the DC (0 for timer firings).
		check := func(what string, at core.Time, res Result, asker core.NodeID) {
			for _, em := range res.Emits {
				var out wire.Header
				if _, err := wire.SplitMessage(&out, em.Msg); err != nil {
					t.Fatalf("%s: emitted an unparseable message: %v", what, err)
				}
				if em.To != out.Dst || (em.To != dcNode && em.To != asker) {
					t.Fatalf("%s: %v emitted to %v (header Dst %v), want DC %v or asker %v",
						what, out.Type, em.To, out.Dst, dcNode, asker)
				}
			}
			if dl, ok := r.NextDeadline(); ok && dl <= at {
				t.Fatalf("%s at %v: NextDeadline = %v, not after it", what, at, dl)
			}
			// A delivered packet is never missing: an arrival, whichever
			// path brought it, takes its seq out of the loss table.
			for seq := range r.recent {
				if _, ok := r.missing[seq]; ok {
					t.Fatalf("%s at %v: seq %d is delivered and still missing", what, at, seq)
				}
			}
			// Nothing outlives its TTL: a half-decoded in-stream batch is
			// held for 2·RTT past its last shard and no longer.
			for batch, dec := range r.inDec {
				if what == "OnTimer" && dec.expires <= at || dec.expires > at+2*r.cfg.RTT {
					t.Fatalf("%s at %v: in-stream batch %d held until %v", what, at, batch, dec.expires)
				}
			}
		}
		for len(data) >= 3 {
			now += core.Time(data[0]) * time.Millisecond
			n := int(data[1])<<8 | int(data[2])
			data = data[3:]
			if n > len(data) {
				n = len(data)
			}
			msg := data[:n]
			data = data[n:]

			for {
				dl, ok := r.NextDeadline()
				if !ok || dl > now {
					break
				}
				check("OnTimer", dl, r.OnTimer(dl), 0)
			}

			var hdr wire.Header
			body, err := wire.SplitMessage(&hdr, msg)
			if err != nil {
				continue
			}
			if hdr.Type != wire.TypeCoded {
				routes(hdr.Flow)
				hdr.Flow = flow
			}
			var res Result
			switch hdr.Type {
			case wire.TypeData:
				res = r.OnData(now, &hdr, body)
			case wire.TypeRecovered, wire.TypePullResp:
				res = r.OnRecovered(now, &hdr, body)
			case wire.TypeCoded:
				var meta wire.Coded
				if shard, err := meta.Unmarshal(body); err == nil && len(meta.Sources) > 0 && routes(meta.Sources[0].Flow) {
					res = r.OnCoded(now, &hdr, &meta, shard)
				}
			case wire.TypeCoopReq:
				var ref wire.CoopRef
				if _, err := ref.Unmarshal(body); err == nil {
					res = r.OnCoopReq(now, &hdr, &ref)
					want, held := model.kept[hdr.Seq]
					if held = held && want != nil; held != (len(res.Emits) == 1) || len(res.Emits) > 1 {
						t.Fatalf("coop request for %v answered %d times; the window holds its bytes: %v", hdr.Seq, len(res.Emits), held)
					}
					if held {
						var out wire.Header
						respBody, _ := wire.SplitMessage(&out, res.Emits[0].Msg)
						var got wire.CoopRef
						if payload, err := got.Unmarshal(respBody); err != nil || !bytes.Equal(payload, want) {
							t.Fatalf("coop response for %v: %x (%v), want %x", hdr.Seq, payload, err, want)
						}
					}
				}
			case wire.TypeVerify:
				res = r.OnVerify(now, &hdr)
			}
			check(hdr.Type.String(), now, res, hdr.Src)
			for _, d := range res.Deliveries {
				if d.Packet.Dst != self {
					t.Fatalf("%v: delivery %+v is not addressed to this receiver", hdr.Type, d)
				}
				if d.Packet.ID.Flow != flow {
					t.Fatalf("%v: delivery of %v into a receiver of flow %v", hdr.Type, d.Packet.ID, flow)
				}
				held := hdr.Type == wire.TypeCoded || hdr.Service == core.ServiceCoding
				model.deliver(d.Packet.ID.Seq, d.Packet.Payload, held)
			}
		}
		// Left alone, the receiver runs out of deadlines — every loss given
		// up on, every partial decode dropped — in a bounded number of
		// firings, and holds nothing timed afterwards.
		for fired := 0; ; fired++ {
			dl, ok := r.NextDeadline()
			if !ok {
				break
			}
			if fired > 4*maxGap {
				t.Fatalf("still a deadline (%v) after %d firings", dl, fired)
			}
			check("OnTimer", dl, r.OnTimer(dl), 0)
		}
		if len(r.inDec) != 0 || r.OutstandingLosses() != 0 {
			t.Fatalf("with no deadline left: %d in-stream batches, %d losses still held", len(r.inDec), r.OutstandingLosses())
		}
	})
}
