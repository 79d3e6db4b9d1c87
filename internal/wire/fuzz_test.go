package wire

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"jqos/internal/core"
)

// FuzzWire feeds untrusted bytes to every decoder a socket runtime runs on
// a datagram: SplitMessage and the Peek* fast paths on the whole input, and
// the body decoders (Coded, CoopRef, Congestion, PeekCodedFlow) on the
// input and on the body behind a header that decodes. No input may panic;
// whatever decodes must come back the same through encode and decode; and
// each Peek* must agree with the full decode wherever both succeed. The
// in-place rewriters run on a copy: RewriteDst and RewriteFlags change
// only their field of a header that decodes, an epoch written through
// RewriteFlags reads back as its 2-bit tag, and an input too short for a
// header is refused with ErrShort and left as it was.
func FuzzWire(f *testing.F) {
	coded := Coded{Batch: 7, Kind: InStream, K: 2, R: 1, ShardLen: 4,
		Sources: []SourceRef{{Flow: 3, Seq: 1, Receiver: 9}, {Flow: 3, Seq: 2, Receiver: 9}}}
	coop := CoopRef{Batch: 7, Want: core.PacketID{Flow: 3, Seq: 2}}
	cong := make([]byte, CongestionLen)
	(&Congestion{LinkA: 1, LinkB: 2, Class: core.ServiceCaching, State: 2, Depth: 4096}).Marshal(cong)
	data := Header{Type: TypeData, Flags: FlagTraced | EpochFlags(2), Service: core.ServiceCoding, Flow: 3, Seq: 2, Src: 1, Dst: 9}
	f.Add(AppendMessage(nil, &data, []byte("payload")))
	f.Add(AppendMessage(nil, &Header{Type: TypeCoded, Service: core.ServiceCoding}, coded.AppendMarshal(nil, []byte{1, 2, 3, 4})))
	f.Add(AppendMessage(nil, &Header{Type: TypeCoopResp, Service: core.ServiceCoding, Flow: 3, Seq: 2}, coop.AppendMarshal(nil, []byte("helper"))))
	f.Add(AppendMessage(nil, &Header{Type: TypeCongestion, Src: 2, Dst: 1}, cong))
	f.Add(coded.AppendMarshal(nil, []byte{1, 2, 3, 4})[:codedFixedLen+sourceRefLen]) // sources claimed past the end
	f.Add([]byte("not a J-QoS datagram"))

	f.Fuzz(func(t *testing.T, msg []byte) {
		var h Header
		body, err := SplitMessage(&h, msg)
		svc, svcOK := PeekService(msg)
		flow, typ, flowOK := PeekFlow(msg)
		id, traceOK := PeekTrace(msg)
		c, congOK := PeekCongestion(msg)
		if err != nil {
			if svcOK || flowOK || traceOK || congOK {
				t.Fatalf("header does not decode (%v) but a peek succeeds: service %v flow %v trace %v congestion %v", err, svcOK, flowOK, traceOK, congOK)
			}
		} else {
			var back Header
			again, err := SplitMessage(&back, AppendMessage(nil, &h, body))
			if err != nil || back != h || !bytes.Equal(again, body) {
				t.Fatalf("header %+v with %d body bytes came back as %+v with %d (%v)", h, len(body), back, len(again), err)
			}
			if svcOK != (h.Service <= core.ServiceForwarding) || svcOK && svc != h.Service {
				t.Fatalf("PeekService = %v %v, header says %v", svc, svcOK, h.Service)
			}
			if !flowOK || flow != h.Flow || typ != h.Type {
				t.Fatalf("PeekFlow = %v %v %v, header says %v %v", flow, typ, flowOK, h.Flow, h.Type)
			}
			if want := h.Type == TypeData && h.Flags&FlagTraced != 0; traceOK != want || traceOK && id != h.ID() {
				t.Fatalf("PeekTrace = %v %v for a %v with flags %#x", id, traceOK, h.Type, h.Flags)
			}
			var full Congestion
			if want := h.Type == TypeCongestion && full.Unmarshal(body) == nil; congOK != want || congOK && c != full {
				t.Fatalf("PeekCongestion = %+v %v, body decodes to %+v (%v)", c, congOK, full, want)
			}
			tag, ok := EpochTag(h.Flags)
			if ok != (h.Flags&FlagEpochValid != 0) || ok && EpochFlags(uint64(tag)) != h.Flags&(FlagEpochValid|epochMask) {
				t.Fatalf("EpochTag(%#x) = %d %v", h.Flags, tag, ok)
			}
			checkRewrites(t, msg, h)
		}
		if len(msg) < HeaderLen {
			cp := slices.Clone(msg)
			if err := RewriteDst(cp, 1); !errors.Is(err, ErrShort) {
				t.Fatalf("RewriteDst on %d bytes: %v", len(msg), err)
			}
			if err := RewriteFlags(cp, FlagTraced); !errors.Is(err, ErrShort) {
				t.Fatalf("RewriteFlags on %d bytes: %v", len(msg), err)
			}
			if !bytes.Equal(cp, msg) {
				t.Fatalf("a refused rewrite changed the input: %x became %x", msg, cp)
			}
		}
		for _, b := range [][]byte{msg, body} {
			checkCoded(t, b)
			checkCoopRef(t, b)
			checkCongestion(t, b)
		}
	})
}

// checkRewrites rewrites Dst, then Flags with an epoch taken from the
// header's Seq, on a copy of msg, whose header h decodes; after each the
// copy must decode to h with only that field changed and the bytes behind
// the header untouched.
func checkRewrites(t *testing.T, msg []byte, h Header) {
	cp := slices.Clone(msg)
	check := func(what string, want Header) Header {
		t.Helper()
		var got Header
		if _, err := SplitMessage(&got, cp); err != nil || got != want || !bytes.Equal(cp[HeaderLen:], msg[HeaderLen:]) {
			t.Fatalf("%s: header %+v decodes as %+v (%v), body kept %v", what, want, got, err, bytes.Equal(cp[HeaderLen:], msg[HeaderLen:]))
		}
		return got
	}
	want := h
	want.Dst = ^h.Dst
	if err := RewriteDst(cp, want.Dst); err != nil {
		t.Fatalf("RewriteDst: %v", err)
	}
	check("RewriteDst", want)
	e := uint64(h.Seq)
	want.Flags = h.Flags&^(FlagEpochValid|epochMask) | EpochFlags(e)
	if err := RewriteFlags(cp, want.Flags); err != nil {
		t.Fatalf("RewriteFlags: %v", err)
	}
	got := check("RewriteFlags", want)
	if tag, ok := EpochTag(got.Flags); !ok || uint64(tag) != e&3 {
		t.Fatalf("epoch %d reads back as tag %d %v", e, tag, ok)
	}
}

func checkCoded(t *testing.T, b []byte) {
	var c Coded
	shard, err := c.Unmarshal(b)
	flow, peekOK := PeekCodedFlow(b)
	if err != nil {
		return
	}
	if peekOK != (len(c.Sources) > 0) || peekOK && flow != c.Sources[0].Flow {
		t.Fatalf("PeekCodedFlow = %v %v, metadata names %d sources", flow, peekOK, len(c.Sources))
	}
	var back Coded
	again, err := back.Unmarshal(c.AppendMarshal(nil, shard))
	if err != nil || !sameCoded(back, c) || !bytes.Equal(again, shard) {
		t.Fatalf("coded %+v came back as %+v (%v)", c, back, err)
	}
}

func sameCoded(a, b Coded) bool {
	return a.Batch == b.Batch && a.Kind == b.Kind && a.K == b.K && a.R == b.R &&
		a.Index == b.Index && a.ShardLen == b.ShardLen && slices.Equal(a.Sources, b.Sources)
}

func checkCoopRef(t *testing.T, b []byte) {
	var c CoopRef
	payload, err := c.Unmarshal(b)
	if err != nil {
		return
	}
	var back CoopRef
	again, err := back.Unmarshal(c.AppendMarshal(nil, payload))
	if err != nil || back != c || !bytes.Equal(again, payload) {
		t.Fatalf("coop ref %+v came back as %+v (%v)", c, back, err)
	}
}

func checkCongestion(t *testing.T, b []byte) {
	var c Congestion
	if c.Unmarshal(b) != nil {
		return
	}
	buf := make([]byte, CongestionLen)
	c.Marshal(buf)
	var back Congestion
	if err := back.Unmarshal(buf); err != nil || back != c {
		t.Fatalf("congestion %+v came back as %+v (%v)", c, back, err)
	}
}
