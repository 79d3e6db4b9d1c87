package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"jqos/internal/core"
)

func sampleHeader() Header {
	return Header{
		Type:    TypeData,
		Flags:   FlagDup | FlagDrain,
		Service: core.ServiceCoding,
		Flow:    0xDEADBEEF01,
		Seq:     42,
		TS:      1500 * time.Millisecond,
		Src:     7,
		Dst:     9,
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	buf := make([]byte, HeaderLen)
	if n := h.Marshal(buf); n != HeaderLen {
		t.Fatalf("Marshal = %d, want %d", n, HeaderLen)
	}
	var got Header
	n, err := got.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != HeaderLen {
		t.Fatalf("Unmarshal consumed %d", n)
	}
	if got != h {
		t.Errorf("round trip: got %+v, want %+v", got, h)
	}
	if got.ID() != (core.PacketID{Flow: h.Flow, Seq: h.Seq}) {
		t.Errorf("ID() = %v", got.ID())
	}
}

func TestHeaderQuickRoundTrip(t *testing.T) {
	f := func(typ uint8, flags uint16, svc uint8, flow, seq, ts uint64, src, dst uint32) bool {
		h := Header{
			Type:    MsgType(typ),
			Flags:   flags,
			Service: core.Service(svc),
			Flow:    core.FlowID(flow),
			Seq:     core.Seq(seq),
			TS:      core.Time(ts),
			Src:     core.NodeID(src),
			Dst:     core.NodeID(dst),
		}
		buf := make([]byte, HeaderLen)
		h.Marshal(buf)
		var got Header
		if _, err := got.Unmarshal(buf); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderUnmarshalErrors(t *testing.T) {
	var h Header
	if _, err := h.Unmarshal(make([]byte, HeaderLen-1)); !errors.Is(err, ErrShort) {
		t.Errorf("short: %v", err)
	}
	buf := make([]byte, HeaderLen)
	sample := sampleHeader()
	sample.Marshal(buf)
	buf[0] = 0xFF
	if _, err := h.Unmarshal(buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}
	sample.Marshal(buf)
	buf[2] = 99
	if _, err := h.Unmarshal(buf); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
}

func TestAppendSplitMessage(t *testing.T) {
	h := sampleHeader()
	payload := []byte("the payload")
	msg := AppendMessage(nil, &h, payload)
	if len(msg) != HeaderLen+len(payload) {
		t.Fatalf("message len = %d", len(msg))
	}
	var got Header
	body, err := SplitMessage(&got, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || !bytes.Equal(body, payload) {
		t.Errorf("split: %+v %q", got, body)
	}
	// Append onto existing buffer.
	prefix := []byte{1, 2, 3}
	msg2 := AppendMessage(prefix, &h, payload)
	if !bytes.Equal(msg2[:3], prefix[:3]) || len(msg2) != 3+HeaderLen+len(payload) {
		t.Errorf("append onto prefix: len=%d", len(msg2))
	}
}

func TestMsgTypeStrings(t *testing.T) {
	types := []MsgType{TypeData, TypeCoded, TypeNACK, TypePull, TypePullResp,
		TypeCoopReq, TypeCoopResp, TypeRecovered, TypeVerify, TypeVerifyResp,
		TypeCtrl, TypeProbe, TypeProbeAck, TypeCongestion}
	seen := map[string]bool{}
	for _, typ := range types {
		s := typ.String()
		if s == "" || seen[s] {
			t.Errorf("MsgType %d string %q duplicated or empty", typ, s)
		}
		seen[s] = true
	}
	if MsgType(200).String() != "msgtype(200)" {
		t.Errorf("unknown type string: %s", MsgType(200))
	}
}

func TestCodedRoundTrip(t *testing.T) {
	c := Coded{
		Batch:    991,
		Kind:     CrossStream,
		K:        4,
		R:        2,
		Index:    1,
		ShardLen: 10,
		Sources: []SourceRef{
			{Flow: 1, Seq: 11, Receiver: 100},
			{Flow: 2, Seq: 22, Receiver: 200},
			{Flow: 3, Seq: 33, Receiver: 100},
			{Flow: 4, Seq: 44, Receiver: 300},
		},
	}
	shard := []byte("0123456789")
	buf := c.AppendMarshal(nil, shard)
	if len(buf) != c.MarshaledLen()+len(shard) {
		t.Fatalf("marshaled %d bytes, want %d", len(buf), c.MarshaledLen()+len(shard))
	}
	var got Coded
	gotShard, err := got.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotShard, shard) {
		t.Errorf("shard = %q", gotShard)
	}
	if got.Batch != c.Batch || got.Kind != c.Kind || got.K != c.K || got.R != c.R ||
		got.Index != c.Index || got.ShardLen != c.ShardLen || len(got.Sources) != 4 {
		t.Errorf("metadata: %+v", got)
	}
	for i := range c.Sources {
		if got.Sources[i] != c.Sources[i] {
			t.Errorf("source %d = %+v", i, got.Sources[i])
		}
	}
}

func TestCodedUnmarshalReusesSources(t *testing.T) {
	c := Coded{Batch: 1, K: 1, R: 1, ShardLen: 0,
		Sources: []SourceRef{{Flow: 9, Seq: 9, Receiver: 9}}}
	buf := c.AppendMarshal(nil, nil)
	got := Coded{Sources: make([]SourceRef, 0, 8)}
	keep := &got.Sources[:1][0] // capture backing array
	_ = keep
	if _, err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if cap(got.Sources) != 8 {
		t.Errorf("Sources capacity not reused: %d", cap(got.Sources))
	}
}

func TestCodedUnmarshalErrors(t *testing.T) {
	var c Coded
	if _, err := c.Unmarshal(make([]byte, 3)); !errors.Is(err, ErrShort) {
		t.Errorf("short fixed: %v", err)
	}
	good := Coded{Batch: 1, K: 2, R: 1, ShardLen: 4,
		Sources: []SourceRef{{1, 1, 1}, {2, 2, 2}}}
	buf := good.AppendMarshal(nil, []byte("abcd"))
	// Truncate inside the source list.
	if _, err := c.Unmarshal(buf[:codedFixedLen+5]); !errors.Is(err, ErrShort) {
		t.Errorf("short sources: %v", err)
	}
	// Truncate the shard.
	if _, err := c.Unmarshal(buf[:len(buf)-2]); !errors.Is(err, ErrShort) {
		t.Errorf("short shard: %v", err)
	}
	// Absurd count.
	bad := append([]byte(nil), buf...)
	bad[14], bad[15] = 0xFF, 0xFF
	if _, err := c.Unmarshal(bad); !errors.Is(err, ErrBadCount) {
		t.Errorf("bad count: %v", err)
	}
}

func TestCodedKindString(t *testing.T) {
	if CrossStream.String() != "cross-stream" || InStream.String() != "in-stream" {
		t.Error("kind strings wrong")
	}
}

func TestCoopRefRoundTrip(t *testing.T) {
	ref := CoopRef{Batch: 77, Want: core.PacketID{Flow: 5, Seq: 50}}
	payload := []byte("helper data")
	buf := ref.AppendMarshal(nil, payload)
	var got CoopRef
	body, err := got.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref || !bytes.Equal(body, payload) {
		t.Errorf("got %+v body %q", got, body)
	}
	if _, err := got.Unmarshal(buf[:10]); !errors.Is(err, ErrShort) {
		t.Errorf("short coop ref: %v", err)
	}
}

func TestMessageNesting(t *testing.T) {
	// A full coded message as DC1 would emit it: header + coded meta + shard.
	h := Header{Type: TypeCoded, Service: core.ServiceCoding, Src: 1, Dst: 2}
	c := Coded{Batch: 5, Kind: InStream, K: 5, R: 1, ShardLen: 3,
		Sources: []SourceRef{{1, 1, 9}, {1, 2, 9}, {1, 3, 9}, {1, 4, 9}, {1, 5, 9}}}
	payload := c.AppendMarshal(nil, []byte{0xA, 0xB, 0xC})
	msg := AppendMessage(nil, &h, payload)

	var gh Header
	body, err := SplitMessage(&gh, msg)
	if err != nil {
		t.Fatal(err)
	}
	if gh.Type != TypeCoded {
		t.Fatalf("type = %v", gh.Type)
	}
	var gc Coded
	shard, err := gc.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shard, []byte{0xA, 0xB, 0xC}) || gc.Kind != InStream {
		t.Errorf("nested decode: %+v shard=%v", gc, shard)
	}
}

// TestAppendGrowsOnce: each Append* sizes a nil dst for header and body
// together instead of allocating the header and regrowing for the body, and
// appends in place when dst already has the room.
func TestAppendGrowsOnce(t *testing.T) {
	h := sampleHeader()
	c := Coded{Batch: 5, K: 2, R: 1, ShardLen: 700, Sources: []SourceRef{{1, 1, 9}, {2, 1, 9}}}
	ref := CoopRef{Batch: 5, Want: core.PacketID{Flow: 1, Seq: 2}}
	body := make([]byte, 700)
	roomy := make([]byte, 0, 1024)
	var sink []byte
	// Under the race detector append(dst, make(...)...) materialises its
	// temporary, so allocation counts say nothing about the code.
	if testing.AllocsPerRun(10, func() { sink = append(roomy, make([]byte, len(body))...) }) != 0 {
		t.Skip("this build allocates for append(dst, make(...)...)")
	}
	for name, f := range map[string]func(dst []byte){
		"AppendMessage":         func(dst []byte) { sink = AppendMessage(dst, &h, body) },
		"Coded.AppendMarshal":   func(dst []byte) { sink = c.AppendMarshal(dst, body) },
		"CoopRef.AppendMarshal": func(dst []byte) { sink = ref.AppendMarshal(dst, body) },
	} {
		if n := testing.AllocsPerRun(100, func() { f(nil) }); n != 1 {
			t.Errorf("%s from a nil dst: %v allocations, want 1", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { f(roomy) }); n != 0 {
			t.Errorf("%s into a dst with room: %v allocations, want 0", name, n)
		}
	}
	_ = sink
}

func BenchmarkHeaderMarshal(b *testing.B) {
	h := sampleHeader()
	buf := make([]byte, HeaderLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Marshal(buf)
	}
}

func BenchmarkHeaderUnmarshal(b *testing.B) {
	h := sampleHeader()
	buf := make([]byte, HeaderLen)
	h.Marshal(buf)
	var got Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := got.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodedUnmarshal(b *testing.B) {
	c := Coded{Batch: 991, Kind: CrossStream, K: 6, R: 2, Index: 1, ShardLen: 512}
	for i := 0; i < 6; i++ {
		c.Sources = append(c.Sources, SourceRef{Flow: core.FlowID(i), Seq: 100, Receiver: 5})
	}
	buf := c.AppendMarshal(nil, make([]byte, 512))
	got := Coded{Sources: make([]SourceRef, 0, 16)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := got.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPeekFlow(t *testing.T) {
	h := Header{Type: TypeData, Service: core.ServiceCaching, Flow: 77,
		Seq: 9, Src: 1, Dst: 2}
	msg := AppendMessage(nil, &h, []byte("payload"))
	flow, typ, ok := PeekFlow(msg)
	if !ok || flow != 77 || typ != TypeData {
		t.Fatalf("PeekFlow = (%d, %v, %v), want (77, data, true)", flow, typ, ok)
	}
	// Agrees with the full decode.
	var back Header
	if _, err := SplitMessage(&back, msg); err != nil || back.Flow != flow {
		t.Fatalf("PeekFlow disagrees with Unmarshal: %d vs %d (%v)", flow, back.Flow, err)
	}
	// Garbage and short buffers peek as not-ok, never panic.
	if _, _, ok := PeekFlow(msg[:HeaderLen-1]); ok {
		t.Error("short buffer peeked ok")
	}
	bad := append([]byte(nil), msg...)
	bad[0] = 0xFF
	if _, _, ok := PeekFlow(bad); ok {
		t.Error("bad magic peeked ok")
	}
}

func TestCongestionRoundTrip(t *testing.T) {
	c := Congestion{LinkA: 3, LinkB: 9, Class: core.ServiceForwarding,
		State: 2, Depth: 48 << 10}
	buf := make([]byte, CongestionLen)
	if n := c.Marshal(buf); n != CongestionLen {
		t.Fatalf("Marshal wrote %d bytes", n)
	}
	var back Congestion
	if err := back.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round trip: %+v != %+v", back, c)
	}
	if err := back.Unmarshal(buf[:CongestionLen-1]); err == nil {
		t.Fatal("short body unmarshaled")
	}
}

func TestPeekCongestion(t *testing.T) {
	c := Congestion{LinkA: 5, LinkB: 6, Class: core.ServiceCaching,
		State: 1, Depth: 1234}
	body := make([]byte, CongestionLen)
	c.Marshal(body)
	h := Header{Type: TypeCongestion, Src: 5, Dst: 8}
	msg := AppendMessage(nil, &h, body)

	got, ok := PeekCongestion(msg)
	if !ok || got != c {
		t.Fatalf("PeekCongestion = (%+v, %v), want %+v", got, ok, c)
	}
	// Non-congestion messages, short buffers and garbage peek not-ok.
	if _, ok := PeekCongestion(msg[:HeaderLen+CongestionLen-1]); ok {
		t.Error("short message peeked ok")
	}
	data := AppendMessage(nil, &Header{Type: TypeData, Dst: 8}, body)
	if _, ok := PeekCongestion(data); ok {
		t.Error("data message peeked as congestion")
	}
	bad := append([]byte(nil), msg...)
	bad[0] = 0xFF
	if _, ok := PeekCongestion(bad); ok {
		t.Error("bad magic peeked ok")
	}
}
