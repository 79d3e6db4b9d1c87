package coding

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

const (
	dc1 core.NodeID = 1
	dc2 core.NodeID = 2
)

func testConfig() EncoderConfig {
	cfg := DefaultEncoderConfig()
	cfg.K = 4
	cfg.CrossParity = 2
	cfg.InBlock = 3
	cfg.InParity = 1
	cfg.CrossQueues = 2
	cfg.CrossTimeout = 30 * time.Millisecond
	cfg.InTimeout = 50 * time.Millisecond
	return cfg
}

func mustEncoder(t *testing.T, cfg EncoderConfig) *Encoder {
	t.Helper()
	e, err := NewEncoder(dc1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// decodeEmit parses one coded emit into (header, meta, shard).
func decodeEmit(t *testing.T, em core.Emit) (wire.Header, wire.Coded, []byte) {
	t.Helper()
	var h wire.Header
	body, err := wire.SplitMessage(&h, em.Msg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != wire.TypeCoded {
		t.Fatalf("emit type = %v", h.Type)
	}
	var c wire.Coded
	shard, err := c.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return h, c, shard
}

func payloadFor(flow, seq int) []byte {
	return []byte(fmt.Sprintf("flow-%d-seq-%d-payload", flow, seq))
}

func TestConfigValidation(t *testing.T) {
	bad := []EncoderConfig{
		{K: 0, CrossParity: 1, CrossQueues: 1, CrossTimeout: 1},
		{K: 201, CrossParity: 1, CrossQueues: 1, CrossTimeout: 1},
		{K: 4, CrossParity: 0, CrossQueues: 1, CrossTimeout: 1},
		{K: 4, CrossParity: 1, InBlock: 5, InParity: 0, CrossQueues: 1, CrossTimeout: 1, InTimeout: 1},
		{K: 4, CrossParity: 1, CrossQueues: 0, CrossTimeout: 1},
		{K: 4, CrossParity: 1, CrossQueues: 1, CrossTimeout: 0},
		{K: 4, CrossParity: 1, InBlock: 5, InParity: 1, CrossQueues: 1, CrossTimeout: 1, InTimeout: 0},
	}
	for i, cfg := range bad {
		if _, err := NewEncoder(dc1, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewEncoder(dc1, DefaultEncoderConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestAlpha(t *testing.T) {
	cfg := DefaultEncoderConfig() // r=2/6, s=1/5
	want := 2.0/6 + 1.0/5
	if a := cfg.Alpha(); a < want-1e-9 || a > want+1e-9 {
		t.Errorf("alpha = %v, want %v", a, want)
	}
	cfg.InBlock = 0
	if a := cfg.Alpha(); a != 2.0/6 {
		t.Errorf("alpha without in-stream = %v", a)
	}
}

func TestCrossBatchFillsAtK(t *testing.T) {
	cfg := testConfig()
	cfg.InBlock = 0 // cross only
	e := mustEncoder(t, cfg)
	var emits []core.Emit
	// K distinct flows, one packet each → exactly one batch of r=2.
	for f := 1; f <= cfg.K; f++ {
		emits = append(emits, e.OnData(0, dc2, core.NodeID(100+f), core.FlowID(f), 1, payloadFor(f, 1))...)
	}
	if len(emits) != cfg.CrossParity {
		t.Fatalf("emitted %d parity messages, want %d", len(emits), cfg.CrossParity)
	}
	h, meta, shard := decodeEmit(t, emits[0])
	if h.Dst != dc2 || h.Src != dc1 || h.Service != core.ServiceCoding {
		t.Errorf("header: %+v", h)
	}
	if meta.Kind != wire.CrossStream || int(meta.K) != cfg.K || int(meta.R) != cfg.CrossParity {
		t.Errorf("meta: %+v", meta)
	}
	if len(meta.Sources) != cfg.K {
		t.Fatalf("sources = %d", len(meta.Sources))
	}
	// Sources must be distinct flows with the right receivers.
	seen := map[core.FlowID]bool{}
	for _, s := range meta.Sources {
		if seen[s.Flow] {
			t.Errorf("flow %d repeated in batch", s.Flow)
		}
		seen[s.Flow] = true
		if s.Receiver != core.NodeID(100+int(s.Flow)) {
			t.Errorf("source receiver: %+v", s)
		}
	}
	if int(meta.ShardLen) != len(shard) {
		t.Errorf("shard len %d vs declared %d", len(shard), meta.ShardLen)
	}
	st := e.Stats()
	if st.CrossBatches != 1 || st.CrossCoded != 2 || st.DataPackets != uint64(cfg.K) {
		t.Errorf("stats: %+v", st)
	}
}

func TestCrossParityDecodes(t *testing.T) {
	// The parity the encoder emits must actually reconstruct a lost
	// packet: erase one source, rebuild from the other k-1 + parity.
	cfg := testConfig()
	cfg.InBlock = 0
	e := mustEncoder(t, cfg)
	payloads := map[core.FlowID][]byte{}
	var emits []core.Emit
	for f := 1; f <= cfg.K; f++ {
		p := payloadFor(f, 1)
		payloads[core.FlowID(f)] = p
		emits = append(emits, e.OnData(0, dc2, 100, core.FlowID(f), 1, p)...)
	}
	_, meta, shard0 := decodeEmit(t, emits[0])
	// Rebuild shards: lose source 2, keep the rest + parity 0.
	k := int(meta.K)
	shards := make([][]byte, k+int(meta.R))
	shardLen := int(meta.ShardLen)
	for i, src := range meta.Sources {
		if i == 2 {
			continue
		}
		buf := make([]byte, shardLen)
		if _, err := rs.Pack(payloads[src.Flow], buf); err != nil {
			t.Fatal(err)
		}
		shards[i] = buf
	}
	shards[k+int(meta.Index)] = shard0
	codec, _ := rs.NewCodec(k, int(meta.R))
	if err := codec.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Unpack(shards[2])
	if err != nil {
		t.Fatal(err)
	}
	if want := payloads[meta.Sources[2].Flow]; !bytes.Equal(got, want) {
		t.Errorf("reconstructed %q, want %q", got, want)
	}
}

func TestInStreamBlockFills(t *testing.T) {
	cfg := testConfig()
	e := mustEncoder(t, cfg)
	var inEmits []core.Emit
	for seq := 1; seq <= cfg.InBlock; seq++ {
		for _, em := range e.OnData(0, dc2, 100, 7, core.Seq(seq), payloadFor(7, seq)) {
			_, meta, _ := decodeEmit(t, em)
			if meta.Kind == wire.InStream {
				inEmits = append(inEmits, em)
			}
		}
	}
	if len(inEmits) != cfg.InParity {
		t.Fatalf("in-stream emits = %d, want %d", len(inEmits), cfg.InParity)
	}
	_, meta, _ := decodeEmit(t, inEmits[0])
	if int(meta.K) != cfg.InBlock || len(meta.Sources) != cfg.InBlock {
		t.Errorf("meta: %+v", meta)
	}
	for i, s := range meta.Sources {
		if s.Flow != 7 || int(s.Seq) != i+1 {
			t.Errorf("source %d: %+v", i, s)
		}
	}
}

func TestInStreamDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.InBlock = 0 // Skype case study: s = 0
	e := mustEncoder(t, cfg)
	for seq := 1; seq <= 20; seq++ {
		for _, em := range e.OnData(0, dc2, 100, 7, core.Seq(seq), payloadFor(7, seq)) {
			_, meta, _ := decodeEmit(t, em)
			if meta.Kind == wire.InStream {
				t.Fatal("in-stream parity with InBlock=0")
			}
		}
	}
	if e.Stats().InBatches != 0 {
		t.Error("in-stream batches counted")
	}
}

func TestSameFlowNeverSharesCrossQueue(t *testing.T) {
	// Two queues, one flow sending many packets: each queue may hold at
	// most one packet of the flow; the third packet forces eviction
	// (single-packet queue) per Algorithm 1 lines 13–19.
	cfg := testConfig()
	cfg.InBlock = 0
	cfg.CrossQueues = 2
	e := mustEncoder(t, cfg)
	var emits []core.Emit
	for seq := 1; seq <= 6; seq++ {
		emits = append(emits, e.OnData(0, dc2, 100, 7, core.Seq(seq), payloadFor(7, seq))...)
	}
	// Single flow can never fill a K=4 batch; everything is evictions.
	if len(emits) != 0 {
		t.Errorf("unexpected emits: %d", len(emits))
	}
	if e.Stats().Evicted == 0 {
		t.Error("no evictions recorded for single-flow overload")
	}
	// Verify the invariant directly on the internal queues.
	for _, set := range e.cross {
		for _, q := range set.qs {
			flows := map[core.FlowID]int{}
			for _, p := range q.pkts {
				flows[p.ref.Flow]++
				if flows[p.ref.Flow] > 1 {
					t.Fatal("queue holds two packets of one flow")
				}
			}
		}
	}
}

func TestAllQueuesHoldFlowFlushesOldest(t *testing.T) {
	// Fill both queues with ≥2 packets including flow 7 in each; the next
	// flow-7 packet must flush (not evict) the initial queue.
	cfg := testConfig()
	cfg.InBlock = 0
	cfg.CrossQueues = 2
	cfg.K = 4
	e := mustEncoder(t, cfg)
	var emits []core.Emit
	emits = append(emits, e.OnData(0, dc2, 100, 7, 1, payloadFor(7, 1))...) // q0
	emits = append(emits, e.OnData(0, dc2, 100, 8, 1, payloadFor(8, 1))...) // q? (rr for flow 8 starts at q0 → q0 has no 8 → q0)
	emits = append(emits, e.OnData(0, dc2, 100, 7, 2, payloadFor(7, 2))...) // q1
	emits = append(emits, e.OnData(0, dc2, 100, 9, 1, payloadFor(9, 1))...) // q0
	if len(emits) != 0 {
		t.Fatalf("premature emits: %d", len(emits))
	}
	// Now both queues contain flow 7 (q0: 7,8,9; q1: 7). Next flow-7
	// packet scans all queues, fails, and processes the initial queue.
	emits = e.OnData(0, dc2, 100, 7, 3, payloadFor(7, 3))
	if len(emits) != cfg.CrossParity && e.Stats().Evicted == 0 {
		t.Errorf("expected flush or eviction, emits=%d stats=%+v", len(emits), e.Stats())
	}
	if e.Stats().CrossBatches+e.Stats().Evicted == 0 {
		t.Error("neither flush nor eviction happened")
	}
}

func TestTimerFlush(t *testing.T) {
	cfg := testConfig()
	cfg.InBlock = 0
	e := mustEncoder(t, cfg)
	e.OnData(0, dc2, 100, 1, 1, payloadFor(1, 1))
	e.OnData(0, dc2, 100, 2, 1, payloadFor(2, 1))
	dl, ok := e.NextDeadline()
	if !ok || dl != cfg.CrossTimeout {
		t.Fatalf("deadline = %v %v, want %v", dl, ok, cfg.CrossTimeout)
	}
	if emits := e.OnTimer(cfg.CrossTimeout - 1); len(emits) != 0 {
		t.Errorf("early timer flushed %d", len(emits))
	}
	emits := e.OnTimer(cfg.CrossTimeout)
	if len(emits) != cfg.CrossParity {
		t.Fatalf("timer flush emitted %d", len(emits))
	}
	_, meta, _ := decodeEmit(t, emits[0])
	if int(meta.K) != 2 {
		t.Errorf("partial batch k = %d, want 2", meta.K)
	}
	if _, ok := e.NextDeadline(); ok {
		t.Error("deadline remains after flush")
	}
	if e.Stats().TimerFlushes == 0 {
		t.Error("timer flush not counted")
	}
}

func TestInStreamTimerFlush(t *testing.T) {
	cfg := testConfig()
	e := mustEncoder(t, cfg)
	e.OnData(0, dc2, 100, 7, 1, payloadFor(7, 1))
	// In queue (50ms) and cross queue (30ms) both open; earliest is cross.
	dl, ok := e.NextDeadline()
	if !ok || dl != cfg.CrossTimeout {
		t.Fatalf("deadline = %v", dl)
	}
	emits := e.OnTimer(cfg.InTimeout)
	// Cross flush (single pkt) + in flush (single pkt): both emit.
	kinds := map[wire.CodedKind]int{}
	for _, em := range emits {
		_, meta, _ := decodeEmit(t, em)
		kinds[meta.Kind]++
	}
	if kinds[wire.InStream] != cfg.InParity || kinds[wire.CrossStream] != cfg.CrossParity {
		t.Errorf("timer kinds: %v", kinds)
	}
}

// TestSimultaneousInStreamFlushesInFlowOrder: in-stream queues that expire
// in the same instant must emit their parity in ascending flow order —
// downstream, emit order decides which packet draws which link jitter, so
// a map-ordered walk makes same-seed runs diverge.
func TestSimultaneousInStreamFlushesInFlowOrder(t *testing.T) {
	cfg := testConfig()
	flows := []core.FlowID{9, 3, 7, 5}
	inStreamOrder := func(emits []core.Emit) []core.FlowID {
		var order []core.FlowID
		for _, em := range emits {
			if _, meta, _ := decodeEmit(t, em); meta.Kind == wire.InStream {
				order = append(order, meta.Sources[0].Flow)
			}
		}
		return order
	}
	want := []core.FlowID{3, 5, 7, 9}
	for i := 0; i < 50; i++ {
		for name, drain := range map[string]func(*Encoder) []core.Emit{
			"OnTimer": func(e *Encoder) []core.Emit { return e.OnTimer(cfg.InTimeout) },
			"Flush":   func(e *Encoder) []core.Emit { return e.Flush(time.Millisecond) },
		} {
			e := mustEncoder(t, cfg)
			for _, f := range flows {
				e.OnData(0, dc2, 100, f, 1, payloadFor(int(f), 1))
			}
			if got := inStreamOrder(drain(e)); !slices.Equal(got, want) {
				t.Fatalf("run %d: %s emitted in-stream parity for flows %v, want %v", i, name, got, want)
			}
		}
	}
}

func TestFlushDrainsEverything(t *testing.T) {
	cfg := testConfig()
	e := mustEncoder(t, cfg)
	e.OnData(0, dc2, 100, 1, 1, payloadFor(1, 1))
	e.OnData(0, 3, 100, 2, 1, payloadFor(2, 1)) // second DC2 group
	emits := e.Flush(time.Millisecond)
	if len(emits) == 0 {
		t.Fatal("flush emitted nothing")
	}
	if _, ok := e.NextDeadline(); ok {
		t.Error("queues remain after Flush")
	}
	// Spatial constraint: separate DC2s get separate batches.
	dsts := map[core.NodeID]bool{}
	for _, em := range emits {
		dsts[em.To] = true
	}
	if !dsts[dc2] || !dsts[3] {
		t.Errorf("flush destinations: %v", dsts)
	}
}

func TestSpatialGrouping(t *testing.T) {
	// Flows bound for different DC2s must never share a batch (§4.1).
	cfg := testConfig()
	cfg.InBlock = 0
	e := mustEncoder(t, cfg)
	var emits []core.Emit
	for f := 1; f <= cfg.K; f++ {
		d := dc2
		if f%2 == 0 {
			d = 3
		}
		emits = append(emits, e.OnData(0, d, 100, core.FlowID(f), 1, payloadFor(f, 1))...)
	}
	// Neither group reached K=4 alone (2 flows each) → no emits yet.
	if len(emits) != 0 {
		t.Fatalf("cross-DC batch leaked: %d emits", len(emits))
	}
	for _, em := range e.Flush(0) {
		hdr, meta, _ := decodeEmit(t, em)
		for _, s := range meta.Sources {
			wantDC := dc2
			if int(s.Flow)%2 == 0 {
				wantDC = 3
			}
			if hdr.Dst != wantDC {
				t.Errorf("flow %d parity sent to %v", s.Flow, hdr.Dst)
			}
		}
	}
}

func TestOverheadStat(t *testing.T) {
	cfg := testConfig()
	cfg.InBlock = 0
	e := mustEncoder(t, cfg)
	for f := 1; f <= cfg.K; f++ {
		e.OnData(0, dc2, 100, core.FlowID(f), 1, make([]byte, 512))
	}
	st := e.Stats()
	if st.Overhead() <= 0 {
		t.Error("overhead not tracked")
	}
	// r=2/4 → coded bytes ≈ half of data bytes (plus headers/meta).
	if st.Overhead() > 0.8 {
		t.Errorf("overhead = %v, unexpectedly high", st.Overhead())
	}
	if (EncoderStats{}).Overhead() != 0 {
		t.Error("zero stats overhead")
	}
}

// TestPayloadCopied: OnData copies the payload (the caller may reuse its
// buffer at once — the isolated bench driver does), and the one copy serves
// both queues: mutating the caller's buffer afterwards changes neither the
// cross-stream nor the in-stream parity.
func TestPayloadCopied(t *testing.T) {
	cfg := testConfig()
	e := mustEncoder(t, cfg)
	sent := map[core.PacketID][]byte{}
	var emits []core.Emit
	send := func(flow, seq int, payload []byte) {
		sent[core.PacketID{Flow: core.FlowID(flow), Seq: core.Seq(seq)}] = bytes.Clone(payload)
		emits = append(emits, e.OnData(0, dc2, 100, core.FlowID(flow), core.Seq(seq), payload)...)
	}
	buf := []byte("mutable payload")
	send(1, 1, buf)
	buf[0] = 'X'
	// Flows 2..K close the cross-stream batch holding flow 1's packet;
	// two more packets of flow 1 close its in-stream block.
	for f := 2; f <= cfg.K; f++ {
		send(f, 1, payloadFor(f, 1))
	}
	for seq := 2; seq <= cfg.InBlock; seq++ {
		send(1, seq, payloadFor(1, seq))
	}
	want := core.PacketID{Flow: 1, Seq: 1}
	seen := map[wire.CodedKind]bool{}
	for _, em := range emits {
		_, meta, shard := decodeEmit(t, em)
		k := int(meta.K)
		shards := make([][]byte, k+int(meta.R))
		pos := -1
		for i, src := range meta.Sources {
			id := core.PacketID{Flow: src.Flow, Seq: src.Seq}
			if id == want {
				pos = i
				continue
			}
			shards[i] = make([]byte, int(meta.ShardLen))
			if _, err := rs.Pack(sent[id], shards[i]); err != nil {
				t.Fatal(err)
			}
		}
		if pos < 0 {
			continue
		}
		// Reconstruct flow 1's first packet from this parity shard and
		// the batch's other sources.
		shards[k+int(meta.Index)] = shard
		codec, _ := rs.NewCodec(k, int(meta.R))
		if err := codec.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		got, _ := rs.Unpack(shards[pos])
		if string(got) != "mutable payload" {
			t.Errorf("%v parity %d saw the caller's later write: %q", meta.Kind, meta.Index, got)
		}
		seen[meta.Kind] = true
	}
	if !seen[wire.CrossStream] || !seen[wire.InStream] {
		t.Fatalf("flow 1's packet was checked in %v, want both queues", seen)
	}
}

// skipIfAppendMakeAllocates skips an allocation pin under the race detector,
// where append(dst, make(...)...) — which marshalling a header or coded
// metadata uses — materialises its temporary.
func skipIfAppendMakeAllocates(t *testing.T) {
	t.Helper()
	roomy, n := make([]byte, 0, 64), 40
	if testing.AllocsPerRun(10, func() { roomy = append(roomy[:0], make([]byte, n)...) }) != 0 {
		t.Skip("this build allocates for append(dst, make(...)...)")
	}
}

// TestOnDataSteadyStateAllocs pins the encoder's steady state: the payload
// copy lands in a buffer a flushed batch gave back, so an OnData that closes
// no batch allocates nothing, and each parity message of one that closes
// batches is drawn from the pool. Fed by a DC2 that hands every message
// back, as the runtimes' are, the encoder allocates nothing at all; with no
// pool, each parity message is an allocation of its own.
func TestOnDataSteadyStateAllocs(t *testing.T) {
	skipIfAppendMakeAllocates(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name string
		pool *wire.Pool
	}{{"pool fed back", new(wire.Pool)}, {"no pool", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEncoder(t, testConfig())
			e.SetPool(tc.pool)
			payload := make([]byte, 200)
			var seqs [7]core.Seq
			i, emitted := 0, 0
			next := func() {
				flow := 1 + i%6
				i++
				seqs[flow]++
				emits := e.OnData(0, dc2, 100, core.FlowID(flow), seqs[flow], payload)
				emitted = len(emits)
				for _, em := range emits {
					tc.pool.Put(em.Msg) // DC2 has read it
				}
			}
			for j := 0; j < 1000; j++ { // every batch shape, scratch buffer and pool class grown
				next()
			}
			batches := func() uint64 { st := e.Stats(); return st.InBatches + st.CrossBatches }
			var ms runtime.MemStats
			quiet, closing, multi := 0, 0, 0
			for j := 0; j < 1000; j++ {
				closed := batches()
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				next()
				runtime.ReadMemStats(&ms)
				closed = batches() - closed
				want := uint64(emitted)
				if tc.pool != nil {
					want = 0
				}
				if n := ms.Mallocs - before; n != want {
					t.Fatalf("call %d: OnData allocates %d times closing %d batches (%d parity messages), want %d", j, n, closed, emitted, want)
				}
				switch {
				case emitted == 0:
					quiet++
				case uint64(emitted) > closed:
					multi++
					fallthrough
				default:
					closing++
				}
			}
			if quiet == 0 || closing == 0 || multi == 0 {
				t.Fatalf("%d quiet calls, %d closing, %d with a batch of several parity messages: the script misses a kind", quiet, closing, multi)
			}
		})
	}
}

// TestOversizePayloadNotCoded: the coded header carries the shard length in
// 16 bits, so a payload whose packed size does not fit (> 65 533 B) cannot
// be protected. It must be turned away whole — counted, not queued — and
// never wrap ShardLen (65 534 and 65 535 B did, silently: an undecodable
// 0- or 1-byte shard) or panic the DC (65 536 B did, inside Run).
func TestOversizePayloadNotCoded(t *testing.T) {
	cfg := testConfig()
	e := mustEncoder(t, cfg)
	var emits []core.Emit
	for i, n := range []int{65534, 65535, 65536, 70000} {
		emits = append(emits, e.OnData(0, dc2, 100, core.FlowID(i+1), 1, make([]byte, n))...)
	}
	emits = append(emits, e.Flush(0)...)
	if st := e.Stats(); len(emits) != 0 || st.Oversize != 4 || st.DataPackets != 0 || st.DataBytes != 0 {
		t.Fatalf("oversize payloads produced %d emits, stats %+v", len(emits), st)
	}
	if _, open := e.NextDeadline(); open {
		t.Error("an oversize payload opened a queue")
	}

	// The largest payload that does fit is coded at full length, beside
	// ordinary packets, and decodes.
	big := make([]byte, 65533)
	rand.New(rand.NewSource(1)).Read(big)
	emits = e.OnData(0, dc2, 100, 1, 1, big)
	for f := 2; f <= cfg.K; f++ {
		emits = append(emits, e.OnData(0, dc2, 100, core.FlowID(f), 1, payloadFor(f, 1))...)
	}
	if len(emits) != cfg.CrossParity {
		t.Fatalf("emits = %d, want %d", len(emits), cfg.CrossParity)
	}
	_, meta, shard := decodeEmit(t, emits[0])
	if meta.ShardLen != 65535 || len(shard) != 65535 {
		t.Fatalf("ShardLen = %d with a %d-byte shard, want 65535", meta.ShardLen, len(shard))
	}
	shards := make([][]byte, cfg.K+cfg.CrossParity)
	for i, src := range meta.Sources[1:] {
		shards[i+1] = make([]byte, 65535)
		if _, err := rs.Pack(payloadFor(int(src.Flow), 1), shards[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	shards[cfg.K] = shard
	codec, _ := rs.NewCodec(cfg.K, cfg.CrossParity)
	if err := codec.ReconstructData(shards); err != nil {
		t.Fatal(err)
	}
	if got, _ := rs.Unpack(shards[0]); !bytes.Equal(got, big) {
		t.Error("the largest codable payload did not survive the round trip")
	}
}

// scanEncoderDeadline is the reference model for Encoder.NextDeadline:
// the scan over every queue the cached deadline replaced.
func scanEncoderDeadline(e *Encoder) (core.Time, bool) {
	var min core.Time
	found := false
	consider := func(n int, d core.Time) {
		if n > 0 && (!found || d < min) {
			min, found = d, true
		}
	}
	for _, q := range e.inQs {
		consider(len(q.pkts), q.deadline)
	}
	for _, set := range e.cross {
		for _, q := range set.qs {
			consider(len(q.pkts), q.deadline)
		}
	}
	return min, found
}

// TestCachedDeadlineMatchesScan is the differential oracle for the
// encoder's cached deadline: random data, timers at and between deadlines,
// flushes and flow teardown, the scan checked after every step. Teardown
// must also drop the flow's in-stream queue and cross-queue cursor, or
// churn through short-lived flows grows the encoder without bound.
func TestCachedDeadlineMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	cfg.K = 5
	cfg.InBlock = 4
	cfg.CrossQueues = 3
	e := mustEncoder(t, cfg)
	var now core.Time
	seq := map[core.FlowID]core.Seq{}
	check := func(step int, op string) {
		t.Helper()
		want, wantOK := scanEncoderDeadline(e)
		if got, ok := e.NextDeadline(); got != want || ok != wantOK {
			t.Fatalf("step %d after %s at %v: NextDeadline = %v %v, scan says %v %v", step, op, now, got, ok, want, wantOK)
		}
	}
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(100); {
		case r < 70:
			flow := core.FlowID(1 + rng.Intn(12))
			seq[flow]++
			dc := core.NodeID(2 + rng.Intn(2))
			e.OnDataPolicy(now, dc, 100+core.NodeID(flow), flow, seq[flow], uint32(rng.Intn(2)), payloadFor(int(flow), int(seq[flow])))
			check(step, "OnDataPolicy")
		case r < 80:
			now += core.Time(rng.Intn(20)) * time.Millisecond
		case r < 90:
			if d, ok := e.NextDeadline(); ok && d > now && rng.Intn(2) == 0 {
				now = d
			}
			emits := e.OnTimer(now)
			if d, ok := scanEncoderDeadline(e); ok && d <= now {
				t.Fatalf("step %d: OnTimer(%v) returned %d emits and left a queue due at %v", step, now, len(emits), d)
			}
			check(step, "OnTimer")
		case r < 97:
			flow := core.FlowID(1 + rng.Intn(12))
			e.ForgetFlow(flow)
			if _, ok := e.inIndex(flow); ok {
				t.Fatalf("step %d: in-stream queue of flow %d survived ForgetFlow", step, flow)
			}
			if _, ok := e.rrIdx[flow]; ok {
				t.Fatalf("step %d: cross-queue cursor of flow %d survived ForgetFlow", step, flow)
			}
			check(step, "ForgetFlow")
		default:
			e.Flush(now)
			check(step, "Flush")
		}
	}
	if st := e.Stats(); st.TimerFlushes == 0 || st.Evicted == 0 || st.CrossBatches == 0 || st.InBatches == 0 {
		t.Errorf("a path went unexercised: %+v", st)
	}
}
