package coding

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

// harness builds an encoder+recoverer pair and ships parity between them.
type harness struct {
	t   *testing.T
	enc *Encoder
	rec *Recoverer
	// payloads remembers what each flow sent, keyed by packet.
	payloads map[core.PacketID][]byte
	// receivers maps flows to their receiving endpoints.
	receivers map[core.FlowID]core.NodeID
}

func newHarness(t *testing.T, cfg EncoderConfig) *harness {
	t.Helper()
	enc, err := NewEncoder(dc1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		t:         t,
		enc:       enc,
		rec:       NewRecoverer(dc2, DefaultRecovererConfig()),
		payloads:  make(map[core.PacketID][]byte),
		receivers: make(map[core.FlowID]core.NodeID),
	}
}

// send pushes a data packet through DC1 and relays parity to DC2.
func (h *harness) send(now core.Time, flow core.FlowID, seq core.Seq, receiver core.NodeID) []core.Emit {
	h.t.Helper()
	p := payloadFor(int(flow), int(seq))
	h.payloads[core.PacketID{Flow: flow, Seq: seq}] = p
	h.receivers[flow] = receiver
	var out []core.Emit
	for _, em := range h.enc.OnData(now, dc2, receiver, flow, seq, p) {
		out = append(out, h.deliverCoded(now, em)...)
	}
	return out
}

// deliverCoded feeds one encoder emit into the recoverer.
func (h *harness) deliverCoded(now core.Time, em core.Emit) []core.Emit {
	h.t.Helper()
	var hdr wire.Header
	body, err := wire.SplitMessage(&hdr, em.Msg)
	if err != nil {
		h.t.Fatal(err)
	}
	var meta wire.Coded
	shard, err := meta.Unmarshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	return h.rec.OnCoded(now, &hdr, &meta, shard)
}

// respondCoop answers every CoopReq in emits as the helpers would,
// except for receivers listed in silent (stragglers).
func (h *harness) respondCoop(now core.Time, emits []core.Emit, silent ...core.NodeID) []core.Emit {
	h.t.Helper()
	mute := map[core.NodeID]bool{}
	for _, s := range silent {
		mute[s] = true
	}
	var out []core.Emit
	// emits is the recoverer's buffer, and the answers below call into it.
	for _, em := range slices.Clone(emits) {
		var hdr wire.Header
		body, err := wire.SplitMessage(&hdr, em.Msg)
		if err != nil {
			h.t.Fatal(err)
		}
		if hdr.Type != wire.TypeCoopReq || mute[em.To] {
			continue
		}
		var ref wire.CoopRef
		if _, err := ref.Unmarshal(body); err != nil {
			h.t.Fatal(err)
		}
		payload := h.payloads[hdr.ID()]
		if payload == nil {
			h.t.Fatalf("coop req for unknown packet %v", hdr.ID())
		}
		respHdr := wire.Header{
			Type: wire.TypeCoopResp, Service: core.ServiceCoding,
			Flow: hdr.Flow, Seq: hdr.Seq, TS: now, Src: em.To, Dst: dc2,
		}
		out = append(out, h.rec.OnCoopResp(now, &respHdr, &ref, payload)...)
	}
	return out
}

// findRecovered extracts TypeRecovered deliveries from emits.
func findRecovered(t *testing.T, emits []core.Emit) map[core.PacketID][]byte {
	t.Helper()
	got := map[core.PacketID][]byte{}
	for _, em := range emits {
		var hdr wire.Header
		body, err := wire.SplitMessage(&hdr, em.Msg)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Type == wire.TypeRecovered {
			got[hdr.ID()] = body
		}
	}
	return got
}

func countType(t *testing.T, emits []core.Emit, typ wire.MsgType) int {
	t.Helper()
	n := 0
	for _, em := range emits {
		var hdr wire.Header
		if _, err := wire.SplitMessage(&hdr, em.Msg); err != nil {
			t.Fatal(err)
		}
		if hdr.Type == typ {
			n++
		}
	}
	return n
}

func crossOnlyConfig() EncoderConfig {
	cfg := testConfig()
	cfg.InBlock = 0
	return cfg
}

func TestCooperativeRecoveryEndToEnd(t *testing.T) {
	h := newHarness(t, crossOnlyConfig())
	// Four flows to four distinct receivers fill a batch.
	var coded []core.Emit
	for f := 1; f <= 4; f++ {
		coded = append(coded, h.send(0, core.FlowID(f), 1, core.NodeID(100+f))...)
	}
	if h.rec.Batches() != 1 {
		t.Fatalf("batches = %d", h.rec.Batches())
	}
	// Receiver 101 lost flow 1 seq 1 and NACKs DC2.
	want := core.PacketID{Flow: 1, Seq: 1}
	emits := h.rec.OnNACK(time.Millisecond, 101, want, 0)
	if n := countType(t, emits, wire.TypeCoopReq); n != 3 {
		t.Fatalf("coop requests = %d, want 3", n)
	}
	for _, em := range emits {
		if em.To == 101 {
			t.Error("coop request sent to the requester")
		}
	}
	// Helpers respond; with r=2 parity cached, k−2 data already suffice,
	// but full response must also work.
	final := h.respondCoop(2*time.Millisecond, emits)
	got := findRecovered(t, final)
	if !bytes.Equal(got[want], h.payloads[want]) {
		t.Fatalf("recovered %q, want %q", got[want], h.payloads[want])
	}
	st := h.rec.Stats()
	if st.CoopStarted != 1 || st.CoopRecovered != 1 || st.NACKs != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestStragglerProtection(t *testing.T) {
	// r=2 parity means the recovery tolerates one silent helper (§4.4:
	// "DC2 may only require a few of the receivers to respond").
	h := newHarness(t, crossOnlyConfig())
	for f := 1; f <= 4; f++ {
		h.send(0, core.FlowID(f), 1, core.NodeID(100+f))
	}
	want := core.PacketID{Flow: 1, Seq: 1}
	reqs := h.rec.OnNACK(time.Millisecond, 101, want, 0)
	// Receiver 103 is a straggler and never answers. k=4, parity=2:
	// 2 data + 2 parity = 4 ≥ k → recoverable.
	final := h.respondCoop(2*time.Millisecond, reqs, 103)
	got := findRecovered(t, final)
	if !bytes.Equal(got[want], h.payloads[want]) {
		t.Fatalf("straggler recovery failed: %q", got[want])
	}
	if h.rec.Stats().StragglersSaved != 1 {
		t.Errorf("stragglers saved = %d", h.rec.Stats().StragglersSaved)
	}
}

func TestTooManyStragglersFailsSilently(t *testing.T) {
	h := newHarness(t, crossOnlyConfig())
	for f := 1; f <= 4; f++ {
		h.send(0, core.FlowID(f), 1, core.NodeID(100+f))
	}
	want := core.PacketID{Flow: 1, Seq: 1}
	reqs := h.rec.OnNACK(time.Millisecond, 101, want, 0)
	// Two of three helpers silent: 1 data + 2 parity = 3 < 4.
	final := h.respondCoop(2*time.Millisecond, reqs, 103, 104)
	if len(findRecovered(t, final)) != 0 {
		t.Fatal("recovered despite too many stragglers")
	}
	// Deadline passes → silent failure accounted.
	h.rec.OnTimer(time.Second)
	if h.rec.Stats().CoopFailed != 1 {
		t.Errorf("coop failed = %d", h.rec.Stats().CoopFailed)
	}
}

func TestInStreamServedFirst(t *testing.T) {
	cfg := testConfig() // InBlock=3
	h := newHarness(t, cfg)
	// One flow fills an in-stream block (3 pkts); cross queue stays open.
	for seq := 1; seq <= 3; seq++ {
		h.send(0, 7, core.Seq(seq), 101)
	}
	want := core.PacketID{Flow: 7, Seq: 2}
	emits := h.rec.OnNACK(time.Millisecond, 101, want, 0)
	// First NACK → in-stream parity forwarded to the receiver itself.
	if n := countType(t, emits, wire.TypeCoded); n != cfg.InParity {
		t.Fatalf("in-stream parity messages = %d", n)
	}
	for _, em := range emits {
		if em.To != 101 {
			t.Errorf("parity sent to %v, want receiver", em.To)
		}
	}
	if h.rec.Stats().InStreamServed != 1 {
		t.Errorf("stats: %+v", h.rec.Stats())
	}
	// No cross batch closed yet, so a repeat NACK falls back to
	// in-stream again rather than escalating into nothing.
	again := h.rec.OnNACK(2*time.Millisecond, 101, want, 0)
	if n := countType(t, again, wire.TypeCoded); n != cfg.InParity {
		t.Errorf("repeat NACK emitted %d parity messages", n)
	}
	if h.rec.Stats().InStreamServed != 2 {
		t.Errorf("stats after repeat: %+v", h.rec.Stats())
	}
}

func TestRepeatNACKEscalatesToCoop(t *testing.T) {
	cfg := testConfig() // in-stream AND cross-stream
	cfg.K = 3
	h := newHarness(t, cfg)
	// Three flows × 3 packets: fills in-stream blocks (per flow) and
	// three cross batches.
	for seq := 1; seq <= 3; seq++ {
		for f := 1; f <= 3; f++ {
			h.send(0, core.FlowID(f), core.Seq(seq), core.NodeID(100+f))
		}
	}
	want := core.PacketID{Flow: 1, Seq: 2}
	first := h.rec.OnNACK(time.Millisecond, 101, want, 0)
	if countType(t, first, wire.TypeCoded) == 0 || countType(t, first, wire.TypeCoopReq) != 0 {
		t.Fatalf("first NACK should be in-stream only")
	}
	second := h.rec.OnNACK(2*time.Millisecond, 101, want, 0)
	if countType(t, second, wire.TypeCoopReq) == 0 {
		t.Fatal("second NACK did not escalate to cooperative recovery")
	}
	final := h.respondCoop(3*time.Millisecond, second)
	got := findRecovered(t, final)
	if !bytes.Equal(got[want], h.payloads[want]) {
		t.Fatalf("escalated recovery failed")
	}
}

func TestSpeculativeNACKVerifiedAtParityArrival(t *testing.T) {
	// A NACK flagged WantVerify (speculative timer NACK) parks silently;
	// when parity arrives, DC2 probes the receiver BEFORE undertaking
	// recovery ("DC2 first checks with the receiver", §3.4).
	h := newHarness(t, crossOnlyConfig())
	want := core.PacketID{Flow: 1, Seq: 1}
	emits := h.rec.OnNACK(0, 101, want, wire.FlagWantVerify)
	if len(emits) != 0 {
		t.Fatalf("speculative NACK emitted immediately: %d", len(emits))
	}
	var woken []core.Emit
	for f := 1; f <= 4; f++ {
		woken = append(woken, h.send(time.Millisecond, core.FlowID(f), 1, core.NodeID(100+f))...)
	}
	if n := countType(t, woken, wire.TypeVerify); n != 1 {
		t.Fatalf("verify probes at parity arrival = %d", n)
	}
	if countType(t, woken, wire.TypeCoopReq) != 0 {
		t.Fatal("recovery started before verification")
	}
	// Receiver confirms the packet is still missing → recovery runs.
	resp := wire.Header{Type: wire.TypeVerifyResp, Flags: wire.FlagStillWanted,
		Flow: want.Flow, Seq: want.Seq, Src: 101, Dst: dc2}
	reqs := h.rec.OnVerifyResp(2*time.Millisecond, &resp)
	if countType(t, reqs, wire.TypeCoopReq) == 0 {
		t.Fatal("still-wanted verification did not start recovery")
	}
	final := h.respondCoop(3*time.Millisecond, reqs)
	if got := findRecovered(t, final); !bytes.Equal(got[want], h.payloads[want]) {
		t.Fatal("verified recovery failed")
	}
	if h.rec.Stats().Verifies != 1 || h.rec.Stats().PendingMatched != 1 {
		t.Errorf("stats: %+v", h.rec.Stats())
	}
}

func TestSpuriousNACKDroppedOnVerify(t *testing.T) {
	// The direct packet arrived while the NACK was parked: the receiver
	// answers the probe with not-wanted and no recovery is pushed.
	h := newHarness(t, crossOnlyConfig())
	want := core.PacketID{Flow: 1, Seq: 1}
	h.rec.OnNACK(0, 101, want, wire.FlagWantVerify)
	var woken []core.Emit
	for f := 1; f <= 4; f++ {
		woken = append(woken, h.send(time.Millisecond, core.FlowID(f), 1, core.NodeID(100+f))...)
	}
	if countType(t, woken, wire.TypeVerify) != 1 {
		t.Fatal("no probe at parity arrival")
	}
	resp := wire.Header{Type: wire.TypeVerifyResp, Flow: want.Flow, Seq: want.Seq, Src: 101, Dst: dc2}
	if out := h.rec.OnVerifyResp(2*time.Millisecond, &resp); len(out) != 0 {
		t.Fatal("spurious NACK still triggered recovery")
	}
	// The pending entry is gone: nothing left to resurrect.
	if _, dl := h.rec.NextDeadline(); !dl {
		t.Log("no pending state left (expected)")
	}
}

func TestHardEvidenceNACKRecoversWithoutProbe(t *testing.T) {
	// Gap/pump NACKs carry no WantVerify flag: parity arrival recovers
	// immediately, no probe round trip.
	h := newHarness(t, crossOnlyConfig())
	want := core.PacketID{Flow: 1, Seq: 1}
	h.rec.OnNACK(0, 101, want, 0)
	var woken []core.Emit
	for f := 1; f <= 4; f++ {
		woken = append(woken, h.send(time.Millisecond, core.FlowID(f), 1, core.NodeID(100+f))...)
	}
	if countType(t, woken, wire.TypeVerify) != 0 {
		t.Fatal("hard-evidence NACK was probed")
	}
	if countType(t, woken, wire.TypeCoopReq) == 0 {
		t.Fatal("parked NACK not woken by parity arrival")
	}
	final := h.respondCoop(2*time.Millisecond, woken)
	if got := findRecovered(t, final); !bytes.Equal(got[want], h.payloads[want]) {
		t.Fatal("late recovery failed")
	}
}

func TestPendingNACKExpires(t *testing.T) {
	cfg := DefaultRecovererConfig()
	cfg.PendingTTL = 100 * time.Millisecond
	rec := NewRecoverer(dc2, cfg)
	rec.OnNACK(0, 101, core.PacketID{Flow: 1, Seq: 1}, 0)
	rec.OnTimer(200 * time.Millisecond)
	st := rec.Stats()
	if st.PendingExpired != 1 || st.Unrecoverable != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestBatchTTLExpiry(t *testing.T) {
	h := newHarness(t, crossOnlyConfig())
	for f := 1; f <= 4; f++ {
		h.send(0, core.FlowID(f), 1, core.NodeID(100+f))
	}
	if h.rec.Batches() != 1 {
		t.Fatal("no batch stored")
	}
	h.rec.OnTimer(DefaultRecovererConfig().BatchTTL + time.Second)
	if h.rec.Batches() != 0 {
		t.Error("batch survived TTL")
	}
	// NACK after expiry parks (nothing covers it).
	emits := h.rec.OnNACK(3*time.Second, 101, core.PacketID{Flow: 1, Seq: 1}, 0)
	if countType(t, emits, wire.TypeCoopReq) != 0 {
		t.Error("recovery from expired batch")
	}
}

func TestDuplicateAndAlienCoopRespIgnored(t *testing.T) {
	h := newHarness(t, crossOnlyConfig())
	for f := 1; f <= 4; f++ {
		h.send(0, core.FlowID(f), 1, core.NodeID(100+f))
	}
	want := core.PacketID{Flow: 1, Seq: 1}
	reqs := h.rec.OnNACK(time.Millisecond, 101, want, 0)
	// Build one legitimate response, deliver it twice, plus one naming a
	// packet outside the batch.
	var hdr wire.Header
	if _, err := wire.SplitMessage(&hdr, reqs[0].Msg); err != nil {
		t.Fatal(err)
	}
	ref := wire.CoopRef{Batch: 1, Want: want}
	respHdr := wire.Header{Type: wire.TypeCoopResp, Flow: hdr.Flow, Seq: hdr.Seq, Src: 102, Dst: dc2}
	h.rec.OnCoopResp(2*time.Millisecond, &respHdr, &ref, h.payloads[hdr.ID()])
	h.rec.OnCoopResp(2*time.Millisecond, &respHdr, &ref, h.payloads[hdr.ID()])
	alienHdr := wire.Header{Type: wire.TypeCoopResp, Flow: 99, Seq: 99, Src: 102, Dst: dc2}
	h.rec.OnCoopResp(2*time.Millisecond, &alienHdr, &ref, []byte("alien"))
	if used := h.rec.Stats().CoopRespsUsed; used != 1 {
		t.Errorf("responses used = %d, want 1", used)
	}
	// Response for an unknown recovery is ignored too.
	ghostRef := wire.CoopRef{Batch: 42, Want: want}
	if out := h.rec.OnCoopResp(2*time.Millisecond, &respHdr, &ghostRef, []byte("x")); out != nil {
		t.Error("ghost recovery produced emits")
	}
}

func TestDuplicateParityIgnored(t *testing.T) {
	h := newHarness(t, crossOnlyConfig())
	var coded []core.Emit
	for f := 1; f <= 4; f++ {
		for _, em := range h.enc.OnData(0, dc2, core.NodeID(100+f), core.FlowID(f), 1, payloadFor(f, 1)) {
			coded = append(coded, em)
			h.payloads[core.PacketID{Flow: core.FlowID(f), Seq: 1}] = payloadFor(f, 1)
		}
	}
	if len(coded) != 2 {
		t.Fatalf("coded = %d", len(coded))
	}
	h.deliverCoded(0, coded[0])
	h.deliverCoded(0, coded[0]) // duplicate shard
	h.deliverCoded(0, coded[1])
	if st := h.rec.Stats(); st.CodedStored != 2 {
		t.Errorf("stored = %d, want 2", st.CodedStored)
	}
}

func TestSingleFlowBatchActsAsDuplication(t *testing.T) {
	// A timer-flushed single-packet batch (k=1, r=2): parity alone must
	// recover the packet, no helpers needed.
	cfg := crossOnlyConfig()
	h := newHarness(t, cfg)
	h.send(0, 1, 1, 101)
	var coded []core.Emit
	for _, em := range h.enc.OnTimer(cfg.CrossTimeout) {
		coded = append(coded, h.deliverCoded(cfg.CrossTimeout, em)...)
	}
	want := core.PacketID{Flow: 1, Seq: 1}
	emits := h.rec.OnNACK(cfg.CrossTimeout+time.Millisecond, 101, want, 0)
	got := findRecovered(t, emits)
	if !bytes.Equal(got[want], h.payloads[want]) {
		t.Fatalf("k=1 recovery failed: %v", got)
	}
	if countType(t, emits, wire.TypeCoopReq) != 0 {
		t.Error("k=1 recovery asked for helpers")
	}
}

func TestConcurrentRecoveriesSameBatch(t *testing.T) {
	// Two receivers lose different packets of the same batch; both must
	// recover independently.
	h := newHarness(t, crossOnlyConfig())
	for f := 1; f <= 4; f++ {
		h.send(0, core.FlowID(f), 1, core.NodeID(100+f))
	}
	w1 := core.PacketID{Flow: 1, Seq: 1}
	w2 := core.PacketID{Flow: 2, Seq: 1}
	// Kept across later calls, so copied out of the recoverer's buffer.
	reqs1 := slices.Clone(h.rec.OnNACK(time.Millisecond, 101, w1, 0))
	reqs2 := slices.Clone(h.rec.OnNACK(time.Millisecond, 102, w2, 0))
	// A repeat NACK for an in-flight recovery must not duplicate requests.
	if emits := h.rec.OnNACK(time.Millisecond, 101, w1, 0); countType(t, emits, wire.TypeCoopReq) != 0 {
		t.Error("duplicate recovery started while in flight")
	}
	final1 := h.respondCoop(2*time.Millisecond, reqs1)
	final2 := h.respondCoop(2*time.Millisecond, reqs2)
	if got := findRecovered(t, final1); !bytes.Equal(got[w1], h.payloads[w1]) {
		t.Error("first recovery failed")
	}
	if got := findRecovered(t, final2); !bytes.Equal(got[w2], h.payloads[w2]) {
		t.Error("second recovery failed")
	}
	// Immediately after completion, a racing retry NACK is absorbed by
	// the recently-recovered memory (no duplicate cooperative round)...
	if emits := h.rec.OnNACK(3*time.Millisecond, 101, w1, 0); countType(t, emits, wire.TypeCoopReq) != 0 {
		t.Error("racing retry NACK restarted a fresh recovery")
	}
	// ...but once that window passes, a fresh NACK may restart recovery
	// (the recovered packet could itself be lost on the access path).
	after := 3*time.Millisecond + DefaultRecovererConfig().RecoveryDeadline
	if emits := h.rec.OnNACK(after, 101, w1, 0); countType(t, emits, wire.TypeCoopReq) == 0 {
		t.Error("post-window NACK ignored")
	}
}

func TestRecovererConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero TTL config did not panic")
		}
	}()
	NewRecoverer(dc2, RecovererConfig{})
}

func TestRecovererStringer(t *testing.T) {
	rec := NewRecoverer(dc2, DefaultRecovererConfig())
	if s := rec.String(); !strings.Contains(s, "0 batches") {
		t.Errorf("String = %q", s)
	}
}

func TestNextDeadlineTracksState(t *testing.T) {
	h := newHarness(t, crossOnlyConfig())
	if _, ok := h.rec.NextDeadline(); ok {
		t.Error("deadline on empty recoverer")
	}
	for f := 1; f <= 4; f++ {
		h.send(0, core.FlowID(f), 1, core.NodeID(100+f))
	}
	dl, ok := h.rec.NextDeadline()
	if !ok || dl != DefaultRecovererConfig().BatchTTL {
		t.Errorf("deadline = %v %v", dl, ok)
	}
	h.rec.OnNACK(time.Millisecond, 101, core.PacketID{Flow: 1, Seq: 1}, 0)
	dl, ok = h.rec.NextDeadline()
	if !ok || dl != time.Millisecond+DefaultRecovererConfig().RecoveryDeadline {
		t.Errorf("recovery deadline = %v", dl)
	}
}

func TestAttemptsDropWithExpiredNACK(t *testing.T) {
	// NACKs for packets no batch ever covers (parity lost, NACK after
	// BatchTTL, or forged on the socket path) park and expire; their
	// escalation counts must go with them.
	rec := NewRecoverer(dc2, DefaultRecovererConfig())
	for i := 1; i <= 1000; i++ {
		rec.OnNACK(0, 101, core.PacketID{Flow: 7, Seq: core.Seq(i)}, 0)
	}
	if len(rec.pending) != 1000 || len(rec.attempts) != 1000 {
		t.Fatalf("parked %d NACKs, %d attempts", len(rec.pending), len(rec.attempts))
	}
	rec.OnTimer(10 * time.Second)
	if len(rec.pending) != 0 || len(rec.attempts) != 0 {
		t.Errorf("after expiry: pending=%d attempts=%d, want 0 0", len(rec.pending), len(rec.attempts))
	}

	// A covered packet keeps its count until its batch expires.
	h := newHarness(t, crossOnlyConfig())
	for f := 1; f <= 4; f++ {
		h.send(0, core.FlowID(f), 1, core.NodeID(100+f))
	}
	id := core.PacketID{Flow: 1, Seq: 1}
	h.rec.OnNACK(time.Millisecond, 101, id, 0)
	h.rec.OnTimer(time.Second)
	if h.rec.attempts[id] != 1 {
		t.Errorf("covered packet's attempts = %d before its batch expired", h.rec.attempts[id])
	}
	h.rec.OnTimer(3 * time.Second)
	if len(h.rec.attempts) != 0 {
		t.Errorf("attempts outlived the batch: %v", h.rec.attempts)
	}
}

func TestSendParityInIndexOrder(t *testing.T) {
	// With InParity ≥ 2 the shards of an in-stream batch are forwarded in
	// shard-index order whatever order they arrived in, run after run.
	cfg := testConfig()
	cfg.InParity = 3
	for run := 0; run < 200; run++ {
		h := newHarness(t, cfg)
		var coded []core.Emit
		for seq := 1; seq <= cfg.InBlock; seq++ {
			p := payloadFor(1, seq)
			coded = append(coded, h.enc.OnData(0, dc2, 101, 1, core.Seq(seq), p)...)
		}
		var inStream []core.Emit
		for _, em := range coded {
			if codedMeta(t, em).Kind == wire.InStream {
				inStream = append(inStream, em)
			}
		}
		if len(inStream) != 3 {
			t.Fatalf("in-stream parity emits = %d", len(inStream))
		}
		for _, i := range []int{2, 0, 1} { // arrival order is not index order
			h.deliverCoded(0, inStream[i])
		}
		emits := h.rec.OnNACK(time.Millisecond, 101, core.PacketID{Flow: 1, Seq: 2}, 0)
		if len(emits) != 3 {
			t.Fatalf("run %d: forwarded %d shards", run, len(emits))
		}
		for i, em := range emits {
			if got := codedMeta(t, em).Index; int(got) != i {
				t.Fatalf("run %d: shard %d left in position %d", run, got, i)
			}
		}
	}
}

func codedMeta(t *testing.T, em core.Emit) wire.Coded {
	t.Helper()
	var hdr wire.Header
	body, err := wire.SplitMessage(&hdr, em.Msg)
	if err != nil {
		t.Fatal(err)
	}
	var meta wire.Coded
	if _, err := meta.Unmarshal(body); err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestOnCodedRejectsMalformed(t *testing.T) {
	srcs := []wire.SourceRef{{Flow: 1, Seq: 1, Receiver: 101}, {Flow: 2, Seq: 1, Receiver: 102}}
	hdr := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dc1, Dst: dc2}
	shard := make([]byte, 16)
	for _, tc := range []struct {
		name string
		meta wire.Coded
	}{
		{"index past R", wire.Coded{Batch: 1, Kind: wire.CrossStream, K: 2, R: 2, Index: 2, Sources: srcs}},
		{"more sources than K", wire.Coded{Batch: 1, Kind: wire.CrossStream, K: 1, R: 1, Sources: srcs}},
		{"fewer sources than K", wire.Coded{Batch: 1, Kind: wire.CrossStream, K: 3, R: 1, Sources: srcs}},
	} {
		rec := NewRecoverer(dc2, DefaultRecovererConfig())
		rec.OnCoded(0, &hdr, &tc.meta, shard)
		if rec.Batches() != 0 || rec.Stats().CodedStored != 0 {
			t.Errorf("%s: stored (%d batches)", tc.name, rec.Batches())
		}
	}

	// A later shard cannot widen the batch its first shard described.
	rec := NewRecoverer(dc2, DefaultRecovererConfig())
	rec.OnCoded(0, &hdr, &wire.Coded{Batch: 1, Kind: wire.CrossStream, K: 2, R: 1, Sources: srcs}, shard)
	rec.OnCoded(0, &hdr, &wire.Coded{Batch: 1, Kind: wire.CrossStream, K: 2, R: 3, Index: 2, Sources: srcs}, shard)
	if st := rec.Stats(); st.CodedStored != 1 {
		t.Errorf("stored %d shards of an R=1 batch", st.CodedStored)
	}

	// A shape no Reed-Solomon code has (K+R > 256) must not reach the
	// codec constructor's panic when a recovery tries to decode.
	rec = NewRecoverer(dc2, DefaultRecovererConfig())
	for idx := uint8(0); idx < 2; idx++ {
		rec.OnCoded(0, &hdr, &wire.Coded{Batch: 1, Kind: wire.CrossStream, K: 2, R: 255, Index: idx, Sources: srcs}, shard)
	}
	emits := rec.OnNACK(0, 101, core.PacketID{Flow: 1, Seq: 1}, 0)
	if n := countType(t, emits, wire.TypeRecovered); n != 0 {
		t.Errorf("decoded %d packets with an impossible code", n)
	}
}

// TestForgedShapesLeaveCodecCacheBounded: the (K, R) a recovery decodes with
// comes off the wire, and every legal pair costs a matrix build and up to
// 16 kB to keep. A flood of distinct forged shapes must leave the
// recoverer's codec cache at its bound, and an honest batch must still
// decode afterwards.
func TestForgedShapesLeaveCodecCacheBounded(t *testing.T) {
	rec := NewRecoverer(dc2, DefaultRecovererConfig())
	hdr := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dc1, Dst: dc2}
	shard := make([]byte, 16)
	for r := 1; r <= 200; r++ {
		id := core.PacketID{Flow: 1, Seq: core.Seq(r)}
		srcs := []wire.SourceRef{{Flow: id.Flow, Seq: id.Seq, Receiver: 101}}
		rec.OnCoded(0, &hdr, &wire.Coded{Batch: 1000 + uint64(r), Kind: wire.CrossStream, K: 1, R: uint8(r), ShardLen: 16, Sources: srcs}, shard)
		if n := countType(t, rec.OnNACK(0, 101, id, 0), wire.TypeRecovered); n != 1 {
			t.Fatalf("forged (1, %d) batch: %d recoveries, want 1 (the flood must reach the codec)", r, n)
		}
		if n := rec.codecs.Len(); n > rs.DecoderShapes {
			t.Fatalf("after %d forged shapes the recoverer caches %d codecs, bound %d", r, n, rs.DecoderShapes)
		}
	}
	if n := rec.codecs.Len(); n != rs.DecoderShapes {
		t.Errorf("cache holds %d codecs after the flood, want its bound %d", n, rs.DecoderShapes)
	}

	h := newHarness(t, crossOnlyConfig())
	h.rec = rec
	for f := 1; f <= 4; f++ {
		h.send(0, core.FlowID(10+f), 1, core.NodeID(110+f))
	}
	lost := core.PacketID{Flow: 11, Seq: 1}
	emits := h.respondCoop(0, rec.OnNACK(0, 111, lost, 0))
	if got := findRecovered(t, emits)[lost]; !bytes.Equal(got, h.payloads[lost]) {
		t.Errorf("honest batch after the flood recovered %q, want %q", got, h.payloads[lost])
	}
}

// cache hands r every shard of a batch, each shard the bytes of shard.
func cache(r *Recoverer, now core.Time, meta wire.Coded, shard []byte) {
	hdr := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dc1, Dst: dc2}
	meta.K, meta.ShardLen = uint8(len(meta.Sources)), uint16(len(shard))
	for meta.Index = 0; meta.Index < meta.R; meta.Index++ {
		r.OnCoded(now, &hdr, &meta, shard)
	}
}

// TestOnCodedSteadyStateAllocatesNothing: a batch arriving as an older one
// expires is copied into the expired one's state and shard buffers, so once
// BatchTTL's worth is cached an OnCoded+OnTimer cycle allocates nothing.
func TestOnCodedSteadyStateAllocatesNothing(t *testing.T) {
	r := NewRecoverer(dc2, DefaultRecovererConfig())
	hdr := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: dc1, Dst: dc2}
	srcs := []wire.SourceRef{{Flow: 1, Receiver: 101}, {Flow: 2, Receiver: 102}}
	meta := wire.Coded{Kind: wire.CrossStream, K: 2, R: 2, ShardLen: 64, Sources: srcs}
	shard := make([]byte, 64)
	cycle := func() {
		meta.Batch++
		now := core.Time(meta.Batch) * time.Millisecond
		for i := range srcs {
			srcs[i].Seq = core.Seq(meta.Batch)
		}
		for meta.Index = 0; meta.Index < meta.R; meta.Index++ {
			r.OnCoded(now, &hdr, &meta, shard)
		}
		r.OnTimer(now)
	}
	ttl := int(DefaultRecovererConfig().BatchTTL / core.Time(time.Millisecond))
	for meta.Batch < uint64(2*ttl) {
		cycle()
	}
	if n := testing.AllocsPerRun(999, cycle); n != 0 {
		t.Errorf("a batch arriving as another expires allocates %v times, want 0", n)
	}
	if st := r.Stats(); r.Batches() != ttl || st.CodedStored != 2*meta.Batch {
		t.Errorf("%d batches cached, %d shards stored; want %d and %d", r.Batches(), st.CodedStored, ttl, 2*meta.Batch)
	}
}

// TestRecoveryMessagesAllocateOnce: a message DC2 builds is one allocation,
// sized before header and body are written into it — each in-stream parity
// message a NACK is answered with, and each cooperative request.
func TestRecoveryMessagesAllocateOnce(t *testing.T) {
	skipIfAppendMakeAllocates(t)
	// A NACK for a packet only an in-stream batch covers is answered with
	// the batch's parity, however often it is repeated.
	r := NewRecoverer(dc2, DefaultRecovererConfig())
	cache(r, 0, wire.Coded{Batch: 1, Kind: wire.InStream, R: 2, Sources: []wire.SourceRef{
		{Flow: 1, Seq: 1, Receiver: 101}, {Flow: 1, Seq: 2, Receiver: 101}}}, make([]byte, 64))
	nack := func() {
		if n := countType(t, r.OnNACK(time.Millisecond, 101, core.PacketID{Flow: 1, Seq: 1}, 0), wire.TypeCoded); n != 2 {
			t.Fatalf("the NACK was answered with %d parity messages, want 2", n)
		}
	}
	if n := testing.AllocsPerRun(100, nack); n != 2 {
		t.Errorf("a NACK answered with 2 in-stream parity messages allocates %v times, want 2", n)
	}

	// A cooperative round costs its recovery state, plus one message per
	// helper it asks: a batch of four packets whose other three receivers
	// are helpers against one whose every packet is the requester's.
	round := func(helpers ...core.NodeID) (float64, uint64) {
		r := NewRecoverer(dc2, DefaultRecovererConfig())
		srcs := []wire.SourceRef{{Flow: 1, Seq: 1, Receiver: 101}}
		for i, h := range helpers {
			srcs = append(srcs, wire.SourceRef{Flow: core.FlowID(2 + i), Seq: 1, Receiver: h})
		}
		cache(r, 0, wire.Coded{Batch: 1, Kind: wire.CrossStream, R: 1, Sources: srcs}, make([]byte, 64))
		deadline := DefaultRecovererConfig().RecoveryDeadline
		var now core.Time
		n := testing.AllocsPerRun(5, func() {
			r.OnNACK(now, 101, core.PacketID{Flow: 1, Seq: 1}, 0)
			now += deadline
			r.OnTimer(now) // the round fails: too few shards
		})
		return n, r.Stats().CoopReqsSent
	}
	none, sentNone := round(101, 101, 101)
	three, sent := round(102, 103, 104)
	if sentNone != 0 || sent != 3*6 {
		t.Fatalf("rounds sent %d and %d requests, want 0 and 18", sentNone, sent)
	}
	if three-none != 3 {
		t.Errorf("asking 3 helpers allocates %v times more than asking none, want 3 (one per request)", three-none)
	}
}

// TestWarmCoopRespAllocatesNothing: a helper's packet is packed into a
// shard buffer from the spare list, and a round that ends — here at its
// deadline — gives its helpers' shards back. So once a round has ended, an
// answer that does not yet complete the next round allocates nothing.
func TestWarmCoopRespAllocatesNothing(t *testing.T) {
	r := NewRecoverer(dc2, DefaultRecovererConfig())
	payload := make([]byte, 40)
	var batch uint64
	helper := 0
	startRound := func(now core.Time) {
		batch++
		srcs := []wire.SourceRef{{Flow: 1, Seq: core.Seq(batch), Receiver: 101}}
		for i := 1; i <= 5; i++ {
			srcs = append(srcs, wire.SourceRef{Flow: core.FlowID(1 + i), Seq: core.Seq(batch), Receiver: core.NodeID(101 + i)})
		}
		cache(r, now, wire.Coded{Batch: batch, Kind: wire.CrossStream, R: 1, Sources: srcs}, make([]byte, 64))
		if n := countType(t, r.OnNACK(now, 101, core.PacketID{Flow: 1, Seq: core.Seq(batch)}, 0), wire.TypeCoopReq); n != 5 {
			t.Fatalf("batch %d: the NACK sent %d coop requests, want 5", batch, n)
		}
		helper = 0
	}
	// Four of the five helpers answer: with the one parity shard that is
	// one shard short of decoding.
	answer := func() {
		helper++
		hdr := wire.Header{Type: wire.TypeCoopResp, Service: core.ServiceCoding,
			Flow: core.FlowID(1 + helper), Seq: core.Seq(batch), Src: core.NodeID(101 + helper), Dst: dc2}
		ref := wire.CoopRef{Batch: batch, Want: core.PacketID{Flow: 1, Seq: core.Seq(batch)}}
		if emits := r.OnCoopResp(0, &hdr, &ref, payload); len(emits) != 0 {
			t.Fatalf("answer %d completed the round", helper)
		}
	}
	startRound(0)
	for i := 0; i < 4; i++ {
		answer()
	}
	deadline := DefaultRecovererConfig().RecoveryDeadline
	r.OnTimer(deadline)
	if st := r.Stats(); st.CoopFailed != 1 || len(r.spareShards) != 4 {
		t.Fatalf("after the first round's deadline: %d rounds failed, %d spare shards; want 1 and 4", st.CoopFailed, len(r.spareShards))
	}
	startRound(deadline)
	if n := testing.AllocsPerRun(3, answer); n != 0 {
		t.Errorf("an answer in a warm round allocates %v times, want 0", n)
	}
	if st := r.Stats(); st.CoopRespsUsed != 8 || len(r.spareShards) != 0 {
		t.Errorf("%d answers used, %d shards spare; want 8 and 0", st.CoopRespsUsed, len(r.spareShards))
	}
}

// TestStaleRefNeverServesRecycledBatch: batch X names packet (1, 1) and
// expires while an older, refreshed batch of flow 1 keeps X's ref in the
// flow's index. X's state is recycled for batch Y, which names (1, 2). A
// NACK for (1, 1) must find nothing — parked, then unrecoverable — and never
// be answered with Y's parity.
func TestStaleRefNeverServesRecycledBatch(t *testing.T) {
	r := NewRecoverer(dc2, DefaultRecovererConfig())
	ttl := DefaultRecovererConfig().BatchTTL
	batch := func(now core.Time, id uint64, seq core.Seq) {
		cache(r, now, wire.Coded{Batch: id, Kind: wire.InStream, R: 1,
			Sources: []wire.SourceRef{{Flow: 1, Seq: seq, Receiver: 101}}}, []byte{byte(id), 0, 0})
	}
	batch(0, 7, 100)                  // the head of flow 1's index
	batch(time.Millisecond, 1, 1)     // X
	batch(ttl/2, 7, 100)              // refreshed: outlives X
	r.OnTimer(ttl + time.Millisecond) // X expires, its ref stays behind the head
	x := r.spare[len(r.spare)-1]
	batch(ttl+2*time.Millisecond, 2, 2) // Y, in X's state
	if r.batches[2] != x {
		t.Fatal("Y was not cached in X's recycled state")
	}
	if idx := r.sources[1]; idx.Len() != 3 || idx.batches != 2 {
		t.Fatalf("flow 1's index holds %d refs, %d live; want X's stale one among 3", idx.Len(), idx.batches)
	}

	now := ttl + 3*time.Millisecond
	if emits := r.OnNACK(now, 101, core.PacketID{Flow: 1, Seq: 1}, 0); len(emits) != 0 {
		t.Fatalf("a NACK for X's packet was answered with %d messages (batch %d)", len(emits), codedMeta(t, emits[0]).Batch)
	}
	if _, parked := r.pending[core.PacketID{Flow: 1, Seq: 1}]; !parked || r.Stats().InStreamServed != 0 {
		t.Fatalf("the NACK for X's packet: parked %v, stats %+v", parked, r.Stats())
	}
	emits := r.OnNACK(now, 101, core.PacketID{Flow: 1, Seq: 2}, 0)
	if len(emits) != 1 || codedMeta(t, emits[0]).Batch != 2 {
		t.Fatalf("a NACK for Y's packet was answered with %d messages, want Y's one shard", len(emits))
	}
	r.OnTimer(now + DefaultRecovererConfig().PendingTTL)
	if st := r.Stats(); st.Unrecoverable != 1 || st.InStreamServed != 1 {
		t.Errorf("stats %+v: want X's packet unrecoverable and Y's served", st)
	}
}

// TestEmptyShardIsHeld: presence is never read off a length. A zero-length
// shard is held — a repeat is not stored again, a NACK forwards it — in
// fresh buffers, in recycled ones that held bytes and in recycled empty ones.
func TestEmptyShardIsHeld(t *testing.T) {
	r := NewRecoverer(dc2, DefaultRecovererConfig())
	ttl := DefaultRecovererConfig().BatchTTL
	check := func(now core.Time, id uint64, seq core.Seq) {
		t.Helper()
		meta := wire.Coded{Batch: id, Kind: wire.InStream, R: 2, Sources: []wire.SourceRef{{Flow: 1, Seq: seq, Receiver: 101}}}
		stored := r.Stats().CodedStored
		cache(r, now, meta, nil)
		cache(r, now, meta, nil) // each shard again
		if n := r.Stats().CodedStored - stored; n != 2 {
			t.Fatalf("batch %d: stored %d empty shards, want its 2", id, n)
		}
		emits := r.OnNACK(now, 101, core.PacketID{Flow: 1, Seq: seq}, 0)
		if len(emits) != 2 {
			t.Fatalf("batch %d: a NACK forwarded %d empty shards, want 2", id, len(emits))
		}
		for _, em := range emits {
			if meta := codedMeta(t, em); meta.ShardLen != 0 {
				t.Fatalf("batch %d: forwarded a %d-byte shard", id, meta.ShardLen)
			}
		}
	}
	check(0, 1, 1) // fresh
	cache(r, 0, wire.Coded{Batch: 2, Kind: wire.InStream, R: 2, Sources: []wire.SourceRef{{Flow: 1, Seq: 2, Receiver: 101}}}, []byte{1, 2, 3})
	r.OnTimer(ttl)
	if len(r.spare) != 2 || len(r.spareShards) != 4 {
		t.Fatalf("%d spare states, %d spare shards after both batches expired, want 2 and 4", len(r.spare), len(r.spareShards))
	}
	check(ttl, 3, 3) // batch 2's state and its 3-byte buffers
	check(ttl, 4, 4) // batch 1's
}

// TestIdleRecovererKeepsFewSpares: a thousand batches expiring with none
// arriving leave maxSpare states and maxSpare shard buffers for later
// batches; the rest are let go.
func TestIdleRecovererKeepsFewSpares(t *testing.T) {
	r := NewRecoverer(dc2, DefaultRecovererConfig())
	for i := 1; i <= 1000; i++ {
		cache(r, 0, wire.Coded{Batch: uint64(i), Kind: wire.CrossStream, R: 2, Sources: []wire.SourceRef{
			{Flow: 1, Seq: core.Seq(i), Receiver: 101}, {Flow: 2, Seq: core.Seq(i), Receiver: 102}}}, make([]byte, 64))
	}
	r.OnTimer(DefaultRecovererConfig().BatchTTL)
	if r.Batches() != 0 || len(r.sources) != 0 || len(r.spare) != maxSpare || len(r.spareShards) != maxSpare {
		t.Errorf("after every batch expired: %d batches, %d flow indexes, %d spare states, %d spare shards; want 0, 0, %d and %d",
			r.Batches(), len(r.sources), len(r.spare), len(r.spareShards), maxSpare, maxSpare)
	}
}
