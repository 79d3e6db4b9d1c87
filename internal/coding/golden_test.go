package coding

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"

	"jqos/internal/core"
)

// goldenEncoderHash is the SHA-256 over every emit (destination, length,
// bytes, in order) of the script below, computed at the commit before the
// byte path was rewritten (PR 19, 1d9a079). The rewrite promised "same
// bytes out"; a kernel, packing or marshalling change that moves one byte
// of one coded packet changes this hash.
const goldenEncoderHash = "87356b6eef3e29ec7e29212210c27d5fed76601785d04f6fa7b90c32525c3414"

// TestEncoderGoldenBytes drives a fixed 1 000-packet script through the
// encoder with its default configuration: 8 flows over two egress DCs and
// two path policies, payloads of 0–1 400 B (0, 1, 7, 8, 9 and the MTU
// among them), same-flow bursts that trip the all-queues-hold-this-flow
// eviction, clock jumps past both timeouts, ForgetFlow, and a final Flush.
func TestEncoderGoldenBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	e := mustEncoder(t, DefaultEncoderConfig())
	h := sha256.New()
	emitted := 0
	var batchK [7]int // coded packets seen per batch size
	sink := func(emits []core.Emit) {
		for _, em := range emits {
			_, meta, _ := decodeEmit(t, em)
			batchK[meta.K]++
			var pre [12]byte
			binary.BigEndian.PutUint32(pre[0:], uint32(em.To))
			binary.BigEndian.PutUint64(pre[4:], uint64(len(em.Msg)))
			h.Write(pre[:])
			h.Write(em.Msg)
			emitted++
		}
	}
	sizes := []int{0, 1, 7, 8, 9, 64, 200, 1399, 1400}
	var now core.Time
	seq := map[core.FlowID]core.Seq{}
	send := func(flow core.FlowID) {
		seq[flow]++
		n := rng.Intn(1401)
		if rng.Intn(4) == 0 {
			n = sizes[rng.Intn(len(sizes))]
		}
		payload := make([]byte, n)
		rng.Read(payload)
		// Flows 1–6 share one batch key (full K=6 batches); 7 and 8 leave
		// by another DC on two path policies.
		dc, policy := core.NodeID(2), uint32(0)
		if flow > 6 {
			dc, policy = 3, uint32(flow-7)
		}
		sink(e.OnDataPolicy(now, dc, 100+core.NodeID(flow), flow, seq[flow], policy, payload))
	}
	for sent := 0; sent < 1000; {
		switch r := rng.Intn(100); {
		case r < 88:
			send(core.FlowID(1 + rng.Intn(8)))
			sent++
			now += core.Time(rng.Intn(400)) * time.Microsecond
		case r < 91:
			// A lone flow bursting fills every cross queue with itself.
			flow := core.FlowID(1 + rng.Intn(8))
			for i := 0; i < 6 && sent < 1000; i++ {
				send(flow)
				sent++
			}
		case r < 95:
			now += core.Time(rng.Intn(60)) * time.Millisecond
			sink(e.OnTimer(now))
		case r < 98:
			if d, ok := e.NextDeadline(); ok {
				now = d
				sink(e.OnTimer(now))
			}
		default:
			e.ForgetFlow(core.FlowID(1 + rng.Intn(8)))
		}
	}
	sink(e.Flush(now))

	st := e.Stats()
	if st.DataPackets != 1000 || st.TimerFlushes == 0 || st.Evicted == 0 || st.CrossBatches == 0 || st.InBatches == 0 {
		t.Fatalf("script left a path unexercised: %+v", st)
	}
	if want := int(st.CrossCoded + st.InCoded); emitted != want {
		t.Fatalf("emitted %d coded packets, stats say %d", emitted, want)
	}
	for k := 1; k <= 6; k++ {
		if batchK[k] == 0 {
			t.Fatalf("no batch of %d sources: %v", k, batchK)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenEncoderHash {
		t.Errorf("encoder output hash = %s, want %s (%d coded packets, %+v)", got, goldenEncoderHash, emitted, st)
	}
}
