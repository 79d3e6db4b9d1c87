package coding

import (
	"sync"
	"testing"

	"jqos/internal/core"
	"jqos/internal/wire"
)

func TestPipelineEncodesAcrossWorkers(t *testing.T) {
	cfg := crossOnlyConfig()
	var mu sync.Mutex
	var emitted []core.Emit
	p, err := NewPipeline(dc1, cfg, 4, 64, func(es []core.Emit) {
		mu.Lock()
		emitted = append(emitted, es...)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.workers) != 4 {
		t.Fatalf("workers = %d", len(p.workers))
	}
	// 32 flows × 8 packets; flows pin to workers by ID.
	for seq := 1; seq <= 8; seq++ {
		for f := 1; f <= 32; f++ {
			p.Submit(0, dc2, core.NodeID(100+f), core.FlowID(f), core.Seq(seq), payloadFor(f, seq))
		}
	}
	p.Close()
	if coded := codedSources(t, emitted); len(coded) != 32*8 {
		t.Errorf("%d distinct packets coded, want every one of %d", len(coded), 32*8)
	}
	// Flow pinning: every batch must contain flows from one worker only
	// (flow mod workers is constant within a batch).
	for _, em := range emitted {
		meta := decodeCoded(t, em)
		w := uint64(meta.Sources[0].Flow) % 4
		for _, s := range meta.Sources {
			if uint64(s.Flow)%4 != w {
				t.Fatalf("batch mixes workers: %+v", meta.Sources)
			}
		}
	}
}

func decodeCoded(t *testing.T, em core.Emit) wire.Coded {
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
	if len(meta.Sources) == 0 {
		t.Fatal("empty batch")
	}
	return meta
}

// codedSources is the set of packets the coded messages in emits protect.
func codedSources(t *testing.T, emits []core.Emit) map[core.PacketID]bool {
	t.Helper()
	coded := map[core.PacketID]bool{}
	for _, em := range emits {
		for _, s := range decodeCoded(t, em).Sources {
			coded[core.PacketID{Flow: s.Flow, Seq: s.Seq}] = true
		}
	}
	return coded
}

func TestPipelineZeroWorkersClamped(t *testing.T) {
	var emitted []core.Emit
	p, err := NewPipeline(dc1, crossOnlyConfig(), 0, 0, func(es []core.Emit) { emitted = append(emitted, es...) })
	if err != nil {
		t.Fatal(err)
	}
	if len(p.workers) != 1 {
		t.Errorf("workers = %d", len(p.workers))
	}
	p.Submit(0, dc2, 100, 1, 1, []byte("x"))
	p.Close()
	if coded := codedSources(t, emitted); len(coded) != 1 || !coded[core.PacketID{Flow: 1, Seq: 1}] {
		t.Errorf("Close coded %v, want the one packet", coded)
	}
}

func TestPipelineBadConfig(t *testing.T) {
	if _, err := NewPipeline(dc1, EncoderConfig{}, 2, 8, nil); err == nil {
		t.Error("bad config accepted")
	}
}

func TestPipelineFlushOnClose(t *testing.T) {
	// Packets that never fill a batch must still be encoded at Close.
	var mu sync.Mutex
	count := 0
	p, err := NewPipeline(dc1, crossOnlyConfig(), 2, 8, func(es []core.Emit) {
		mu.Lock()
		count += len(es)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Submit(0, dc2, 100, 1, 1, []byte("lonely"))
	p.Close()
	if count == 0 {
		t.Error("open batch not flushed on Close")
	}
}
