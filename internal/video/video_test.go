package video

import (
	"math/rand"
	"testing"
	"time"

	"jqos/internal/core"
)

func TestGenerateFrames(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	frames := cfg.GenerateFrames(rng, 10*time.Second)
	if len(frames) != 150 { // 15 fps × 10 s
		t.Fatalf("frames = %d", len(frames))
	}
	for i, f := range frames {
		if f.ID != i {
			t.Fatalf("frame %d ID %d", i, f.ID)
		}
		if f.Packets < cfg.MinPackets || f.Packets > cfg.MaxPackets {
			t.Fatalf("frame %d has %d packets", i, f.Packets)
		}
		if i > 0 && f.SendAt <= frames[i-1].SendAt {
			t.Fatal("frames not time-ordered")
		}
	}
}

func TestGenerateFramesZeroFPSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FPS=0 did not panic")
		}
	}()
	Config{}.GenerateFrames(rand.New(rand.NewSource(1)), time.Second)
}

func TestBitrate(t *testing.T) {
	cfg := DefaultConfig()
	// 3.5 avg pkts × 1200 B × 8 × 15 fps = 0.504 Mb/s.
	const secs = 60
	pkts := 0
	for _, f := range cfg.GenerateFrames(rand.New(rand.NewSource(1)), secs*time.Second) {
		pkts += f.Packets
	}
	if b := float64(pkts*cfg.PacketSize*8) / secs / 1e6; b < 0.4 || b > 0.7 {
		t.Errorf("generated bitrate = %v Mb/s", b)
	}
}

func scorerWith(t *testing.T, deliverPerFrame func(f Frame) int) *Scorer {
	t.Helper()
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(2))
	frames := cfg.GenerateFrames(rng, 5*time.Second)
	sc := NewScorer(cfg, frames)
	for _, f := range frames {
		n := deliverPerFrame(f)
		for p := 0; p < n; p++ {
			sc.OnPacket(f.ID, f.SendAt, f.SendAt+10*time.Millisecond)
		}
	}
	return sc
}

func TestOutcomeClassification(t *testing.T) {
	// All packets: good. Missing one (within FEC tolerance): good.
	// Missing two: partial. Zero: frozen.
	full := scorerWith(t, func(f Frame) int { return f.Packets })
	if frac := full.GoodFrameFraction(); frac != 1 {
		t.Errorf("full delivery good fraction = %v", frac)
	}
	oneShort := scorerWith(t, func(f Frame) int { return f.Packets - 1 })
	if frac := oneShort.GoodFrameFraction(); frac != 1 {
		t.Errorf("FEC-covered fraction = %v", frac)
	}
	twoShort := scorerWith(t, func(f Frame) int {
		n := f.Packets - 2
		if n < 0 {
			n = 0
		}
		return n
	})
	if frac := twoShort.GoodFrameFraction(); frac != 0 {
		t.Errorf("two-short good fraction = %v", frac)
	}
	sawPartial, sawFrozen := false, false
	for i := range twoShort.frames {
		switch twoShort.Outcome(i) {
		case FramePartial:
			sawPartial = true
		case FrameFrozen:
			sawFrozen = true
		}
	}
	if !sawPartial || !sawFrozen {
		t.Errorf("outcome mix: partial=%v frozen=%v", sawPartial, sawFrozen)
	}
}

func TestLatePacketsIgnored(t *testing.T) {
	cfg := DefaultConfig()
	frames := []Frame{{ID: 0, SendAt: 0, Packets: 2}}
	sc := NewScorer(cfg, frames)
	late := core.Time(cfg.PlayoutDeadline) + time.Millisecond
	sc.OnPacket(0, 0, late)
	sc.OnPacket(0, 0, late)
	if sc.Outcome(0) != FrameFrozen {
		t.Error("late packets rendered the frame")
	}
	sc.OnPacket(0, 0, core.Time(cfg.PlayoutDeadline))
	if sc.Outcome(0) != FrameGood { // 1 of 2 + tolerance 1
		t.Error("on-time packet not counted")
	}
}

func TestOnPacketBounds(t *testing.T) {
	sc := NewScorer(DefaultConfig(), []Frame{{ID: 0, Packets: 2}})
	sc.OnPacket(-1, 0, 0)
	sc.OnPacket(5, 0, 0) // out of range: must not panic
}

func TestPSNRSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	good := scorerWith(t, func(f Frame) int { return f.Packets })
	frozen := scorerWith(t, func(Frame) int { return 0 })
	gs := good.PSNRs(rng)
	fs := frozen.PSNRs(rng)
	if gs.Median() < 38 || gs.Median() > 46 {
		t.Errorf("good median PSNR = %v", gs.Median())
	}
	if fs.Median() > 24 {
		t.Errorf("frozen median PSNR = %v", fs.Median())
	}
	if gs.Quantile(0.05) <= fs.Quantile(0.95) {
		t.Error("good and frozen PSNR distributions overlap heavily")
	}
	for _, v := range gs.Values() {
		if v < 10 || v > 50 {
			t.Fatalf("PSNR %v outside clamp", v)
		}
	}
}

func TestGoodFrameFractionEmpty(t *testing.T) {
	sc := NewScorer(DefaultConfig(), nil)
	if sc.GoodFrameFraction() != 0 {
		t.Error("empty scorer fraction")
	}
}
