// Package video models the Skype video-conferencing case study (§6.3):
// a CBR frame source (10–15 fps, 2–5 packets per frame), Skype's built-in
// per-frame FEC, and a frame-level PSNR scoring model that stands in for
// the VQMT objective quality tool. Figure 9a compares the PSNR
// distribution of a call under an Internet outage against the same call
// protected by the forwarding and coding services; what separates the
// curves is which frames survive, which this model captures.
package video

import (
	"math/rand"
	"time"

	"jqos/internal/core"
	"jqos/internal/stats"
)

// Config parameterizes a conference stream.
type Config struct {
	// FPS is the frame rate (paper: 10–15).
	FPS int
	// MinPackets/MaxPackets bound packets per frame (paper: 2–5).
	MinPackets, MaxPackets int
	// PacketSize is the payload bytes per packet.
	PacketSize int
	// FECTolerance is how many lost packets per frame Skype's own FEC
	// absorbs before the frame degrades (the paper disables J-QoS
	// in-stream coding because "Skype uses its own FEC techniques").
	FECTolerance int
	// PlayoutDeadline is how late a packet may arrive and still help
	// render its frame (interactive budget).
	PlayoutDeadline time.Duration

	// PSNR model (dB): healthy frames, partially-received frames, and
	// frozen/lost frames.
	GoodPSNR, GoodStd     float64
	PartialPSNR, PartStd  float64
	FrozenPSNR, FrozenStd float64
}

// DefaultConfig mirrors the testbed stream: 15 fps, ~0.6 Mb/s.
func DefaultConfig() Config {
	return Config{
		FPS:             15,
		MinPackets:      2,
		MaxPackets:      5,
		PacketSize:      1200,
		FECTolerance:    1,
		PlayoutDeadline: 250 * time.Millisecond,
		GoodPSNR:        42, GoodStd: 2.5,
		PartialPSNR: 29, PartStd: 3,
		FrozenPSNR: 20, FrozenStd: 1.5,
	}
}

// Frame is one generated video frame.
type Frame struct {
	ID      int
	SendAt  core.Time
	Packets int
}

// GenerateFrames produces the frame schedule for a call of the given
// duration, deterministically from rng.
func (c Config) GenerateFrames(rng *rand.Rand, duration time.Duration) []Frame {
	if c.FPS <= 0 {
		panic("video: FPS must be positive")
	}
	interval := time.Second / time.Duration(c.FPS)
	n := int(duration / interval)
	frames := make([]Frame, n)
	span := c.MaxPackets - c.MinPackets + 1
	for i := range frames {
		frames[i] = Frame{
			ID:      i,
			SendAt:  core.Time(i) * interval,
			Packets: c.MinPackets + rng.Intn(span),
		}
	}
	return frames
}

// Scorer accumulates packet arrivals and produces per-frame PSNR scores.
type Scorer struct {
	cfg     Config
	frames  []Frame
	arrived []int // on-time packets per frame
}

// NewScorer builds a scorer over a frame schedule.
func NewScorer(cfg Config, frames []Frame) *Scorer {
	return &Scorer{cfg: cfg, frames: frames, arrived: make([]int, len(frames))}
}

// OnPacket records one packet of a frame delivered at 'at' having been
// sent at 'sent'. Packets past the playout deadline are useless and
// ignored.
func (s *Scorer) OnPacket(frameID int, sent, at core.Time) {
	if frameID < 0 || frameID >= len(s.frames) {
		return
	}
	if at-sent > core.Time(s.cfg.PlayoutDeadline) {
		return
	}
	s.arrived[frameID]++
}

// FrameOutcome classifies one frame.
type FrameOutcome uint8

// Frame outcomes.
const (
	FrameGood FrameOutcome = iota
	FramePartial
	FrameFrozen
)

// Outcome classifies frame i under the FEC tolerance.
func (s *Scorer) Outcome(i int) FrameOutcome {
	need := s.frames[i].Packets - s.cfg.FECTolerance
	if need < 1 {
		need = 1
	}
	got := s.arrived[i]
	switch {
	case got >= need:
		return FrameGood
	case got > 0:
		return FramePartial
	default:
		return FrameFrozen
	}
}

// PSNRs scores every frame, drawing per-frame noise from rng. The result
// is the Figure 9a per-frame distribution.
func (s *Scorer) PSNRs(rng *rand.Rand) *stats.Sample {
	out := stats.NewSample(len(s.frames))
	for i := range s.frames {
		var mean, std float64
		switch s.Outcome(i) {
		case FrameGood:
			mean, std = s.cfg.GoodPSNR, s.cfg.GoodStd
		case FramePartial:
			mean, std = s.cfg.PartialPSNR, s.cfg.PartStd
		default:
			mean, std = s.cfg.FrozenPSNR, s.cfg.FrozenStd
		}
		v := mean + rng.NormFloat64()*std
		if v < 10 {
			v = 10
		}
		if v > 50 {
			v = 50
		}
		out.Add(v)
	}
	return out
}

// GoodFrameFraction reports the fraction of frames rendered at full
// quality — a scalar QoE headline next to the full CDF.
func (s *Scorer) GoodFrameFraction() float64 {
	if len(s.frames) == 0 {
		return 0
	}
	good := 0
	for i := range s.frames {
		if s.Outcome(i) == FrameGood {
			good++
		}
	}
	return float64(good) / float64(len(s.frames))
}
