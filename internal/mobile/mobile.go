// Package mobile models the cellular-access case study (§6.5): LTE uplink
// capacity against stream duplication, battery-drain accounting, and the
// cellular latency distributions the paper measured toward the three major
// cloud providers. The paper's findings are thresholds (does 2× the stream
// fit the uplink? is the battery delta measurable? are DC RTTs low
// enough?), which these models expose directly.
package mobile

import (
	"math/rand"
	"time"

	"jqos/internal/stats"
)

// Uplink models an LTE uplink.
type Uplink struct {
	// Mbps is the available uplink bandwidth (paper survey: 2–5 Mb/s
	// for major US carriers).
	Mbps float64
}

// SampleUplink draws a carrier uplink from the survey range.
func SampleUplink(rng *rand.Rand) Uplink {
	return Uplink{Mbps: 2 + rng.Float64()*3}
}

// FitsDuplication reports whether duplicating a stream of streamMbps
// (i.e. carrying 2× its rate) fits the uplink.
func (u Uplink) FitsDuplication(streamMbps float64) bool {
	return 2*streamMbps <= u.Mbps
}

// Energy models battery drain for a video call. The paper measured ~20 mAh
// per 20-minute call with or without duplication — radio power is dominated
// by being active, not by the marginal bytes.
type Energy struct {
	// BaseMAhPerMin is drain while on a call.
	BaseMAhPerMin float64
	// PerMbpsMAhPerMin is the marginal drain per Mb/s transmitted.
	PerMbpsMAhPerMin float64
}

// DefaultEnergy calibrates to the paper's 20 mAh / 20 min observation.
func DefaultEnergy() Energy {
	return Energy{BaseMAhPerMin: 0.93, PerMbpsMAhPerMin: 0.045}
}

// Drain returns mAh consumed by a call of the given duration carrying
// txMbps of uplink traffic.
func (e Energy) Drain(d time.Duration, txMbps float64) float64 {
	min := d.Minutes()
	return min * (e.BaseMAhPerMin + e.PerMbpsMAhPerMin*txMbps)
}

// Provider labels the surveyed cloud providers.
type Provider string

// Surveyed providers.
const (
	Amazon    Provider = "amazon"
	Microsoft Provider = "microsoft"
	Google    Provider = "google"
)

// Providers lists all surveyed providers.
var Providers = []Provider{Amazon, Microsoft, Google}

// PingCloud synthesizes n RTT samples (in ms) from an LTE device to a
// provider's nearest DC, matching the paper's measurement: medians of
// 50–60 ms with a 50–100 ms body through the 90th percentile, plus an
// occasional jitter tail.
func PingCloud(rng *rand.Rand, p Provider, n int) *stats.Sample {
	// Small per-provider offsets keep the three curves distinct.
	base := map[Provider]float64{Amazon: 50, Microsoft: 54, Google: 57}[p]
	s := stats.NewSample(n)
	for i := 0; i < n; i++ {
		v := base + rng.ExpFloat64()*14
		if rng.Float64() < 0.05 { // cellular jitter spikes
			v += 40 + rng.ExpFloat64()*60
		}
		s.Add(v)
	}
	return s
}

// RecoveryFeasible reports whether CR-WAN cooperative recovery fits an
// application latency budget from a mobile receiver: detection plus two
// cloud round trips (NACK→DC and coop exchange) must fit.
func RecoveryFeasible(cloudRTTms float64, detect time.Duration, budget time.Duration) bool {
	total := detect + time.Duration(2*cloudRTTms*float64(time.Millisecond))
	return total <= budget
}
