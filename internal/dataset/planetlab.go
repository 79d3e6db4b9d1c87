package dataset

import (
	"math/rand"
	"sort"
	"time"

	"jqos/internal/core"
)

// sortFloat64s is a tiny indirection so dataset.go needn't import sort
// twice; kept here with the other ordering helpers.
func sortFloat64s(s []float64) { sort.Float64s(s) }

// LossProfile parameterizes a path's loss process as a mixture of the three
// episode classes of Figure 8b. The experiment layer materializes it into
// netem models (dataset stays measurement-shaped, not simulator-shaped).
type LossProfile struct {
	// PRandom is the per-packet probability of an isolated single loss.
	PRandom float64
	// PBurstStart is the per-packet probability of entering a
	// multi-packet loss episode; BurstMean is the episode's mean length
	// in packets (geometric, 2–14 packets per the paper's classifier).
	PBurstStart float64
	BurstMean   float64
	// OutagesPerHour is the rate of full outages; each lasts between
	// OutageMin and OutageMax (paper: 45% of paths see 1–3 s outages).
	OutagesPerHour float64
	OutageMin      core.Time
	OutageMax      core.Time
}

// HasOutages reports whether the profile schedules outages at all.
func (lp LossProfile) HasOutages() bool { return lp.OutagesPerHour > 0 }

// PLPath is one PlanetLab-like wide-area path in the CR-WAN deployment
// (§6.2): endpoint regions, segment latencies, and the path's loss profile.
type PLPath struct {
	ID        int
	SrcRegion Region
	DstRegion Region
	// OneWay is the direct Internet one-way latency (y).
	OneWay core.Time
	// DeltaS and DeltaR are the host↔DC one-way latencies.
	DeltaS, DeltaR core.Time
	// InterDC is the DC1→DC2 one-way latency (x).
	InterDC core.Time
	// Jitter is the body jitter of the direct path.
	Jitter core.Time
	// Loss is the wide-area loss profile of the direct path.
	Loss LossProfile
	// AccessLoss is the loss rate of the sender's shared first mile:
	// drops there kill both the direct packet and its cloud copy, which
	// is why the paper finds most unrecoverable losses on source access
	// paths (~98% of access losses, 90% single-packet).
	AccessLoss float64
}

// RTT returns the direct round trip.
func (p PLPath) RTT() core.Time { return 2 * p.OneWay }

// regionPairs lists the inter-continental pairs the deployment used, with
// one-way latency bands (in ms) for direct Internet and inter-DC segments.
var regionPairs = []struct {
	src, dst         Region
	directLo, dirHi  float64
	interLo, interHi float64
}{
	{RegionUSEast, RegionEU, 55, 70, 42, 48},
	{RegionUSWest, RegionEU, 70, 90, 62, 70},
	{RegionUSEast, RegionAsia, 90, 115, 80, 92},
	{RegionUSWest, RegionOceania, 75, 95, 68, 78},
	{RegionEU, RegionOceania, 140, 165, 125, 140},
	{RegionEU, RegionAsia, 95, 125, 88, 100},
	{RegionUSEast, RegionOceania, 95, 120, 88, 100},
	{RegionAsia, RegionOceania, 55, 80, 50, 62},
}

// GeneratePlanetLab synthesizes n CR-WAN deployment paths (the paper used
// 45). Loss calibration targets §6.2.2: rates up to 0.9%, 40% of paths
// above 0.1%, and 45% of paths with 1–3 s outages.
func GeneratePlanetLab(seed int64, n int) []PLPath {
	r := rand.New(rand.NewSource(seed))
	paths := make([]PLPath, n)
	for i := range paths {
		pair := regionPairs[i%len(regionPairs)]
		oneWay := ms(pair.directLo + r.Float64()*(pair.dirHi-pair.directLo))
		interDC := ms(pair.interLo + r.Float64()*(pair.interHi-pair.interLo))

		// δ values: PlanetLab nodes are campus-hosted, generally close
		// to a DC; EU receivers show the paper's 16–70 ms RTT spread
		// (8–35 ms one-way, mean ~14 ms).
		deltaS := ms(2 + r.ExpFloat64()*5)
		deltaR := ms(4 + r.ExpFloat64()*10)
		if deltaR > ms(35) {
			deltaR = ms(35)
		}

		// Loss: draw the total target rate, then split across classes.
		// 40% of paths exceed 0.1%; the rest sit below it.
		var target float64
		if r.Float64() < 0.40 {
			target = 0.001 + r.Float64()*0.008 // 0.1% – 0.9%
		} else {
			target = 0.0002 + r.Float64()*0.0008 // 0.02% – 0.1%
		}
		randShare := 0.3 + r.Float64()*0.4 // random vs burst split
		burstMean := 2 + r.Float64()*6     // 2–8 packets per episode
		lp := LossProfile{
			PRandom:     target * randShare,
			PBurstStart: target * (1 - randShare) / burstMean,
			BurstMean:   burstMean,
		}
		if r.Float64() < 0.45 {
			lp.OutagesPerHour = 0.5 + r.Float64()*1.5
			lp.OutageMin = time.Second
			lp.OutageMax = 3 * time.Second
		}
		paths[i] = PLPath{
			ID:         i,
			SrcRegion:  pair.src,
			DstRegion:  pair.dst,
			OneWay:     oneWay,
			DeltaS:     deltaS,
			DeltaR:     deltaR,
			InterDC:    interDC,
			Jitter:     ms(0.5 + r.Float64()*2),
			Loss:       lp,
			AccessLoss: target * (0.10 + r.Float64()*0.20),
		}
	}
	return paths
}

// PairName labels a path's region pair (used to group Figure 8d series).
func (p PLPath) PairName() string {
	return p.SrcRegion.String() + "→" + p.DstRegion.String()
}

// RegionGroup buckets the path into the coarse series of Figure 8d.
func (p PLPath) RegionGroup() string {
	in := func(r Region, set ...Region) bool {
		for _, s := range set {
			if r == s {
				return true
			}
		}
		return false
	}
	us := []Region{RegionUSEast, RegionUSWest}
	eu := []Region{RegionEU, RegionNorthEU}
	oc := []Region{RegionOceania}
	switch {
	case in(p.SrcRegion, us...) && in(p.DstRegion, eu...):
		return "US-EU"
	case in(p.SrcRegion, us...) && in(p.DstRegion, oc...):
		return "US-OC"
	case in(p.SrcRegion, eu...) && in(p.DstRegion, oc...):
		return "EU-OC"
	default:
		return "Other"
	}
}
