package dataset

import (
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/stats"
)

func TestGenerateFeasibilityCalibration(t *testing.T) {
	paths := GenerateFeasibility(1, 6250)
	if len(paths) != 6250 {
		t.Fatalf("got %d paths", len(paths))
	}
	var deltaR, direct, inter stats.Sample
	for _, p := range paths {
		deltaR.Add(float64(p.DeltaR) / float64(time.Millisecond))
		direct.Add(float64(p.Direct) / float64(time.Millisecond))
		inter.Add(float64(p.InterDC) / float64(time.Millisecond))
		if p.DeltaS <= 0 || p.DeltaR <= 0 || p.InterDC <= 0 || p.Direct <= 0 {
			t.Fatalf("non-positive latency in %+v", p)
		}
		if p.DeltaRMedian <= 0 {
			t.Fatal("median δR missing")
		}
	}
	// Paper calibration (Fig 7c): ~55% of δR below 10 ms, ~15% above 20 ms.
	if f := deltaR.FractionBelow(10); f < 0.50 || f > 0.60 {
		t.Errorf("fraction δR<10ms = %v, want ~0.55", f)
	}
	if f := 1 - deltaR.FractionBelow(20); f < 0.10 || f > 0.20 {
		t.Errorf("fraction δR>20ms = %v, want ~0.15", f)
	}
	// Inter-DC is tight (low jitter cloud WAN).
	if inter.Quantile(0) < 35 || inter.Max() > 47 {
		t.Errorf("interDC range [%v,%v]", inter.Quantile(0), inter.Max())
	}
	// Internet one-way has a heavier tail than the overlay.
	if direct.Quantile(0.99) < 70 {
		t.Errorf("direct p99 = %v, want heavy tail", direct.Quantile(0.99))
	}
}

func TestFeasibilityDelayFormulas(t *testing.T) {
	p := FeasibilityPath{
		DeltaS:       5 * time.Millisecond,
		DeltaR:       10 * time.Millisecond,
		InterDC:      40 * time.Millisecond,
		Direct:       50 * time.Millisecond,
		DeltaRMedian: 8 * time.Millisecond,
	}
	if got := p.ForwardingDelay(); got != 55*time.Millisecond {
		t.Errorf("forwarding = %v", got)
	}
	// Δ = (5+40) − (50+10) < 0 → 0.
	if got := p.WaitDelta(); got != 0 {
		t.Errorf("Δ = %v, want 0", got)
	}
	if got := p.CachingDelay(); got != 70*time.Millisecond {
		t.Errorf("caching = %v", got)
	}
	if got := p.CodingDelay(); got != 86*time.Millisecond {
		t.Errorf("coding = %v", got)
	}
	if got := p.RTT(); got != 100*time.Millisecond {
		t.Errorf("RTT = %v", got)
	}
	// Now a path where the cloud copy lags: Δ > 0.
	p.Direct = 20 * time.Millisecond
	// Δ = 45 − 30 = 15ms.
	if got := p.WaitDelta(); got != 15*time.Millisecond {
		t.Errorf("Δ = %v, want 15ms", got)
	}
	if got := p.CachingDelay(); got != (20+20+15)*time.Millisecond {
		t.Errorf("caching with Δ = %v", got)
	}
}

func TestGenerateFeasibilityDeterminism(t *testing.T) {
	a := GenerateFeasibility(7, 100)
	b := GenerateFeasibility(7, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("path %d differs between identical seeds", i)
		}
	}
	c := GenerateFeasibility(8, 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateErasMonotone(t *testing.T) {
	eras := GenerateEras(3, 500)
	if len(eras) != 3 {
		t.Fatalf("eras = %d", len(eras))
	}
	if eras[0].Year != 2007 || eras[2].Year != 2018 {
		t.Errorf("era years: %d %d %d", eras[0].Year, eras[1].Year, eras[2].Year)
	}
	for h := 0; h < 500; h++ {
		ire, fra, now := eras[0].Deltas[h], eras[1].Deltas[h], eras[2].Deltas[h]
		if !(now < fra && fra < ire) {
			t.Fatalf("host %d not monotone: %v %v %v", h, ire, fra, now)
		}
	}
	// The newest era should have a sub-15ms median for North-EU hosts.
	var nowS stats.Sample
	for _, d := range eras[2].Deltas {
		nowS.Add(float64(d) / float64(time.Millisecond))
	}
	if m := nowS.Median(); m > 15 {
		t.Errorf("Now median δ = %vms", m)
	}
}

// expectedLossRate estimates the stationary packet-loss fraction of a
// profile, ignoring outages (rare in packet terms at typical rates): each
// burst start contributes BurstMean lost packets.
func expectedLossRate(lp LossProfile) float64 {
	return lp.PRandom + lp.PBurstStart*lp.BurstMean
}

func TestGeneratePlanetLabCalibration(t *testing.T) {
	paths := GeneratePlanetLab(1, 45)
	if len(paths) != 45 {
		t.Fatalf("got %d paths", len(paths))
	}
	over01, outages := 0, 0
	for _, p := range paths {
		rate := expectedLossRate(p.Loss)
		if rate <= 0 || rate > 0.0095 {
			t.Errorf("path %d loss rate %v out of range", p.ID, rate)
		}
		if rate > 0.001 {
			over01++
		}
		if p.Loss.HasOutages() {
			outages++
			if p.Loss.OutageMin < time.Second || p.Loss.OutageMax > 3*time.Second {
				t.Errorf("path %d outage bounds %v–%v", p.ID, p.Loss.OutageMin, p.Loss.OutageMax)
			}
		}
		if p.OneWay < 50*time.Millisecond || p.OneWay > 170*time.Millisecond {
			t.Errorf("path %d one-way %v", p.ID, p.OneWay)
		}
		if p.AccessLoss <= 0 || p.AccessLoss > 0.35*rate {
			t.Errorf("path %d access loss %v vs rate %v", p.ID, p.AccessLoss, rate)
		}
		if p.RTT() != 2*p.OneWay {
			t.Error("RTT formula")
		}
	}
	// ~40% of paths above 0.1%, ~45% with outages (±generous slack for n=45).
	if f := float64(over01) / 45; f < 0.25 || f > 0.55 {
		t.Errorf("fraction >0.1%% = %v", f)
	}
	if f := float64(outages) / 45; f < 0.3 || f > 0.6 {
		t.Errorf("fraction with outages = %v", f)
	}
}

func TestPLPathRegionGroups(t *testing.T) {
	paths := GeneratePlanetLab(2, 45)
	groups := map[string]int{}
	for _, p := range paths {
		groups[p.RegionGroup()]++
		if p.PairName() == "" {
			t.Error("empty pair name")
		}
	}
	for _, g := range []string{"US-EU", "US-OC", "EU-OC"} {
		if groups[g] == 0 {
			t.Errorf("no paths in group %s (got %v)", g, groups)
		}
	}
}

func TestLossProfileExpectedRate(t *testing.T) {
	lp := LossProfile{PRandom: 0.001, PBurstStart: 0.0005, BurstMean: 4}
	if lp.HasOutages() {
		t.Error("profile without outages reports HasOutages")
	}
}

func TestRegionStrings(t *testing.T) {
	for _, r := range AllRegions {
		if r.String() == "region?" {
			t.Errorf("region %d lacks a name", r)
		}
	}
	if Region(200).String() != "region?" {
		t.Error("unknown region string")
	}
}

func TestMedianTime(t *testing.T) {
	if medianTime(nil) != 0 {
		t.Error("median of empty")
	}
	got := medianTime([]float64{3e6, 1e6, 2e6})
	if got != core.Time(2*time.Millisecond) {
		t.Errorf("median = %v", got)
	}
}
