package mobile

import (
	"math/rand"
	"testing"
	"time"
)

func TestUplinkSurveyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		u := SampleUplink(rng)
		if u.Mbps < 2 || u.Mbps > 5 {
			t.Fatalf("uplink %v outside survey range", u.Mbps)
		}
	}
}

func TestFitsDuplication(t *testing.T) {
	u := Uplink{Mbps: 5}
	// Paper: duplicating a 1.5 Mb/s Skype stream (→3.0) fits a 5 Mb/s
	// uplink…
	if !u.FitsDuplication(1.5) {
		t.Error("1.5 Mb/s duplication should fit 5 Mb/s uplink")
	}
	// …but could exhaust tighter links.
	if (Uplink{Mbps: 2.5}).FitsDuplication(1.5) {
		t.Error("3.0 Mb/s should not fit a 2.5 Mb/s uplink")
	}
}

func TestEnergyNegligibleDuplicationCost(t *testing.T) {
	e := DefaultEnergy()
	call := 20 * time.Minute
	plain := e.Drain(call, 1.5)
	dup := e.Drain(call, 3.0)
	// Paper: ~20 mAh either way; the delta is noise-level (<10%).
	if plain < 15 || plain > 25 {
		t.Errorf("baseline drain = %v mAh", plain)
	}
	if rel := (dup - plain) / plain; rel < 0 || rel > 0.10 {
		t.Errorf("duplication energy delta = %.1f%%", rel*100)
	}
}

func TestPingCloudDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range Providers {
		s := PingCloud(rng, p, 1000)
		med := s.Median()
		if med < 45 || med > 70 {
			t.Errorf("%s median RTT = %v", p, med)
		}
		if p90 := s.Quantile(0.9); p90 < med || p90 > 130 {
			t.Errorf("%s p90 RTT = %v", p, p90)
		}
		if lo := s.Quantile(0); lo < 40 {
			t.Errorf("%s implausibly low RTT %v", p, lo)
		}
	}
}

func TestRecoveryFeasible(t *testing.T) {
	// 55 ms cloud RTT, 25 ms detection → ~135 ms: fine for a 250 ms
	// budget, hopeless for 100 ms.
	if !RecoveryFeasible(55, 25*time.Millisecond, 250*time.Millisecond) {
		t.Error("recovery should fit 250 ms budget")
	}
	if RecoveryFeasible(55, 25*time.Millisecond, 100*time.Millisecond) {
		t.Error("recovery should not fit 100 ms budget")
	}
}
