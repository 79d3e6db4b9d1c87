package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestHistogramMatchesSample is the differential test against the exact
// Sample: over inputs of very different shape, every quantile is within
// the documented relative 2⁻¹², Len, Min and Max are exact and Mean is
// the same sum in another order.
func TestHistogramMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := map[string]func() float64{
		"uniform":    func() float64 { return 40 + 20*rng.Float64() },
		"lognormal":  func() float64 { return math.Exp(4 + 1.5*rng.NormFloat64()) },
		"duplicates": func() float64 { return float64(rng.Intn(5)) * 12.5 },
		"zeros": func() float64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return rng.ExpFloat64() * 1e-3
		},
		"one-value": func() float64 { return 63.7 },
	}
	qs := []float64{0, .01, .25, .5, .95, .99, 1}
	for name, draw := range inputs {
		for _, n := range []int{1, 2, 7, 1000, 50000} {
			var h Histogram
			var s Sample
			for i := 0; i < n; i++ {
				v := draw()
				h.Add(v)
				s.Add(v)
			}
			if h.Len() != s.Len() {
				t.Fatalf("%s n=%d: Len %d, exact %d", name, n, h.Len(), s.Len())
			}
			var sum float64
			for _, v := range s.Values() {
				sum += v
			}
			if got, want := h.Mean(), sum/float64(n); math.Abs(got-want) > 1e-12*want {
				t.Errorf("%s n=%d: Mean = %v, exact %v", name, n, got, want)
			}
			for _, q := range qs {
				got, want := h.Quantile(q), s.Quantile(q)
				if name == "one-value" && got != want {
					// Clamping to [Min, Max] makes a constant history exact.
					t.Errorf("%s n=%d: Quantile(%v) = %v, want exactly %v", name, n, q, got, want)
				}
				if math.Abs(got-want) > want/(1<<12) {
					t.Errorf("%s n=%d: Quantile(%v) = %v, exact %v (relative error %.3g)", name, n, q, got, want, math.Abs(got-want)/want)
				}
			}
		}
	}
}

// TestHistogramBounded holds the memory promise: a million latencies
// in [40, 60] ms occupy no more buckets than that range spans — 2 560
// of width 2⁻⁷ ms in the octave [32, 64) — and a second million add
// none.
func TestHistogramBounded(t *testing.T) {
	const span = 20 << 7
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	for i := 0; i < 1_000_000; i++ {
		h.Add(40 + 20*rng.Float64())
	}
	occupied := len(h.buckets)
	if occupied > span {
		t.Errorf("%d occupied buckets for values in [40, 60], want ≤ %d", occupied, span)
	}
	for i := 0; i < 1_000_000; i++ {
		h.Add(40 + 20*rng.Float64())
	}
	if len(h.buckets) != occupied || h.Len() != 2_000_000 {
		t.Errorf("second million: %d buckets (was %d), Len %d", len(h.buckets), occupied, h.Len())
	}
}

func TestHistogramPanics(t *testing.T) {
	var one Histogram
	one.Add(1)
	for name, fn := range map[string]func(){
		"nan":            func() { var h Histogram; h.Add(math.NaN()) },
		"negative":       func() { var h Histogram; h.Add(-1) },
		"empty-quantile": func() { var h Histogram; h.Quantile(0.5) },
		"q-above-one":    func() { one.Quantile(1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
