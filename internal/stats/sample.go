// Package stats provides the small statistics toolkit used by every J-QoS
// experiment: sample collection, quantiles, CDF/CCDF extraction, histogram
// bucketing, and figure output (CSV and ASCII plots).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers order-statistics
// queries. The zero value is ready to use.
//
// Observations are stored sorted up to the last order-statistics read and
// in arrival order after it. A read sorts only what arrived since and
// merges it in, so a Sample read every few observations — a flow's latency
// history, consulted on each adaptation tick and snapshot — pays for the
// new values, not for its whole history.
type Sample struct {
	data   []float64
	sorted int // data[:sorted] is in ascending order
}

// NewSample returns a Sample pre-sized for n observations.
func NewSample(n int) *Sample {
	return &Sample{data: make([]float64, 0, n)}
}

// Add records one observation. NaNs are rejected with a panic: every J-QoS
// experiment is deterministic, so a NaN always indicates a programming error
// that should fail loudly rather than poison a CDF.
func (s *Sample) Add(v float64) {
	if math.IsNaN(v) {
		panic("stats: NaN observation")
	}
	s.data = append(s.data, v)
}

// AddAll records a batch of observations.
func (s *Sample) AddAll(vs ...float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.data) }

// Values returns the observations in sorted order. The returned slice is
// owned by the Sample; callers must not modify it.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.data
}

func (s *Sample) sort() {
	old := s.sorted
	if old == len(s.data) {
		return
	}
	s.sorted = len(s.data)
	fresh := s.data[old:]
	if old <= len(fresh) {
		sort.Float64s(s.data) // mostly new: merging would save nothing
		return
	}
	sort.Float64s(fresh)
	// The new values step aside while the merge overwrites their slots:
	// into the slice's spare capacity when append left enough, so a steady
	// add/read cycle allocates nothing and the Sample retains nothing.
	aside := s.data[len(s.data):cap(s.data)]
	if len(aside) < len(fresh) {
		aside = make([]float64, len(fresh))
	}
	aside = aside[:copy(aside, fresh)]
	// Merge from the back, so the sorted prefix is moved up in place and
	// only as far down as the smallest new value reaches.
	i, k := old-1, len(s.data)-1
	for j := len(aside) - 1; j >= 0; k-- {
		if i >= 0 && s.data[i] > aside[j] {
			s.data[k] = s.data[i]
			i--
		} else {
			s.data[k] = aside[j]
			j--
		}
	}
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.data) == 0 {
		return 0
	}
	s.sort()
	return s.data[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.data) == 0 {
		return 0
	}
	s.sort()
	return s.data[len(s.data)-1]
}

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 {
	var t float64
	for _, v := range s.data {
		t += v
	}
	return t
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.data) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.data))
}

// Stddev returns the population standard deviation, or 0 for fewer than two
// observations.
func (s *Sample) Stddev() float64 {
	n := len(s.data)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.data {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics (type-7 estimator, the same one used by R and
// NumPy's default). It panics on an empty sample or q outside [0, 1].
func (s *Sample) Quantile(q float64) float64 {
	if len(s.data) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range", q))
	}
	s.sort()
	if len(s.data) == 1 {
		return s.data[0]
	}
	pos := q * float64(len(s.data)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.data[lo]
	}
	frac := pos - float64(lo)
	return s.data[lo]*(1-frac) + s.data[hi]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// FractionBelow returns the fraction of observations strictly less than or
// equal to x (the empirical CDF evaluated at x).
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.data) == 0 {
		return 0
	}
	s.sort()
	idx := sort.SearchFloat64s(s.data, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(s.data))
}

// CDF returns the empirical cumulative distribution as a Series: one point
// per distinct observation, with Y the cumulative fraction ≤ X.
func (s *Sample) CDF(name string) Series {
	s.sort()
	ser := Series{Name: name}
	n := len(s.data)
	if n == 0 {
		return ser
	}
	ser.Points = make([]Point, 0, n)
	for i := 0; i < n; i++ {
		// Emit only the last point of a run of equal values so the
		// CDF is a proper step function sampled at distinct x.
		if i+1 < n && s.data[i+1] == s.data[i] {
			continue
		}
		ser.Points = append(ser.Points, Point{X: s.data[i], Y: float64(i+1) / float64(n)})
	}
	return ser
}

// CCDF returns the complementary CDF (fraction of observations > X), the
// form used by Figure 8a in the paper.
func (s *Sample) CCDF(name string) Series {
	cdf := s.CDF(name)
	for i := range cdf.Points {
		cdf.Points[i].Y = 1 - cdf.Points[i].Y
	}
	return cdf
}

// Summary is a compact five-number-plus description of a sample.
type Summary struct {
	N                int
	Min, P25, Median float64
	P75, P90, P95    float64
	P99, Max, Mean   float64
}

// Summarize computes a Summary. An empty sample yields the zero Summary.
func (s *Sample) Summarize() Summary {
	if s.Len() == 0 {
		return Summary{}
	}
	return Summary{
		N:      s.Len(),
		Min:    s.Min(),
		P25:    s.Quantile(0.25),
		Median: s.Median(),
		P75:    s.Quantile(0.75),
		P90:    s.Quantile(0.90),
		P95:    s.Quantile(0.95),
		P99:    s.Quantile(0.99),
		Max:    s.Max(),
		Mean:   s.Mean(),
	}
}

// String implements fmt.Stringer.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3g p50=%.3g p90=%.3g p95=%.3g p99=%.3g max=%.3g mean=%.3g",
		sm.N, sm.Min, sm.Median, sm.P90, sm.P95, sm.P99, sm.Max, sm.Mean)
}
