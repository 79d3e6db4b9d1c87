package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// histSubBits sets the resolution: each power-of-two octave is cut into
// 1<<histSubBits equal buckets.
const histSubBits = 12

// Histogram accumulates non-negative float64 observations in a sparse
// log-linear histogram. It answers Sample's summary queries in memory
// that follows the occupied buckets, not the number of observations, so
// a history that runs for hours costs what its spread costs.
//
// Each octave [2ᵉ⁻¹, 2ᵉ) is cut into 4 096 equal buckets, so a bucket is
// never wider than 2⁻¹² of the smallest value it can hold; zero has a
// bucket of its own. Len, Min, Max and Mean are exact (Mean adds the
// observations in arrival order). Quantile keeps Sample.Quantile's
// definition, with each order statistic placed inside its bucket in
// proportion to its rank there and clamped to [Min, Max], so every
// quantile is within a relative 2⁻¹² (≈ 0.024 %) of Sample's. Reads
// change nothing. The zero value is ready to use.
type Histogram struct {
	buckets  []histBucket // ascending by index; only occupied buckets
	n        int
	sum      float64
	min, max float64
}

// histBucket is one occupied bucket: its index (see histIndex) and how
// many observations fell in it.
type histBucket struct {
	index int32
	count uint32
}

// histZero is the index of the bucket that holds exactly 0, below every
// positive value's index.
const histZero = math.MinInt32

// histIndex returns v's bucket: the octave exponent from math.Frexp,
// times the bucket count per octave, plus the linear position of v's
// mantissa within the octave.
func histIndex(v float64) int32 {
	if v == 0 {
		return histZero
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	sub := int32((2*frac - 1) * (1 << histSubBits))
	return int32(exp)<<histSubBits + sub
}

// histBounds returns the [lower, upper) range of bucket i.
func histBounds(i int32) (lower, upper float64) {
	if i == histZero {
		return 0, 0
	}
	exp := int(i >> histSubBits) // arithmetic shift: floor division
	sub := int(i & (1<<histSubBits - 1))
	m := 1<<histSubBits + sub // v = m·2^(exp-histSubBits-1) at the bucket's floor
	return math.Ldexp(float64(m), exp-histSubBits-1), math.Ldexp(float64(m+1), exp-histSubBits-1)
}

// Add records one observation. NaN, negative and infinite values panic:
// like Sample's NaN, each is a programming error in a deterministic
// experiment, not data.
func (h *Histogram) Add(v float64) {
	if !(v >= 0) || math.IsInf(v, 1) {
		panic(fmt.Sprintf("stats: histogram observation %v outside [0, +Inf)", v))
	}
	idx := histIndex(v)
	i, found := slices.BinarySearchFunc(h.buckets, idx, func(b histBucket, t int32) int { return cmp.Compare(b.index, t) })
	if found {
		h.buckets[i].count++
	} else {
		h.buckets = slices.Insert(h.buckets, i, histBucket{index: idx, count: 1})
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Len returns the number of observations.
func (h *Histogram) Len() int { return h.n }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1): position q(n−1),
// interpolated between the two neighbouring order statistics, as
// Sample.Quantile. It panics on an empty histogram or q outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		panic("stats: Quantile of empty histogram")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range", q))
	}
	if h.n == 1 {
		return h.min
	}
	pos := q * float64(h.n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.order(lo)
	}
	frac := pos - float64(lo)
	return h.order(lo)*(1-frac) + h.order(hi)*frac
}

// Median returns the 0.5 quantile.
func (h *Histogram) Median() float64 { return h.Quantile(0.5) }

// order estimates the k-th smallest observation (0-based): the r-th of
// the c observations in its bucket sits at (r+½)/c of the bucket's
// width, clamped to the observed range.
func (h *Histogram) order(k int) float64 {
	for _, b := range h.buckets {
		c := int(b.count)
		if k >= c {
			k -= c
			continue
		}
		lower, upper := histBounds(b.index)
		v := lower + (upper-lower)*(float64(k)+0.5)/float64(c)
		return min(max(v, h.min), h.max)
	}
	panic("stats: histogram rank out of range")
}
