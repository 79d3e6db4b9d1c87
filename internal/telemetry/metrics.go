// Package telemetry is the deployment-wide observability layer:
// allocation-free metrics (counters, fixed-bucket histograms), a bounded
// control-loop event trace, one coherent JSON-serializable Snapshot
// aggregating every stat surface, and an HTTP exposition server
// (Prometheus text format, JSON snapshot, pprof).
//
// The package is deliberately engine-agnostic: the hosting runtime
// (package jqos) builds Snapshots from its own stat surfaces and records
// Events at its control-loop choke points; telemetry owns only the
// concurrency-safe primitives and the wire formats. All timestamps are
// SIMULATED time (core.Time from the event simulator) — never wall
// clock — so snapshots and traces are bit-stable across same-seed runs.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Inc is lock-free and
// allocation-free; Load is safe concurrently with writers.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram: bounds are the ascending bucket
// upper limits, with an implicit +Inf overflow bucket at the end. Observe
// is lock-free and allocation-free (the hot-path requirement); Snapshot
// is safe concurrently with observers.
type Histogram struct {
	name   string
	unit   string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram creates a histogram named name (a Prometheus-compatible
// metric name) over the given ascending bucket upper bounds. unit is
// documentation ("ms", "bytes", "ratio"); it rides the snapshot.
func NewHistogram(name, unit string, bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must ascend")
		}
	}
	return &Histogram{
		name:   name,
		unit:   unit,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Allocation-free: a linear scan over the
// (small, fixed) bound set plus three atomic ops.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is one histogram's point-in-time state. Counts has
// len(Bounds)+1 entries; the last is the +Inf overflow bucket.
type HistogramSnapshot struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state. Concurrent Observes may
// straddle the copy (the per-bucket counts are each atomic; the total is
// re-derived from them so Counts always sums to Count).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   h.name,
		Unit:   h.unit,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// CounterSnapshot is one counter's named point-in-time value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}
