// Package load is the J-QoS traffic-engineering substrate: sliding-window
// rate meters for per-link utilization telemetry, token buckets for
// per-flow admission contracts, and a registry that aggregates egress
// accounting per (inter-DC link, service class) into the utilization
// snapshots the routing control plane turns into congestion-aware path
// weights.
//
// The paper's core claim is *judicious* use of cloud overlay resources —
// meeting latency budgets without over-provisioning. That requires knowing
// where the overlay's bytes actually go (the meters), refusing to let one
// greedy flow take more than it contracted for (the buckets), and steering
// new traffic away from links that are already hot (the registry feeding
// the controller). Everything here is sans-IO and allocation-free on the
// hot paths: the hosting runtime reports sends, the meters do fixed-size
// ring arithmetic, and snapshots are only built on demand.
package load

import (
	"math"

	"jqos/internal/core"
)

// meterSlots is the fixed ring size of a Meter: the window is divided into
// this many slots, so the windowed rate slides in window/meterSlots steps.
const meterSlots = 8

// ewmaAlpha weights the newest completed slot in the smoothed rate.
const ewmaAlpha = 0.25

// Meter is a sliding-window byte-rate estimator: a fixed ring of
// time slots plus an EWMA folded once per completed slot. Add and the
// readers are allocation-free; a Meter is a plain value and can be
// embedded in per-link tables.
type Meter struct {
	slotW core.Time
	slot  int64 // absolute index (now / slotW) of the accumulating slot
	bytes [meterSlots]uint64
	ewma  float64 // bytes/sec, smoothed across completed slots
	total uint64  // lifetime bytes
	count uint64  // lifetime packets
}

// NewMeter returns a meter averaging over the given window (window <= 0
// defaults to one second).
func NewMeter(window core.Time) Meter {
	if window <= 0 {
		window = 1e9
	}
	return Meter{slotW: window / meterSlots}
}

// seconds converts a virtual duration to float seconds.
func seconds(d core.Time) float64 { return float64(d) / 1e9 }

// advance rotates the ring to now, folding each completed slot's rate into
// the EWMA and zeroing the slots the new head reuses.
func (m *Meter) advance(now core.Time) {
	if m.slotW == 0 { // zero-value meter: behave as 1 s window
		*m = NewMeter(0)
	}
	target := int64(now / m.slotW)
	steps := target - m.slot
	if steps <= 0 {
		return
	}
	sw := seconds(m.slotW)
	if steps >= meterSlots {
		// Long idle gap: fold the head, decay through the empty slots in
		// one pow, and start from a clean ring.
		i := int(m.slot % meterSlots)
		m.ewma = ewmaAlpha*float64(m.bytes[i])/sw + (1-ewmaAlpha)*m.ewma
		m.ewma *= math.Pow(1-ewmaAlpha, float64(steps-1))
		m.bytes = [meterSlots]uint64{}
		m.slot = target
		return
	}
	for m.slot < target {
		i := int(m.slot % meterSlots)
		m.ewma = ewmaAlpha*float64(m.bytes[i])/sw + (1-ewmaAlpha)*m.ewma
		m.slot++
		j := int(m.slot % meterSlots)
		m.bytes[j] = 0
	}
}

// Add records one packet of n bytes at virtual time now. Calls must use
// non-decreasing timestamps (the hosting simulator's clock).
func (m *Meter) Add(now core.Time, n int) {
	m.advance(now)
	i := int(m.slot % meterSlots)
	m.bytes[i] += uint64(n)
	m.total += uint64(n)
	m.count++
}

// Rate returns the windowed mean rate in bytes/second: all bytes
// currently in the ring over the span the ring actually covers — the
// complete slots plus the partial head, not the nominal window. A fixed
// full-window divisor would under-report sustained load by up to
// 1/meterSlots depending on slot phase, enough to flap a link back and
// forth across the congestion knee under constant offered load. The
// rate still decays to zero within one window of traffic stopping,
// which makes it the utilization input — a hot link must stop reading
// as hot once the load is gone.
func (m *Meter) Rate(now core.Time) float64 {
	m.advance(now)
	var sum uint64
	for _, b := range m.bytes {
		sum += b
	}
	oldest := m.slot - (meterSlots - 1)
	if oldest < 0 {
		oldest = 0
	}
	span := now - core.Time(oldest)*m.slotW
	if span <= 0 {
		return 0
	}
	return float64(sum) / seconds(span)
}

// Smoothed returns the EWMA rate in bytes/second — slower-moving than
// Rate, for display and trend detection rather than control.
func (m *Meter) Smoothed(now core.Time) float64 {
	m.advance(now)
	return m.ewma
}

// Peak returns the highest single-slot rate within the current window in
// bytes/second — the burstiness the windowed mean averages away.
func (m *Meter) Peak(now core.Time) float64 {
	m.advance(now)
	var max uint64
	for _, b := range m.bytes {
		if b > max {
			max = b
		}
	}
	return float64(max) / seconds(m.slotW)
}

// Totals returns lifetime bytes and packets.
func (m *Meter) Totals() (bytes, packets uint64) { return m.total, m.count }
