package load

import (
	"sort"

	"jqos/internal/core"
)

// NumClasses is the number of service classes accounted per link —
// one per J-QoS service, indexed by core.Service.
const NumClasses = core.NumServices

// DirLoad is the read-only load snapshot of one link direction. Its JSON
// tags, and LinkLoad's, are the telemetry snapshot's keys.
type DirLoad struct {
	// Rate is the windowed mean rate in bytes/second, all classes.
	Rate float64 `json:"rate"`
	// Smoothed is the EWMA rate in bytes/second, all classes.
	Smoothed float64 `json:"smoothed"`
	// Peak is the highest single-slot rate within the window.
	Peak float64 `json:"peak"`
	// Bytes / Packets are lifetime totals.
	Bytes   uint64 `json:"bytes"`
	Packets uint64 `json:"packets"`
	// ClassRate breaks the windowed rate down per service class.
	ClassRate [NumClasses]float64 `json:"class_rate"`
	// ClassBytes / ClassPackets break the lifetime totals down per
	// service class. Their sums equal Bytes / Packets: the meters
	// account the direction total and the class together on every
	// Record (telemetry rollups assert this invariant).
	ClassBytes   [NumClasses]uint64 `json:"class_bytes"`
	ClassPackets [NumClasses]uint64 `json:"class_packets"`
}

// LinkLoad is the read-only load snapshot of one inter-DC link pair.
type LinkLoad struct {
	A core.NodeID `json:"a"`
	B core.NodeID `json:"b"`
	// Capacity is the accounting capacity in bytes/second (0 means
	// uncapacitated: Utilization is always 0).
	Capacity int64 `json:"capacity"`
	// Utilization is the hotter direction's windowed rate over Capacity,
	// clamped to [0, 1].
	Utilization float64 `json:"utilization"`
	// AB and BA are the per-direction snapshots (A→B and B→A, with
	// A < B as normalized by the registry).
	AB DirLoad `json:"ab"`
	BA DirLoad `json:"ba"`
}

// dirMeters is one direction's meter bank: an aggregate meter for the
// direction's totals (rate, peak, utilization — a peak must see bursts
// that SPAN classes, which max-ing per-class peaks would halve) plus a
// per-class bank for the breakdown.
type dirMeters struct {
	total Meter
	class [NumClasses]Meter
}

func (d *dirMeters) add(now core.Time, class core.Service, n int) {
	if int(class) >= NumClasses {
		return // unknown classes go unaccounted, never into a real bucket
	}
	d.total.Add(now, n)
	d.class[class].Add(now, n)
}

func (d *dirMeters) rate(now core.Time) float64 {
	return d.total.Rate(now)
}

func (d *dirMeters) snapshot(now core.Time) DirLoad {
	var out DirLoad
	out.Rate = d.total.Rate(now)
	out.Smoothed = d.total.Smoothed(now)
	out.Peak = d.total.Peak(now)
	out.Bytes, out.Packets = d.total.Totals()
	for i := range d.class {
		out.ClassRate[i] = d.class[i].Rate(now)
		out.ClassBytes[i], out.ClassPackets[i] = d.class[i].Totals()
	}
	return out
}

// pairLoad is the meter state of one tracked inter-DC link.
type pairLoad struct {
	ab, ba   dirMeters // key[0]→key[1] and key[1]→key[0]
	capacity int64
}

// Registry aggregates egress accounting per (inter-DC link, service
// class). The hosting runtime Tracks each link at wiring time, Records
// every data-plane send, and periodically converts Utilization readings
// into the routing controller's congestion weights. Record on an
// untracked link is a deliberate no-op, so callers need not distinguish
// DC↔DC hops from DC↔host egress.
type Registry struct {
	window core.Time
	pairs  map[[2]core.NodeID]*pairLoad
	order  [][2]core.NodeID // sorted keys, for deterministic iteration
}

// NewRegistry creates an empty registry whose meters average over window
// (<= 0 defaults to one second).
func NewRegistry(window core.Time) *Registry {
	if window <= 0 {
		window = 1e9
	}
	return &Registry{window: window, pairs: make(map[[2]core.NodeID]*pairLoad)}
}

func pairKey(a, b core.NodeID) [2]core.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]core.NodeID{a, b}
}

// Track starts accounting the link a↔b with the given capacity in
// bytes/second (0 = uncapacitated). Re-tracking resets the meters.
func (r *Registry) Track(a, b core.NodeID, capacity int64) {
	k := pairKey(a, b)
	if _, ok := r.pairs[k]; !ok {
		r.order = append(r.order, k)
		sort.Slice(r.order, func(i, j int) bool {
			if r.order[i][0] != r.order[j][0] {
				return r.order[i][0] < r.order[j][0]
			}
			return r.order[i][1] < r.order[j][1]
		})
	}
	p := &pairLoad{capacity: capacity}
	p.ab.total = NewMeter(r.window)
	p.ba.total = NewMeter(r.window)
	for i := range p.ab.class {
		p.ab.class[i] = NewMeter(r.window)
		p.ba.class[i] = NewMeter(r.window)
	}
	r.pairs[k] = p
}

// Tracked reports whether the link a↔b is being accounted.
func (r *Registry) Tracked(a, b core.NodeID) bool {
	_, ok := r.pairs[pairKey(a, b)]
	return ok
}

// AnyCapacity reports whether any tracked link has a nonzero accounting
// capacity — without one, no utilization reading can ever be nonzero.
func (r *Registry) AnyCapacity() bool {
	for _, p := range r.pairs {
		if p.capacity > 0 {
			return true
		}
	}
	return false
}

// Capacity returns the accounting capacity of the link a↔b in
// bytes/second (0 for uncapacitated or untracked links). Egress
// schedulers pace their dequeues at this rate, so the same figure drives
// utilization telemetry and intra-link scheduling.
func (r *Registry) Capacity(a, b core.NodeID) int64 {
	p, ok := r.pairs[pairKey(a, b)]
	if !ok {
		return 0
	}
	return p.capacity
}

// SetCapacity re-bases the accounting capacity of a tracked link,
// reporting whether the link was known.
func (r *Registry) SetCapacity(a, b core.NodeID, capacity int64) bool {
	p, ok := r.pairs[pairKey(a, b)]
	if !ok {
		return false
	}
	p.capacity = capacity
	return true
}

// Record accounts one packet of n bytes sent from→to in the given service
// class. Untracked links are ignored. Allocation-free.
func (r *Registry) Record(now core.Time, from, to core.NodeID, class core.Service, n int) {
	p, ok := r.pairs[pairKey(from, to)]
	if !ok {
		return
	}
	if from < to {
		p.ab.add(now, class, n)
	} else {
		p.ba.add(now, class, n)
	}
}

// Utilization returns the hotter direction's windowed rate over the
// link's capacity, clamped to [0, 1]. Uncapacitated or untracked links
// read as 0 — they can never look congested.
func (r *Registry) Utilization(now core.Time, a, b core.NodeID) float64 {
	p, ok := r.pairs[pairKey(a, b)]
	if !ok || p.capacity <= 0 {
		return 0
	}
	rate := p.ab.rate(now)
	if rev := p.ba.rate(now); rev > rate {
		rate = rev
	}
	u := rate / float64(p.capacity)
	if u > 1 {
		u = 1
	}
	return u
}

// Load returns the full snapshot for a tracked link. Utilization is
// derived from the snapshots just built, not a second meter walk.
func (r *Registry) Load(now core.Time, a, b core.NodeID) (LinkLoad, bool) {
	k := pairKey(a, b)
	p, ok := r.pairs[k]
	if !ok {
		return LinkLoad{}, false
	}
	ll := LinkLoad{
		A: k[0], B: k[1],
		Capacity: p.capacity,
		AB:       p.ab.snapshot(now),
		BA:       p.ba.snapshot(now),
	}
	if p.capacity > 0 {
		hot := ll.AB.Rate
		if ll.BA.Rate > hot {
			hot = ll.BA.Rate
		}
		ll.Utilization = hot / float64(p.capacity)
		if ll.Utilization > 1 {
			ll.Utilization = 1
		}
	}
	return ll, true
}

// Pairs returns the tracked link keys in ascending order (shared slice;
// callers must not mutate).
func (r *Registry) Pairs() [][2]core.NodeID { return r.order }
