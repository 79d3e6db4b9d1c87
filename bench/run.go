package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"jqos"
)

// tick is the driver's step: it advances the simulated clock by one tick
// and then sends every packet due. All send intervals are whole ticks, so
// the open-loop generator is never late on the simulated clock.
const tick = time.Millisecond

const (
	rounds       = 5
	drainLimit   = 60 * time.Second // simulated
	stampLen     = 24               // flow, seq, checksum
	headerLen    = 40               // J-QoS wire header, counted in SentBytes
	fillSpan     = 4096
	maxPayload   = 1500
	refSeconds   = 15 // -seconds value at which a round has its nominal length
	minWarmTicks = 50
)

// flowState is the driver's view of one registered flow.
type flowState struct {
	f        *jqos.Flow
	dst      jqos.NodeID
	contract bool // has a Rate contract (per-flow admission bucket)
	tenant   bool // draws from a tenant quota
	size     int
	interval time.Duration
	next     time.Duration // simulated time the next packet is due
	stopAt   time.Duration // stop sending at this simulated time
	budget   time.Duration

	sent      uint64 // lifetime packets == last sequence number
	timedFrom uint64 // first sequence number sent inside the timed region
	seen      []uint64
	delivered uint64
	onTime    uint64
	lastAt    time.Duration // simulated time of the previous delivery
	maxGap    time.Duration // longest wait between two deliveries, timed region
}

// roundStat is one timed round's host-side measurement.
type roundStat struct {
	WallS   float64 `json:"wall_s"`
	Packets uint64  `json:"packets"`
	Mallocs uint64  `json:"mallocs"`
}

// checkpoint is the simulated state at the end of round 1, which a traced
// run of the same seed must reproduce exactly.
type checkpoint struct {
	Sent, Delivered, OnTime, Steps uint64
	LatencySum                     time.Duration
}

// matches reports whether two runs of one seed agree at the end of round
// 1. What was delivered, and when, must match exactly on a bit-reproducible
// world and within 0.1 % otherwise. The number of simulator events is only
// ever compared within 0.1 %: simultaneous timers fire in Go map order, so
// a superseded timer event more or less does not change any delivery.
func (c checkpoint) matches(o checkpoint, exact bool) bool {
	near := func(a, b uint64) bool {
		return math.Abs(float64(a)-float64(b)) <= 1e-3*math.Max(float64(a), float64(b))
	}
	if c.Sent != o.Sent || !near(c.Steps, o.Steps) {
		return false
	}
	if exact {
		return c.Delivered == o.Delivered && c.OnTime == o.OnTime && c.LatencySum == o.LatencySum
	}
	return near(c.Delivered, o.Delivered) && near(c.OnTime, o.OnTime) && near(uint64(c.LatencySum), uint64(o.LatencySum))
}

type runner struct {
	wl    *workload
	seed  int64
	scale float64
	d     *jqos.Deployment
	rng   *rand.Rand // the driver's own inputs: placement, budgets, offsets
	rec   *spanRecorder

	dcs, hosts []jqos.NodeID
	flows      []*flowState // indexed by FlowID
	live       []*flowState // flows still open, oldest first
	hook       func(now time.Duration)
	heal       func() // undo any fault still active, before the drain
	fill       []byte
	buf        []byte

	timed      bool
	timedStart time.Duration
	hist       latencyHist
	sent       uint64 // timed-region packets
	sentBytes  uint64
	delivered  uint64
	onTime     uint64
	gaps       longestGaps
	bad        uint64
	firstBad   string

	ticks      uint64
	pendingSum uint64
	detectMs   []float64
	faultWatch []faultWatch

	closed    counters // banked from flows at Close
	heapBase  uint64   // what the process held before this set-up (heapFloor)
	queuedMax int64    // deepest egress backlog any Snapshot saw
}

type faultWatch struct {
	a, b  jqos.NodeID
	since time.Duration
}

func (r *runner) failf(format string, args ...any) {
	r.bad++
	if r.firstBad == "" {
		r.firstBad = fmt.Sprintf(format, args...)
	}
}

// newRunner is the set-up: build the world, register the initial flows
// and tenants, and warm up until the TTL windows are full.
func newRunner(wl *workload, seed int64, scale float64, rec *spanRecorder) *runner {
	r := &runner{
		wl: wl, seed: seed, scale: scale, rec: rec,
		rng:   rand.New(rand.NewSource(seed)),
		flows: make([]*flowState, 1, 256),
		buf:   make([]byte, maxPayload),
	}
	// The filler is fixed; only which window of it a packet carries
	// depends on (flow, seq), so a body grafted onto the wrong header
	// fails the comparison.
	fr := rand.New(rand.NewSource(0x6a716f73))
	r.fill = make([]byte, fillSpan+maxPayload)
	fr.Read(r.fill)
	wl.build(r)
	for _, h := range r.hosts {
		r.d.Host(h).SetDeliveryHandler(r.onDelivery)
	}
	if rec != nil {
		wrapHandlers(r.d, r.dcs, spanDC, rec)
		wrapHandlers(r.d, r.hosts, spanHost, rec)
	}
	r.advance(r.ticksFor(wl.warmup))
	return r
}

// ticksFor scales a nominal simulated length by the run's scale; warm-up
// and rounds shrink together for short runs.
func (r *runner) ticksFor(nominal time.Duration) int {
	n := int(math.Round(float64(nominal/tick) * r.scale))
	if n < minWarmTicks {
		n = minWarmTicks
	}
	return n
}

// register adds one flow to the sending population; offset staggers its
// first packet.
func (r *runner) register(spec jqos.FlowSpec, size int, interval, offset time.Duration) *flowState {
	t0 := r.rec.now()
	f, err := r.d.RegisterFlow(spec)
	r.rec.add(spanRegister, t0)
	if err != nil {
		panic(fmt.Sprintf("%s: RegisterFlow: %v", r.wl.name, err))
	}
	fs := &flowState{
		f: f, dst: spec.Dst, contract: spec.Rate > 0, tenant: spec.Tenant != 0,
		size: size, interval: interval, budget: spec.Budget,
		next: r.d.Now() + offset, stopAt: math.MaxInt64,
	}
	if int(f.ID()) != len(r.flows) {
		panic(fmt.Sprintf("%s: flow IDs are not dense: got %d, want %d", r.wl.name, f.ID(), len(r.flows)))
	}
	r.flows = append(r.flows, fs)
	r.live = append(r.live, fs)
	return fs
}

// closeOldest tears down the longest-lived open flow.
func (r *runner) closeOldest() {
	fs := r.live[0]
	r.live = r.live[1:]
	r.receiverCounts(&r.closed, fs) // the receiver is freed by Close
	t0 := r.rec.now()
	fs.f.Close()
	r.rec.add(spanClose, t0)
	m := fs.f.Metrics()
	if m.Sent != fs.sent || m.Delivered != fs.delivered || m.OnTime != fs.onTime {
		r.failf("flow %d at close: metrics sent/delivered/on-time %d/%d/%d, driver %d/%d/%d",
			fs.f.ID(), m.Sent, m.Delivered, m.OnTime, fs.sent, fs.delivered, fs.onTime)
	}
	r.closed[cAdmissionDrops] += m.AdmissionDropped
	if fs.contract {
		r.closed[cContractPackets] += fs.sent
	}
	if fs.tenant {
		r.closed[cTenantPackets] += fs.sent
	}
}

func (r *runner) snapshot() {
	t0 := r.rec.now()
	snap := r.d.Snapshot()
	r.rec.add(spanSnapshot, t0)
	if snap.Totals.Flows != len(r.live) {
		r.failf("snapshot lists %d flows, %d are open", snap.Totals.Flows, len(r.live))
	}
	for i := range snap.Queues {
		if q := snap.Queues[i].QueuedBytes; q > r.queuedMax {
			r.queuedMax = q
		}
	}
}

// advance runs n ticks: step the simulated clock, run the workload's own
// schedule (faults, churn, snapshots), then send everything due.
func (r *runner) advance(n int) {
	for i := 0; i < n; i++ {
		r.rec.beginRun()
		r.d.Run(tick)
		r.rec.endRun()
		now := r.d.Now()
		if r.hook != nil {
			r.hook(now)
		}
		for _, fs := range r.live {
			for fs.next <= now && now < fs.stopAt {
				r.send(fs)
				fs.next += fs.interval
			}
		}
		r.ticks++
		r.pendingSum += uint64(r.d.Sim().Pending())
	}
}

func checksum(flow, seq uint64, n int) uint64 {
	x := flow*0x9e3779b97f4a7c15 ^ seq*0xc2b2ae3d27d4eb4f ^ uint64(n)
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

func (r *runner) filler(flow, seq uint64, n int) []byte {
	off := int((flow*131 + seq*17) % fillSpan)
	return r.fill[off : off+n-stampLen]
}

func (r *runner) send(fs *flowState) {
	flow, seq := uint64(fs.f.ID()), fs.sent+1
	p := r.buf[:fs.size]
	binary.LittleEndian.PutUint64(p[0:], flow)
	binary.LittleEndian.PutUint64(p[8:], seq)
	binary.LittleEndian.PutUint64(p[16:], checksum(flow, seq, fs.size))
	copy(p[stampLen:], r.filler(flow, seq, fs.size))
	t0 := r.rec.now()
	got := fs.f.Send(p)
	r.rec.add(spanSend, t0)
	if uint64(got) != seq {
		r.failf("flow %d: Send returned seq %d, want %d", flow, got, seq)
	}
	fs.sent = seq
	if need := int(seq/64) + 1; need > len(fs.seen) {
		fs.seen = append(fs.seen, make([]uint64, need-len(fs.seen)+64)...)
	}
	if r.timed {
		if fs.timedFrom == 0 {
			fs.timedFrom = seq
		}
		r.sent++
		r.sentBytes += uint64(fs.size + headerLen)
	}
}

// onDelivery is every host's delivery handler: it checks the payload
// against its stamp, rejects duplicates, and records latency.
func (r *runner) onDelivery(del jqos.Delivery) {
	p := del.Packet
	pl := p.Payload
	if len(pl) < stampLen {
		r.failf("delivery %v: %d-byte payload", p.ID, len(pl))
		return
	}
	flow := binary.LittleEndian.Uint64(pl[0:])
	seq := binary.LittleEndian.Uint64(pl[8:])
	if flow != uint64(p.ID.Flow) || seq != uint64(p.ID.Seq) || flow == 0 || flow >= uint64(len(r.flows)) {
		r.failf("delivery %v carries stamp %d/%d", p.ID, flow, seq)
		return
	}
	fs := r.flows[flow]
	if len(pl) != fs.size || binary.LittleEndian.Uint64(pl[16:]) != checksum(flow, seq, len(pl)) ||
		!bytes.Equal(pl[stampLen:], r.filler(flow, seq, len(pl))) {
		r.failf("delivery %v: corrupt payload", p.ID)
		return
	}
	if seq == 0 || seq > fs.sent {
		r.failf("delivery %v was never sent (last seq %d)", p.ID, fs.sent)
		return
	}
	if w, bit := seq/64, uint64(1)<<(seq%64); fs.seen[w]&bit != 0 {
		r.failf("delivery %v: duplicate", p.ID)
		return
	} else {
		fs.seen[w] |= bit
	}
	lat := del.At - p.Sent
	if lat < 0 {
		lat = 0
	}
	late := lat > fs.budget
	fs.delivered++
	if !late {
		fs.onTime++
	}
	if fs.timedFrom != 0 && seq >= fs.timedFrom {
		r.delivered++
		if !late {
			r.onTime++
		}
		r.hist.add(lat)
	}
	// Every flow sends at a constant rate while it sends, so the longest
	// wait between two of its deliveries is its worst blackout.
	if r.timed {
		if gap := del.At - fs.lastAt; fs.lastAt >= r.timedStart {
			if gap > fs.maxGap {
				fs.maxGap = gap
			}
			r.gaps.offer(gap)
		}
		fs.lastAt = del.At
	}
}

// result is everything one run of one workload measured.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Correct  bool    `json:"correct"`
	Error    string  `json:"error,omitempty"`
	Failed   uint64  `json:"failed"`
	Sent     uint64  `json:"sent"`
	SimS     float64 `json:"sim_s"`
	// Samples are the latency samples behind the percentiles.
	Samples uint64      `json:"latency_samples"`
	SetupS  []float64   `json:"setup_s_samples"`
	Rounds  []roundStat `json:"rounds"`
	// Flows lists each flow of a small fixed population (omitted when
	// flows churn).
	Flows []flowRow  `json:"flows,omitempty"`
	Check checkpoint `json:"checkpoint"`
	// Metrics holds the end-to-end metrics of an untraced run.
	Metrics map[string]float64 `json:"metrics"`
	// Counts are the exact per-run counts (source C), already divided
	// by packets where the name says so.
	Counts map[string]float64 `json:"counts"`

	ops opsPerPkt
}

// flowRow is one flow's outcome over its lifetime.
type flowRow struct {
	ID        uint64  `json:"id"`
	Service   string  `json:"service"`
	Payload   int     `json:"payload_bytes"`
	PerSecond float64 `json:"pkts_per_sim_s"`
	Sent      uint64  `json:"sent"`
	Delivered uint64  `json:"delivered"`
	OnTime    uint64  `json:"on_time"`
	MaxGapMs  float64 `json:"max_gap_ms"`
}

// measure runs the timed region (n rounds), drains, checks, and fills in
// the result. The runner must have been set up by newRunner.
func (r *runner) measure(n int, res *result) {
	roundTicks := r.ticksFor(r.wl.round)
	d := r.d
	start := d.Snapshot()
	from := r.readCounters(start)
	r.queuedMax = 0
	r.timed, r.timedStart = true, d.Now()
	steps0 := d.Sim().Steps()
	ticks0, pending0 := r.ticks, r.pendingSum
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
	prevMallocs := mallocs0
	if r.rec != nil {
		r.rec.on = true
	}
	for i := 0; i < n; i++ {
		if r.rec != nil {
			r.rec.round = uint8(i + 1)
		}
		sent0 := r.sent
		t0 := time.Now()
		r.advance(roundTicks)
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms)
		res.Rounds = append(res.Rounds, roundStat{
			WallS: wall.Seconds(), Packets: r.sent - sent0, Mallocs: ms.Mallocs - prevMallocs,
		})
		prevMallocs = ms.Mallocs
		if i == 0 {
			res.Check = checkpoint{
				Sent: r.sent, Delivered: r.delivered, OnTime: r.onTime,
				Steps: d.Sim().Steps() - steps0, LatencySum: r.hist.sum,
			}
		}
	}
	if r.rec != nil {
		r.rec.on = false
	}
	mallocs, allocBytes := ms.Mallocs-mallocs0, ms.TotalAlloc-bytes0
	steps := d.Sim().Steps() - steps0
	r.timed = false
	simLen := d.Now() - r.timedStart

	// Live heap with the deployment still holding its per-flow, per-batch
	// and per-sample state.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	liveHeap := ms.HeapAlloc - min(r.heapBase, ms.HeapAlloc)

	res.Counts = map[string]float64{}
	r.gauges(res)

	if r.heal != nil {
		r.heal()
	}
	drained := false
	for waited := time.Duration(0); waited < drainLimit; waited += 100 * time.Millisecond {
		d.Run(100 * time.Millisecond)
		if d.Sim().Pending() == 0 {
			drained = true
			break
		}
	}
	if !drained {
		r.failf("drain did not quiesce within %v simulated (%d events pending)", drainLimit, d.Sim().Pending())
	}
	end := d.Snapshot()
	r.reconcile(end)
	deriveCounts(res, from, r.readCounters(end), r.sent)

	if len(r.flows) <= 17 {
		for _, fs := range r.flows[1:] {
			res.Flows = append(res.Flows, flowRow{
				ID: uint64(fs.f.ID()), Service: fs.f.Service().String(), Payload: fs.size,
				PerSecond: float64(time.Second) / float64(fs.interval),
				Sent:      fs.sent, Delivered: fs.delivered, OnTime: fs.onTime,
				MaxGapMs: float64(fs.maxGap) / float64(time.Millisecond),
			})
		}
	}
	res.Sent = r.sent
	res.SimS = simLen.Seconds()
	res.Samples = r.hist.n
	res.Failed = r.bad
	res.Correct = r.bad == 0
	res.Error = r.firstBad
	wall := make([]float64, n)
	for i, rs := range res.Rounds {
		wall[i] = float64(rs.Packets) / rs.WallS
	}
	sentF := float64(r.sent)
	res.Metrics = map[string]float64{
		"pkts_per_s":     median(wall),
		"allocs_per_pkt": float64(mallocs) / sentF,
		"live_heap_mb":   float64(liveHeap) / 1e6,
		"delivered_frac": float64(r.delivered) / sentF,
		"on_time_frac":   float64(r.onTime) / sentF,
		"latency_p50_ms": r.hist.quantile(0.50),
		"latency_p99_ms": r.hist.quantile(0.99),
		"cloud_overhead": float64(end.Totals.EgressBytes-start.Totals.EgressBytes) / float64(r.sentBytes),
		"max_gap_ms":     r.gaps.meanMs(),
	}
	res.Counts["jqos.alloc_bytes_per_pkt"] = float64(allocBytes) / sentF
	res.Counts["netem.events_per_pkt"] = float64(steps) / sentF
	res.Counts["netem.events_per_s"] = float64(steps) / sumWall(res.Rounds)
	res.Counts["netem.pending_mean"] = float64(r.pendingSum-pending0) / float64(r.ticks-ticks0)
	res.Counts["jqos.round_slowdown"] = wall[0] / wall[n-1]
	res.Counts["routing.detect_ms_p50"] = quantile(r.detectMs, 0.5)
}

func sumWall(rs []roundStat) float64 {
	var s float64
	for _, r := range rs {
		s += r.WallS
	}
	return s
}

// reconcile compares the driver's own counts with each flow's metrics and
// with the deployment-wide totals.
func (r *runner) reconcile(snap *jqosSnapshot) {
	var sent, delivered, onTime uint64
	for _, fs := range r.live {
		m := fs.f.Metrics()
		if m.Sent != fs.sent || m.Delivered != fs.delivered || m.OnTime != fs.onTime {
			r.failf("flow %d: metrics sent/delivered/on-time %d/%d/%d, driver %d/%d/%d",
				fs.f.ID(), m.Sent, m.Delivered, m.OnTime, fs.sent, fs.delivered, fs.onTime)
		}
		sent += fs.sent
		delivered += fs.delivered
		onTime += fs.onTime
	}
	t := snap.Totals
	if t.Sent != sent || t.Delivered != delivered || t.OnTime != onTime || t.Flows != len(r.live) {
		r.failf("snapshot totals flows/sent/delivered/on-time %d/%d/%d/%d, driver %d/%d/%d/%d",
			t.Flows, t.Sent, t.Delivered, t.OnTime, len(r.live), sent, delivered, onTime)
	}
}

// longestGaps keeps the gapsKept longest delivery gaps of a run in a
// min-heap. max_gap_ms is their mean: the single longest gap swings by
// ±50 % with the seed, the mean of the longest hundred by a few percent,
// and both move alike when failover gets slower or faster.
type longestGaps struct {
	h [gapsKept]time.Duration
	n int
}

const gapsKept = 100

func (g *longestGaps) offer(gap time.Duration) {
	i := 0
	switch {
	case g.n < gapsKept: // sift the new leaf up
		i = g.n
		g.n++
		for g.h[i] = gap; i > 0 && g.h[(i-1)/2] > g.h[i]; i = (i - 1) / 2 {
			g.h[i], g.h[(i-1)/2] = g.h[(i-1)/2], g.h[i]
		}
		return
	case gap <= g.h[0]:
		return
	}
	g.h[0] = gap // replace the shortest kept gap and sift it down
	for {
		c := 2*i + 1
		if c >= gapsKept {
			return
		}
		if c+1 < gapsKept && g.h[c+1] < g.h[c] {
			c++
		}
		if g.h[i] <= g.h[c] {
			return
		}
		g.h[i], g.h[c] = g.h[c], g.h[i]
		i = c
	}
}

func (g *longestGaps) meanMs() float64 {
	if g.n == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range g.h[:g.n] {
		sum += v
	}
	return float64(sum) / float64(g.n) / float64(time.Millisecond)
}

// latencyHist is a fixed log-bucket histogram: 32 buckets per octave
// (2.2 % wide) from 1 µs up, with linear interpolation inside a bucket.
type latencyHist struct {
	b   [histBuckets]uint64
	n   uint64
	sum time.Duration
}

const (
	histPerOctave = 32
	histBuckets   = histPerOctave * 28 // 1 µs … 268 s
)

func (h *latencyHist) add(lat time.Duration) {
	i := 0
	if lat > time.Microsecond {
		i = int(math.Log2(float64(lat)/1e3) * histPerOctave)
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.b[i]++
	h.n++
	h.sum += lat
}

// quantile returns the q-quantile in milliseconds.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := math.Exp2(float64(i) / histPerOctave)
			hi := math.Exp2(float64(i+1) / histPerOctave)
			return (lo + (hi-lo)*(rank-cum)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	return 0
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linear-interpolation quantile of a small sample (0 for
// an empty one).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}
