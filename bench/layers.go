package main

// layers.go holds the isolated drivers (source D of the per-layer
// ledger): each times one layer's public function from outside, shaped by
// the workload it is reported for — its payload size, K=6/R=2 batches,
// and the live batch, cache and event-heap depths read from that
// workload's own run. Together with seams.go it is the only file that
// names jqos/internal/*.

import (
	"sort"
	"time"

	"jqos/internal/cache"
	"jqos/internal/coding"
	"jqos/internal/core"
	"jqos/internal/feedback"
	"jqos/internal/forward"
	"jqos/internal/load"
	"jqos/internal/netem"
	"jqos/internal/overlay"
	"jqos/internal/recovery"
	"jqos/internal/routing"
	"jqos/internal/rs"
	"jqos/internal/sched"
	"jqos/internal/tenant"
	"jqos/internal/wire"
)

const (
	codeK = 6
	codeR = 2
)

// layerShape is what a workload's own run tells the isolated drivers.
type layerShape struct {
	payload     int
	pendingMean int // event-heap depth
	batchesLive int // coded batches held by the recoverers
	cacheItems  int // packets held by the caches
	flows       int // open flows (the caches index packets per flow)
	dcs         int
	hosts       int
	links       []linkDef
}

type linkDef struct {
	a, b core.NodeID
	x    time.Duration
}

// The sinks keep results alive so the compiler cannot drop the timed
// calls; they are typed so that storing into them does not allocate.
var (
	sinkN   int
	sinkB   []byte
	sinkRes recovery.Result
)

// nsPerOp times n calls of fn three times and returns the median ns/op.
func nsPerOp(n int, fn func(i int)) float64 {
	var runs [3]float64
	for k := range runs {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(k*n + i)
		}
		runs[k] = float64(time.Since(t0)) / float64(n)
	}
	sort.Float64s(runs[:])
	return runs[1]
}

// isolatedDrivers runs every D driver for one workload shape.
func isolatedDrivers(sh layerShape, topo *overlay.Topology, src, dst core.NodeID, budget time.Duration) map[string]float64 {
	m := map[string]float64{}
	payload := make([]byte, sh.payload)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	hdr := wire.Header{Type: wire.TypeData, Service: core.ServiceCoding, Flow: 1, Seq: 1, Src: 10, Dst: 11}
	msg := wire.AppendMessage(nil, &hdr, payload)
	noop := func() {}

	// netem: schedule and run one empty event with the workload's mean
	// number of events pending.
	{
		sim := netem.NewSimulator(1)
		for i := 0; i < sh.pendingMean; i++ {
			sim.At(time.Hour+time.Duration(i), noop)
		}
		m["netem.event_ns"] = nsPerOp(100_000, func(int) {
			sim.After(time.Microsecond, noop)
			sim.RunFor(time.Microsecond)
		})
		link := netem.NewLink(sim, netem.UniformJitter{Base: 50 * time.Millisecond, Jitter: 2 * time.Millisecond},
			netem.NewGilbertElliott(0.01, 3))
		deliver := func(core.Time) {}
		// Send plus the delivery event it schedules, drained in batches so
		// the heap stays near the workload's depth.
		m["netem.link_send_ns"] = nsPerOp(50_000, func(i int) {
			link.Send(len(msg), deliver)
			if i%256 == 255 {
				sim.RunFor(time.Second)
			}
		})
	}

	// wire
	m["wire.append_ns"] = nsPerOp(100_000, func(int) { sinkB = wire.AppendMessage(nil, &hdr, payload) })
	m["wire.split_ns"] = nsPerOp(200_000, func(int) {
		var h wire.Header
		sinkB, _ = wire.SplitMessage(&h, msg)
	})

	// coding: the encoder fed 8 interleaved flows at the coding workloads'
	// rate, Reed-Solomon included when a batch fills.
	{
		enc, err := coding.NewEncoder(1, coding.DefaultEncoderConfig())
		if err != nil {
			panic(err)
		}
		m["coding.encoder_ondata_ns"] = nsPerOp(20_000, func(i int) {
			now := time.Duration(i) * 250 * time.Microsecond
			flow := core.FlowID(1 + i%8)
			sinkN += len(enc.OnData(now, 2, core.NodeID(100)+core.NodeID(flow), flow, core.Seq(i/8+1), payload))
		})
	}
	{
		// filled returns a recoverer already holding the workload's live
		// number of coded batches, and a function storing one more.
		shard := make([]byte, rs.PackedSize(sh.payload))
		filled := func() (*coding.Recoverer, func()) {
			rec := coding.NewRecoverer(2, coding.DefaultRecovererConfig())
			var batch uint64
			store := func() {
				batch++
				var srcs [codeK]wire.SourceRef
				for k := range srcs {
					srcs[k] = wire.SourceRef{Flow: core.FlowID(k + 1), Seq: core.Seq(batch), Receiver: core.NodeID(100 + k)}
				}
				meta := wire.Coded{Batch: batch, Kind: wire.CrossStream, K: codeK, R: codeR, ShardLen: uint16(len(shard)), Sources: srcs[:]}
				h := wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding, Src: 1, Dst: 2}
				sinkN += len(rec.OnCoded(0, &h, &meta, shard))
			}
			for i := 0; i < sh.batchesLive; i++ {
				store()
			}
			return rec, store
		}
		_, store := filled()
		m["coding.recoverer_oncoded_ns"] = nsPerOp(5_000, func(int) { store() })
		// The deadline scan the DC runs after every message it handles.
		rec, _ := filled()
		m["coding.recoverer_deadline_ns"] = nsPerOp(2_000, func(int) {
			dl, _ := rec.NextDeadline()
			sinkN += int(dl)
		})
	}

	// rs: one K=6/R=2 batch of packed shards at the workload payload.
	{
		codec, err := rs.NewCodec(codeK, codeR)
		if err != nil {
			panic(err)
		}
		size := rs.PackedSize(sh.payload)
		shards := make([][]byte, codeK+codeR)
		for i := range shards {
			shards[i] = make([]byte, size)
			for j := range shards[i] {
				shards[i][j] = byte(i*31 + j)
			}
		}
		ns := nsPerOp(5_000, func(int) {
			if err := codec.Encode(shards); err != nil {
				panic(err)
			}
		})
		m["rs.encode_ns_per_batch"] = ns
		m["rs.encode_mb_per_s"] = float64(codeK*size) / ns * 1e3
		m["rs.reconstruct_ns"] = nsPerOp(5_000, func(int) {
			shards[2] = nil
			if err := codec.Reconstruct(shards); err != nil {
				panic(err)
			}
		})
	}

	// recovery: the receiver's in-order data path.
	{
		rx := recovery.New(recovery.DefaultConfig(11, 2, 100*time.Millisecond))
		h := hdr
		m["recovery.ondata_ns"] = nsPerOp(100_000, func(i int) {
			h.Seq = core.Seq(i + 1)
			h.TS = time.Duration(i) * 2 * time.Millisecond
			sinkRes = rx.OnData(h.TS+50*time.Millisecond, &h, payload)
		})
	}

	// cache: put and hit at the workload's live depth, the clock moving so
	// that TTL expiry keeps the depth steady.
	{
		depth := sh.cacheItems
		if depth < 1 {
			depth = 1
		}
		ttl := 2 * time.Second
		st := cache.NewStore(ttl, 0)
		step := ttl / time.Duration(depth)
		var seq uint64
		flows := uint64(sh.flows)
		id := func(n uint64) core.PacketID {
			return core.PacketID{Flow: core.FlowID(1 + n%flows), Seq: core.Seq(1 + n/flows)}
		}
		put := func() {
			seq++
			st.Put(time.Duration(seq)*step, id(seq), payload)
		}
		for i := 0; i < depth; i++ {
			put()
		}
		m["cache.put_ns"] = nsPerOp(20_000, func(int) { put() })
		m["cache.get_ns"] = nsPerOp(20_000, func(i int) {
			sinkB, _ = st.Get(time.Duration(seq)*step, id(seq-uint64(i%depth)/2))
		})
	}

	// forward: one table lookup and emit.
	{
		f := forward.New(1)
		f.SetRoute(11, 2)
		m["forward.route_ns"] = nsPerOp(200_000, func(int) { sinkN += len(f.Forward(11, msg)) })
	}

	// sched: enqueue and dequeue through the mesh's DRR configuration.
	{
		s := sched.New(sched.Config{
			Weights:    map[core.Service]int{core.ServiceForwarding: 8, core.ServiceCaching: 1},
			QueueBytes: 32 << 10, LowWatermark: 0.125, HighWatermark: 0.5, PerFlowQueues: true,
		})
		m["sched.enq_deq_ns"] = nsPerOp(100_000, func(i int) {
			s.EnqueueStamped(core.ServiceForwarding, core.FlowID(1+i%4), msg, 0)
			it, _ := s.Dequeue()
			sinkB = it.Msg
		})
	}

	// load and tenant admission, the clock moving fast enough that the
	// buckets admit.
	{
		b := load.NewBucket(500_000, 16<<10)
		m["load.bucket_admit_ns"] = nsPerOp(200_000, func(i int) {
			if b.Admit(time.Duration(i)*4*time.Millisecond, len(msg)) {
				sinkN++
			}
		})
		reg := load.NewRegistry(time.Second)
		reg.Track(1, 2, 1_000_000)
		m["load.record_ns"] = nsPerOp(200_000, func(i int) {
			reg.Record(time.Duration(i)*time.Millisecond, 1, 2, core.ServiceForwarding, len(msg))
		})
		tn, err := tenant.NewRegistry().Register(tenant.Contract{ID: 1, Rate: 800_000, Burst: 32 << 10}, feedback.PacerConfig{})
		if err != nil {
			panic(err)
		}
		m["tenant.admit_ns"] = nsPerOp(200_000, func(i int) {
			if tn.Admit(time.Duration(i)*4*time.Millisecond, len(msg)) {
				sinkN++
			}
		})
	}

	// routing: one link going down and coming back on a controller that
	// mirrors the workload's graph (incremental SPF plus table pushes).
	{
		c := routing.NewController(2)
		for i := 1; i <= sh.dcs; i++ {
			c.AddDC(core.NodeID(i), forward.New(core.NodeID(i)))
		}
		for _, l := range sh.links {
			c.SetLink(l.a, l.b, l.x)
		}
		for h := 0; h < sh.hosts; h++ {
			c.AttachHost(core.NodeID(100+h), core.NodeID(1+h%sh.dcs))
		}
		l := sh.links[0]
		m["routing.set_health_us"] = nsPerOp(500, func(int) {
			c.SetLinkHealth(l.a, l.b, routing.LinkDown, 0)
			c.SetLinkHealth(l.a, l.b, routing.LinkUp, 0)
		}) / 1e3
	}

	// overlay: service selection on the workload's own live topology.
	m["overlay.select_ns"] = nsPerOp(100_000, func(int) {
		svc, _, _ := topo.SelectService(src, dst, budget, true)
		sinkN += int(svc)
	})
	return m
}

// spinMs is the calibration loop: a fixed amount of xorshift arithmetic
// and memory copying, timed before and after each workload so a noisy
// neighbour shows up in the artifact.
func spinMs() float64 {
	var a, b [4096]byte
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 400_000; i++ {
		for j := 0; j < 64; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		a[i%len(a)] = byte(x)
		copy(b[:], a[:])
	}
	sinkN += int(b[x%4096])
	return float64(time.Since(t0)) / 1e6
}
