// Package worlds builds the deployments the examples, the experiments, the
// chaos runner and jqos-stat -demo run on, so that each world is written
// once. The paper evaluates everything on one testbed and varies the
// workload (§6); the scenarios here do the same with three shapes. Each
// scenario has one program: its experiment (`jqos-figures -fig <id>
// -quick`), or an example where no experiment runs it.
//
//   - Bottleneck: us-east —20 ms— eu-west, serialized at Config.LinkCapacity.
//     NewContended puts two bulk flows and one interactive flow on it and
//     loads them. Callers: experiments/{fairshare,backpressure}.go through
//     NewContended; experiments/tenancy.go (three worlds) directly, since a
//     tenant is registered between the topology and its flows.
//   - Paper: us-east —40 ms— eu-west, the testbed of §6.1. Callers:
//     examples/{mobility,multicast}, experiments/{fig9a,misc}.go,
//     cmd/jqos-stat -demo. examples/quickstart builds the same world by hand,
//     as the tutorial of the raw API.
//   - Diamond: us-east —near— us-west —near— ap-south beside us-east —far—
//     eu-west —far— ap-south, no link between the ends. Callers:
//     experiments/reroute.go (15 ms / 25 ms) and experiments/congestion.go
//     (20 ms / 20 ms).
//
// A shape with one caller stays with that caller (examples/pinning's
// triangle, experiments/fig8.go's dataset-driven pair, chaos's five-link
// mesh) and takes only the shared pieces from here: HostPair, ConnectPaced,
// CBR, Record, ContendedConfig.
//
// Seeded outputs depend on the order a world is put together in: node IDs
// are handed out in call order (DCs first, then hosts pair by pair, sender
// before receiver), every link draws its RNG stream when it is created, and
// events scheduled for the same instant run in the order they were
// scheduled. Each builder keeps the order its callers had; testdata/golden
// holds every printed byte to it.
package worlds

import (
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/stats"
)

// ContendedConfig is the configuration of a world whose links saturate:
// every inter-DC link accounted at 1 MB/s, and an egress scheduler sharing
// it 8:1 between interactive (forwarding) and bulk (caching) traffic over
// 64 kB class queues, ~64 ms of link time. Callers change what their
// scenario is about — watermarks and feedback, per-flow sub-queues, queue
// depth, or no scheduler at all.
func ContendedConfig() jqos.Config {
	cfg := jqos.DefaultConfig()
	cfg.LinkCapacity = 1_000_000
	cfg.Scheduler = jqos.SchedulerConfig{
		Weights:    map[jqos.Service]int{jqos.ServiceForwarding: 8, jqos.ServiceCaching: 1},
		QueueBytes: 64 << 10,
	}
	return cfg
}

// HostPair attaches a sender 5 ms from srcDC and a receiver 8 ms from dstDC,
// the access latencies of every scripted endpoint. The sender is created
// first, so dst == src+1.
func HostPair(d *jqos.Deployment, srcDC, dstDC core.NodeID) (src, dst core.NodeID) {
	src = d.AddHost(srcDC, 5*time.Millisecond)
	dst = d.AddHost(dstDC, 8*time.Millisecond)
	return src, dst
}

// ConnectPaced is ConnectDCs plus serialization: the emulated link sends at
// rate bytes/second in both directions, so a backlog at the accounting
// capacity queues for real. A zero rate leaves the link unpaced.
func ConnectPaced(d *jqos.Deployment, a, b core.NodeID, latency time.Duration, rate int64) {
	d.ConnectDCs(a, b, latency)
	d.Network().LinkBetween(a, b).Rate = rate
	d.Network().LinkBetween(b, a).Rate = rate
}

// CBR schedules a constant-bitrate load on f: one packet of size bytes at
// from, from+every, … for as long as that is before until. Packets of
// different flows due at the same instant leave in the order of the CBR
// calls.
func CBR(d *jqos.Deployment, f *jqos.Flow, size int, every, from, until time.Duration) {
	for at := from; at < until; at += every {
		d.Sim().At(at, func() { f.Send(make([]byte, size)) })
	}
}

// Recorder keeps one receiver's delivery latency by send time: the worst
// over all deliveries, and per bucket of send time the number delivered and
// the sum of their latencies.
type Recorder struct {
	Worst  time.Duration
	Bucket time.Duration
	Counts []int
	Sums   []time.Duration
}

// Record makes host's delivery handler a Recorder with span/bucket buckets
// covering send times [0, span). A packet sent outside them counts toward
// Worst only; a zero bucket records nothing else.
func Record(d *jqos.Deployment, host core.NodeID, span, bucket time.Duration) *Recorder {
	r := &Recorder{Bucket: bucket}
	if bucket > 0 {
		n := span / bucket
		r.Counts, r.Sums = make([]int, n), make([]time.Duration, n)
	}
	d.Host(host).SetDeliveryHandler(r.observe)
	return r
}

func (r *Recorder) observe(del core.Delivery) {
	lat := del.At - del.Packet.Sent
	if lat > r.Worst {
		r.Worst = lat
	}
	if sent := del.Packet.Sent; sent >= 0 && len(r.Counts) > 0 && int(sent/r.Bucket) < len(r.Counts) {
		r.Counts[sent/r.Bucket]++
		r.Sums[sent/r.Bucket] += lat
	}
}

// Series is the figure form: mean latency in ms against bucket start in
// seconds, leaving out a bucket nothing was delivered from.
func (r *Recorder) Series(name string) stats.Series {
	s := stats.Series{Name: name}
	for b, n := range r.Counts {
		if n > 0 {
			mean := r.Sums[b] / time.Duration(n)
			s.Append((time.Duration(b) * r.Bucket).Seconds(), float64(mean)/float64(time.Millisecond))
		}
	}
	return s
}

// Bottleneck is the one-link world: us-east —20 ms— eu-west, the only path
// between its DCs, serialized at cfg.LinkCapacity so that what accounting
// calls saturated is saturated.
func Bottleneck(seed int64, cfg jqos.Config) (d *jqos.Deployment, dc1, dc2 core.NodeID) {
	d = jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 = d.AddDC("us-east", dataset.RegionUSEast)
	dc2 = d.AddDC("eu-west", dataset.RegionEU)
	ConnectPaced(d, dc1, dc2, 20*time.Millisecond, cfg.LinkCapacity)
	return d, dc1, dc2
}

// Contended is a Bottleneck that two bulk flows oversubscribe 2× while an
// interactive flow shares it. All three are overlay-only (no direct
// Internet path) and each has its own host pair: nodes 3–6 carry the bulk
// flows, 7 and 8 the interactive one.
type Contended struct {
	D        *jqos.Deployment
	DC1, DC2 core.NodeID
	Bulks    [2]*jqos.Flow
	Inter    *jqos.Flow
	// Latency records the interactive flow's deliveries in 200 ms buckets
	// of send time over the loaded span.
	Latency *Recorder
}

// NewContended builds the world and schedules its load. bulk is what the
// scenario says about its bulk flows — service class, admission contract,
// event subscriber; the builder fills in the endpoints, a 500 ms budget and
// ServiceFixed. The interactive flow is fixed forwarding with the given
// budget. Over [0, span) each bulk flow offers 1000 B every ms (1 MB/s, the
// whole link) and the interactive flow 200 B every 5 ms (40 kB/s); at a
// shared instant the bulk packets leave first.
func NewContended(seed int64, cfg jqos.Config, bulk jqos.FlowSpec, budget, span time.Duration) (*Contended, error) {
	w := &Contended{}
	w.D, w.DC1, w.DC2 = Bottleneck(seed, cfg)
	for i := range w.Bulks {
		bulk.Src, bulk.Dst = HostPair(w.D, w.DC1, w.DC2)
		bulk.Budget, bulk.ServiceFixed = 500*time.Millisecond, true
		f, err := w.D.RegisterFlow(bulk)
		if err != nil {
			return nil, err
		}
		w.Bulks[i] = f
	}
	src, dst := HostPair(w.D, w.DC1, w.DC2)
	inter, err := w.D.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: budget,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
	})
	if err != nil {
		return nil, err
	}
	w.Inter = inter
	w.Latency = Record(w.D, dst, span, 200*time.Millisecond)
	for _, f := range w.Bulks {
		CBR(w.D, f, 1000, time.Millisecond, 0, span)
	}
	CBR(w.D, inter, 200, 5*time.Millisecond, 0, span)
	return w, nil
}

// Paper is the testbed of §6.1: us-east —40 ms— eu-west. Senders attach to
// dc1 and receivers to dc2 with HostPair; the direct Internet path between
// them, and any helper flows for cross-stream coding, are the caller's
// scenario.
func Paper(seed int64, cfg jqos.Config) (d *jqos.Deployment, dc1, dc2 core.NodeID) {
	d = jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 = d.AddDC("us-east", dataset.RegionUSEast)
	dc2 = d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	return d, dc1, dc2
}

// Diamond is the sparse four-DC overlay: two two-hop branches between dcs[0]
// (us-east) and dcs[3] (ap-south) — through dcs[1] (us-west) at near per
// hop, through dcs[2] (eu-west) at far per hop — and no link between the
// ends, so every packet between them is routed.
func Diamond(seed int64, cfg jqos.Config, near, far time.Duration) (*jqos.Deployment, [4]core.NodeID) {
	d := jqos.NewDeploymentWithConfig(seed, cfg)
	dcs := [4]core.NodeID{
		d.AddDC("us-east", dataset.RegionUSEast),
		d.AddDC("us-west", dataset.RegionUSWest),
		d.AddDC("eu-west", dataset.RegionEU),
		d.AddDC("ap-south", dataset.RegionAsia),
	}
	d.ConnectDCs(dcs[0], dcs[1], near)
	d.ConnectDCs(dcs[1], dcs[3], near)
	d.ConnectDCs(dcs[0], dcs[2], far)
	d.ConnectDCs(dcs[2], dcs[3], far)
	return d, dcs
}
