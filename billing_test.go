package jqos_test

import (
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/wire"
	"jqos/internal/worlds"
)

// billingRef rebuilds cloud egress outside the deployment: an installed
// Network().Tap sums every accepted datagram a DC sends, and each DC's
// handler, wrapped, sums the control messages (probes, acks, congestion
// signals) as they arrive. A link delivers every datagram it accepts, so
// once a run drains, tapped minus control is what the DCs' data planes put
// on the wire.
type billingRef struct {
	tapped, control map[core.NodeID]uint64
	seen            map[wire.MsgType]int // control messages by type
}

func newBillingRef(d *jqos.Deployment, dcs ...core.NodeID) *billingRef {
	r := &billingRef{
		tapped:  map[core.NodeID]uint64{},
		control: map[core.NodeID]uint64{},
		seen:    map[wire.MsgType]int{},
	}
	isDC := map[core.NodeID]bool{}
	for _, dc := range dcs {
		isDC[dc] = true
	}
	net := d.Network()
	net.Tap = func(from, _ core.NodeID, size int) {
		if isDC[from] {
			r.tapped[from] += uint64(size)
		}
	}
	for _, dc := range dcs {
		h := net.NodeHandler(dc)
		net.AddNode(dc, func(from, to core.NodeID, data []byte) {
			var hdr wire.Header
			if _, err := wire.SplitMessage(&hdr, data); err == nil {
				switch hdr.Type {
				case wire.TypeProbe, wire.TypeProbeAck, wire.TypeCongestion:
					r.control[from] += uint64(len(data))
					r.seen[hdr.Type]++
				}
			}
			h(from, to, data)
		})
	}
	return r
}

// check requires each DC's EgressBytes, and their total, to equal the
// reference exactly.
func (r *billingRef) check(t *testing.T, d *jqos.Deployment, dcs ...core.NodeID) {
	t.Helper()
	var total uint64
	for _, dc := range dcs {
		want := r.tapped[dc] - r.control[dc]
		if got := d.EgressBytes(dc); got != want {
			t.Errorf("EgressBytes(%v) = %d, want %d (tapped %d, control %d)",
				dc, got, want, r.tapped[dc], r.control[dc])
		}
		total += want
	}
	if got := d.TotalEgressBytes(); got != total {
		t.Errorf("TotalEgressBytes() = %d, want %d", got, total)
	}
}

// TestEgressBilledOnce holds cloud egress to its one rule — a DC's data
// plane put the bytes on a link and the link accepted them — on a chain
// whose second hop is a bottleneck: coding, caching and forwarding flows
// from dc1 to dc3, probing on every link, and congestion signals crossing
// the wire back to the ingress. A caller's own Network().Tap must not move
// the bill, and control traffic is never billed.
func TestEgressBilledOnce(t *testing.T) {
	d := jqos.NewDeploymentWithConfig(5, backpressureConfig(0, true))
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionUSWest)
	dc3 := d.AddDC("c", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 10*time.Millisecond)
	worlds.ConnectPaced(d, dc2, dc3, 10*time.Millisecond, 1_000_000)
	d.Link(dc1, dc2).SetCapacity(10_000_000)
	d.Link(dc2, dc3).SetCapacity(1_000_000)

	const span = 2 * time.Second
	flow := func(svc jqos.Service, size int, every time.Duration, direct bool) {
		src, dst := worlds.HostPair(d, dc1, dc3)
		if direct {
			d.SetDirectPath(src, dst, netem.FixedDelay(40*time.Millisecond), netem.Bernoulli{P: 0.05})
		}
		f, err := d.RegisterFlow(jqos.FlowSpec{
			Src: src, Dst: dst, Budget: 500 * time.Millisecond,
			Service: svc, ServiceFixed: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		worlds.CBR(d, f, size, every, 0, span)
	}
	flow(jqos.ServiceForwarding, 1000, time.Millisecond, false) // twice the bottleneck
	flow(jqos.ServiceForwarding, 1000, time.Millisecond, false)
	flow(jqos.ServiceCaching, 300, 5*time.Millisecond, true)
	flow(jqos.ServiceCoding, 300, 5*time.Millisecond, true)

	ref := newBillingRef(d, dc1, dc2, dc3)
	d.RunUntilQuiet()
	for _, typ := range []wire.MsgType{wire.TypeProbe, wire.TypeProbeAck, wire.TypeCongestion} {
		if ref.seen[typ] == 0 {
			t.Errorf("no %v crossed the wire: the run does not exercise control traffic", typ)
		}
	}
	if d.DC(dc1).Encoder().Stats().CodedBytes == 0 {
		t.Error("no coded packets: the run does not exercise coding")
	}
	ref.check(t, d, dc1, dc2, dc3)

	// Probing alone bills nothing.
	idle, a, b := worlds.Paper(6, jqos.DefaultConfig())
	idleRef := newBillingRef(idle, a, b)
	idle.Run(5 * time.Second)
	if idleRef.seen[wire.TypeProbe] == 0 {
		t.Error("the idle deployment sent no probes")
	}
	if got := idle.TotalEgressBytes(); got != 0 {
		t.Errorf("a deployment with no flows billed %d bytes of egress", got)
	}
	idleRef.check(t, idle, a, b)
}
