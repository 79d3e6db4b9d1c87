package jqos_test

import (
	"fmt"
	"testing"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
)

// multicastWorld builds src —5ms— DC1 —40ms— DC2 with three group members
// near DC2, each on a 50 ms direct path from src shaped by loss(i).
func multicastWorld(seed int64, cfg jqos.Config, loss func(i int) netem.LossModel) (d *jqos.Deployment, dc2, src, group jqos.NodeID, members []jqos.NodeID) {
	d = jqos.NewDeploymentWithConfig(seed, cfg)
	dc1 := d.AddDC("us-east", dataset.RegionUSEast)
	dc2 = d.AddDC("eu-west", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	src = d.AddHost(dc1, 5*time.Millisecond)
	for i := 0; i < 3; i++ {
		m := d.AddHost(dc2, time.Duration(8+i)*time.Millisecond)
		d.SetDirectPath(src, m, netem.FixedDelay(50*time.Millisecond), loss(i))
		members = append(members, m)
	}
	group = d.AllocGroupID()
	d.AddGroup(dc2, group, members...)
	return d, dc2, src, group, members
}

// TestSendAllocatesNothing: every copy of a Send — one per direct
// destination, plus the cloud copy — is a buffer from the deployment's
// pool, which the consumers of a warm run have handed back. The warm-up
// also grows the event heap and the network's free list of delivery records
// past what the measured sends need. None of the measured copies is
// consumed while they are measured, and a pool class keeps at most 64
// buffers: 11 sends of four copies stay within it, and a burst of 101 runs
// past it, where each send carves its copies from one array instead.
func TestSendAllocatesNothing(t *testing.T) {
	d, dc2, src, group, members := multicastWorld(1, jqos.DefaultConfig(), func(int) netem.LossModel { return nil })
	dst := d.AddHost(dc2, 8*time.Millisecond)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), nil)
	unicast, err := d.RegisterFlow(fixedSpec(src, dst, time.Hour, jqos.ServiceCoding))
	if err != nil {
		t.Fatal(err)
	}
	multicast, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Group: group, Members: members,
		Budget: 400 * time.Millisecond, Service: jqos.ServiceCaching, ServiceFixed: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	for _, c := range []struct {
		name string
		f    *jqos.Flow
	}{{"unicast with a cloud copy", unicast}, {"3-member hybrid multicast", multicast}} {
		send := func() { c.f.Send(payload) }
		for i := 0; i < 300; i++ {
			send()
		}
		d.Run(time.Second)
		if n := testing.AllocsPerRun(10, send); n != 0 {
			t.Errorf("%s: Send allocates %v times, want 0", c.name, n)
		}
		d.Run(time.Second)
		if n := testing.AllocsPerRun(100, send); n > 1 {
			t.Errorf("%s: a burst past the pool allocates %v times per Send, want at most 1", c.name, n)
		}
		d.Run(time.Second)
	}
}

// overwriter records each delivered payload as it arrives, copying it,
// then overwrites it with 0xFF: the payload is the application's while its
// handler runs, so no other holder — another copy's recipient, the
// receiver's window, a DC cache — may see it change.
type overwriter struct {
	got map[jqos.NodeID]map[jqos.Seq]string
	via map[jqos.NodeID]map[jqos.Seq]jqos.Service
}

func newOverwriter(d *jqos.Deployment, hosts ...jqos.NodeID) *overwriter {
	o := &overwriter{got: map[jqos.NodeID]map[jqos.Seq]string{}, via: map[jqos.NodeID]map[jqos.Seq]jqos.Service{}}
	for _, h := range hosts {
		h := h
		o.got[h], o.via[h] = map[jqos.Seq]string{}, map[jqos.Seq]jqos.Service{}
		d.Host(h).SetDeliveryHandler(func(del core.Delivery) {
			o.got[h][del.Packet.ID.Seq] = string(del.Packet.Payload)
			o.via[h][del.Packet.ID.Seq] = del.Via
			for i := range del.Packet.Payload {
				del.Packet.Payload[i] = 0xFF
			}
		})
	}
	return o
}

// check fails on any delivery to h whose bytes are not what was sent.
func (o *overwriter) check(t *testing.T, h jqos.NodeID, sent map[jqos.Seq][]byte) {
	t.Helper()
	for seq, p := range o.got[h] {
		if p != string(sent[seq]) {
			t.Fatalf("%v seq %d: delivered %q, sent %q", h, seq, p, sent[seq])
		}
	}
}

func frame(seq int) []byte { return []byte(fmt.Sprintf("frame %03d of the stream", seq)) }

// TestDeliveredPayloadIsTheApplications: every member of a group overwrites
// each payload it is handed, and every member's deliveries still carry the
// sent bytes — over the direct path (one copy of the sender's per member),
// through DC2's multicast fan-out (a copy per member), and from a DC cache
// drained after the others overwrote theirs.
func TestDeliveredPayloadIsTheApplications(t *testing.T) {
	t.Run("direct regions and DC fan-out copies", func(t *testing.T) {
		// Forwarding without path switching: each member gets a direct copy
		// and DC2's fan-out copy; lossy direct paths make members take the
		// fan-out copy of the same packet.
		d, _, src, group, members := multicastWorld(3, jqos.DefaultConfig(), func(int) netem.LossModel { return netem.Bernoulli{P: 0.3} })
		o := newOverwriter(d, members...)
		f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Group: group, Members: members,
			Budget: 400 * time.Millisecond, Service: jqos.ServiceForwarding, ServiceFixed: true})
		if err != nil {
			t.Fatal(err)
		}
		const packets = 200
		sent := map[jqos.Seq][]byte{}
		for i := 1; i <= packets; i++ {
			i := i
			d.Sim().At(time.Duration(i)*5*time.Millisecond, func() { sent[f.Send(frame(i))] = frame(i) })
		}
		d.Run(5 * time.Second)
		sharedFanOut := 0
		for seq := jqos.Seq(1); seq <= packets; seq++ {
			n := 0
			for _, m := range members {
				if o.via[m][seq] == jqos.ServiceForwarding {
					n++
				}
			}
			if n >= 2 {
				sharedFanOut++
			}
		}
		for _, m := range members {
			if len(o.got[m]) != packets {
				t.Errorf("%v: %d of %d delivered", m, len(o.got[m]), packets)
			}
			o.check(t, m, sent)
		}
		if sharedFanOut == 0 {
			t.Error("no packet reached two members by DC fan-out: the script exercises nothing")
		}
	})

	t.Run("cache drain", func(t *testing.T) {
		// Hybrid multicast: member 0 is offline while the others receive
		// and overwrite; it drains the DC2 cache afterwards.
		cfg := jqos.DefaultConfig()
		cfg.CacheTTL = time.Hour
		d, _, src, group, members := multicastWorld(4, cfg, func(i int) netem.LossModel {
			if i == 0 {
				return netem.Bernoulli{P: 1}
			}
			return nil
		})
		o := newOverwriter(d, members...)
		f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Group: group, Members: members,
			Budget: time.Hour, Service: jqos.ServiceCaching, ServiceFixed: true})
		if err != nil {
			t.Fatal(err)
		}
		const packets = 30
		sent := map[jqos.Seq][]byte{}
		for i := 1; i <= packets; i++ {
			i := i
			d.Sim().At(time.Duration(i)*10*time.Millisecond, func() { sent[f.Send(frame(i))] = frame(i) })
		}
		d.Run(2 * time.Second)
		if len(o.got[members[0]]) != 0 {
			t.Fatalf("offline member got %d packets", len(o.got[members[0]]))
		}
		d.Host(members[0]).PullFlow(f.ID(), 0)
		d.Run(2 * time.Second)
		for _, m := range members {
			if len(o.got[m]) != packets {
				t.Errorf("%v: %d of %d delivered", m, len(o.got[m]), packets)
			}
			o.check(t, m, sent)
		}
		for seq, via := range o.via[members[0]] {
			if via != jqos.ServiceCaching {
				t.Fatalf("drained seq %d came via %v, want the cache", seq, via)
			}
		}
	})
}
