// Mobility demonstrates the caching service as a DTN-style rendezvous
// point (Figure 3e): a sender publishes while the receiver is offline;
// packets wait in the DC cache; on reconnect the receiver drains the flow.
//
//	go run ./examples/mobility
package main

import (
	"fmt"
	"time"

	"jqos"
	"jqos/internal/core"
	"jqos/internal/netem"
	"jqos/internal/worlds"
)

func main() {
	cfg := jqos.DefaultConfig()
	cfg.CacheTTL = time.Hour // rendezvous needs longer-term storage
	dep, dc1, dc2 := worlds.Paper(13, cfg)
	src, dst := worlds.HostPair(dep, dc1, dc2)

	// The receiver is offline: its direct path drops everything.
	dep.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 1})

	var got []jqos.Seq
	var gotAt []time.Duration
	dep.Host(dst).SetDeliveryHandler(func(del core.Delivery) {
		got = append(got, del.Packet.ID.Seq)
		gotAt = append(gotAt, del.At)
	})

	flow, err := dep.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: time.Hour,
		Service: jqos.ServiceCaching, ServiceFixed: true,
	})
	if err != nil {
		panic(err)
	}

	// The sender publishes 40 updates over 4 seconds, then goes away —
	// exactly the case where a retransmitting sender would have to stay
	// online, but the rendezvous cache does not need it to.
	const updates = 40
	for k := 0; k < updates; k++ {
		at := time.Duration(k) * 100 * time.Millisecond
		dep.Sim().At(at, func() { flow.Send([]byte(fmt.Sprintf("update-%d", k))) })
	}

	dep.Run(6 * time.Second)
	fmt.Printf("while offline: receiver saw %d packets (sender already gone)\n", len(got))

	// Receiver comes online and drains the flow from its nearby DC.
	dep.Host(dst).PullFlow(flow.ID(), 0)
	dep.Run(2 * time.Second)

	fmt.Printf("after reconnect: drained %d/%d updates from the DC cache\n", len(got), updates)
	if len(got) > 0 {
		fmt.Printf("first/last seq: %d…%d (in order), drained within %v\n",
			got[0], got[len(got)-1], gotAt[len(gotAt)-1]-gotAt[0])
	}
	st := dep.DC(dc2).Cache().Stats()
	fmt.Printf("DC2 cache: %d puts, %d hits, %v TTL\n", st.Puts, st.Hits, dep.DC(dc2).Cache().TTL())
}
