// Multicast demonstrates the forwarding service's cloud multicast
// (Figure 3c) and the caching service's hybrid multicast (Figure 3d): the
// sender uses the public Internet for member unicasts and caches one copy
// at the members' DC, from which lossy members repair.
//
//	go run ./examples/multicast
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
	dep, dc1, dc2 := worlds.Paper(11, jqos.DefaultConfig())
	src := dep.AddHost(dc1, 5*time.Millisecond)

	// Three members near DC2; member 0 sits behind a lossy last mile.
	var members []jqos.NodeID
	received := map[jqos.NodeID]int{}
	repaired := map[jqos.NodeID]int{}
	for i := 0; i < 3; i++ {
		m := dep.AddHost(dc2, time.Duration(8+i)*time.Millisecond)
		members = append(members, m)
		var loss netem.LossModel
		if i == 0 {
			loss = netem.Bernoulli{P: 0.15}
		}
		dep.SetDirectPath(src, m, netem.FixedDelay(50*time.Millisecond), loss)
		dep.Host(m).SetDeliveryHandler(func(del core.Delivery) {
			received[m]++
			if del.Recovered {
				repaired[m]++
			}
		})
	}

	// Hybrid multicast: direct unicast to each member + ONE cached copy
	// at DC2 (addressed to the group, so the cloud carries the stream
	// once regardless of group size).
	group := dep.AllocGroupID()
	dep.AddGroup(dc2, group, members...)
	flow, err := dep.RegisterFlow(jqos.FlowSpec{
		Src: src, Group: group, Members: members,
		Budget:  400 * time.Millisecond,
		Service: jqos.ServiceCaching, ServiceFixed: true,
	})
	if err != nil {
		panic(err)
	}

	const packets = 500 // 23-byte frames, one every 10 ms
	worlds.CBR(dep, flow, 23, 10*time.Millisecond, 0, packets*10*time.Millisecond)
	dep.Run(30 * time.Second)

	fmt.Printf("hybrid multicast: %d packets to %d members\n\n", packets, len(members))
	for i, m := range members {
		note := ""
		if i == 0 {
			note = "  (15% lossy last mile)"
		}
		fmt.Printf("member %v: received %d/%d, %d repaired from the DC cache%s\n",
			m, received[m], packets, repaired[m], note)
	}
	st := dep.DC(dc2).Cache().Stats()
	fmt.Printf("\nDC2 cache: %d puts, %d pull hits — the cloud carried the stream once,\n", st.Puts, st.Hits)
	fmt.Println("not once per member (compare 2c vs c in Figure 2's cost accounting).")
}
