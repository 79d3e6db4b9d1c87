// Livewire runs the whole J-QoS prototype on real UDP sockets in one
// process: two relays (DC1, DC2), a sender, three helper receivers, and a
// primary receiver whose direct path drops every 4th packet. The stream is
// repaired live by cross-stream cooperative recovery across loopback —
// the same wiring cmd/jqos-relay, jqos-send, and jqos-recv provide as
// separate processes.
//
//	go run ./examples/livewire
package main

import (
	"fmt"
	"sync"
	"time"

	"jqos/internal/core"
	"jqos/internal/transport"
	"jqos/internal/wire"
)

func main() {
	book := transport.NewAddrBook()
	mk := func(id core.NodeID) *transport.Endpoint {
		ep, err := transport.NewEndpoint(id, "127.0.0.1:0", book)
		if err != nil {
			panic(err)
		}
		book.Set(id, ep.LocalAddr())
		return ep
	}

	const (
		dc1    core.NodeID = 1
		dc2    core.NodeID = 2
		sender core.NodeID = 101
		rcvr   core.NodeID = 201
	)
	helpers := []core.NodeID{202, 203, 204}

	bindings := []transport.HostBinding{{Host: sender, DC: dc1}, {Host: rcvr, DC: dc2}}
	for _, h := range helpers {
		bindings = append(bindings, transport.HostBinding{Host: h, DC: dc2})
	}

	cfg := transport.DefaultRelayConfig()
	cfg.Encoder.K = 4
	cfg.Encoder.CrossParity = 2
	cfg.Encoder.InBlock = 0
	cfg.Encoder.CrossTimeout = 20 * time.Millisecond

	r1, err := transport.NewRelay(mk(dc1), cfg, bindings)
	if err != nil {
		panic(err)
	}
	defer r1.Close()
	r2, err := transport.NewRelay(mk(dc2), cfg, bindings)
	if err != nil {
		panic(err)
	}
	defer r2.Close()
	r1.Start()
	r2.Start()
	fmt.Printf("relays up: DC1 %s, DC2 %s\n", book.Lookup(dc1), book.Lookup(dc2))

	var mu sync.Mutex
	direct, recovered := 0, 0
	rend := transport.NewHostEnd(mk(rcvr), dc2, 60*time.Millisecond)
	rend.OnDeliver = func(del core.Delivery) {
		mu.Lock()
		if del.Recovered {
			recovered++
			fmt.Printf("  recovered seq %-4d via %v (%.1f ms after detection)\n",
				del.Packet.ID.Seq, del.Via, float64(del.RecoveryDelay)/1e6)
		} else {
			direct++
		}
		mu.Unlock()
	}
	defer rend.Close()
	rend.Start()

	for _, h := range helpers {
		he := transport.NewHostEnd(mk(h), dc2, 60*time.Millisecond)
		defer he.Close()
		he.Start()
	}

	send := transport.NewHostEnd(mk(sender), dc1, 60*time.Millisecond)
	// Drop every 4th direct data packet to the receiver — the "Internet
	// path" of this demo; copies to DC1 are unaffected.
	send.SetDropSend(func(to core.NodeID, hdr *wire.Header) bool {
		return to == rcvr && hdr.Type == wire.TypeData && hdr.Seq%4 == 0
	})
	defer send.Close()
	send.Start()

	const packets = 60
	fmt.Printf("streaming %d packets (every 4th dropped on the direct path)...\n", packets)
	for seq := core.Seq(1); seq <= packets; seq++ {
		send.SendData(10, seq, rcvr, core.ServiceCoding, []byte("livewire payload"))
		for fi, h := range helpers {
			send.SendData(core.FlowID(20+fi), seq, h, core.ServiceCoding, []byte("helper payload"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(1500 * time.Millisecond) // let recovery drain

	mu.Lock()
	fmt.Printf("\nreceiver totals: %d direct + %d recovered of %d sent\n", direct, recovered, packets)
	mu.Unlock()
	enc, _, _ := r1.Stats()
	_, rec, _ := r2.Stats()
	fmt.Printf("DC1 encoder: %d data packets → %d coded across %d batches\n",
		enc.DataPackets, enc.CrossCoded, enc.CrossBatches)
	fmt.Printf("DC2 recovery: %d NACKs, %d cooperative recoveries (%d helper responses)\n",
		rec.NACKs, rec.CoopRecovered, rec.CoopRespsUsed)
}
