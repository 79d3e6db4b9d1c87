// Command jqos-recv is a J-QoS receiving endpoint on a real UDP socket:
// it runs the receiver-driven recovery protocol (gap detection, two-state
// Markov timers, NACKs, cooperative-helper duties) against its nearby
// relay and prints live delivery statistics. The service each flow's
// NACKs request is the one the sender stamped on its packets.
//
//	jqos-recv -node 201 -dc 2 -listen 127.0.0.1:9201 \
//	    -peers "2=127.0.0.1:9002" -dur 30s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"jqos/internal/core"
	"jqos/internal/transport"
)

func main() {
	var (
		node   = flag.Uint("node", 201, "this receiver's node ID")
		listen = flag.String("listen", "127.0.0.1:9201", "UDP listen address")
		peers  = flag.String("peers", "", "address book: id=host:port,...")
		dc     = flag.Uint("dc", 2, "nearby relay (DC2) node ID")
		rtt    = flag.Duration("rtt", 100*time.Millisecond, "direct-path RTT estimate")
		dur    = flag.Duration("dur", 0, "exit after this long (0 = until interrupt)")
	)
	flag.Parse()

	book, err := transport.ParseAddrBook(*peers)
	if err != nil {
		fatal(err)
	}
	ep, err := transport.NewEndpoint(core.NodeID(*node), *listen, book)
	if err != nil {
		fatal(err)
	}
	host := transport.NewHostEnd(ep, core.NodeID(*dc), *rtt)
	var direct, recovered atomic.Uint64
	host.OnDeliver = func(del core.Delivery) {
		if del.Recovered {
			recovered.Add(1)
		} else {
			direct.Add(1)
		}
	}
	host.Start()
	defer host.Close()
	fmt.Printf("jqos-recv node %d on %s (dc=%d)\n", *node, ep.LocalAddr(), *dc)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var timeout <-chan time.Time
	if *dur > 0 {
		timeout = time.After(*dur)
	}
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			report(host, &direct, &recovered)
			return
		case <-timeout:
			report(host, &direct, &recovered)
			return
		case <-tick.C:
			fmt.Printf("delivered: %d direct + %d recovered\n", direct.Load(), recovered.Load())
		}
	}
}

func report(host *transport.HostEnd, direct, recovered *atomic.Uint64) {
	st := host.ReceiverStats()
	fmt.Printf("\ntotal delivered: %d direct + %d recovered\n", direct.Load(), recovered.Load())
	fmt.Printf("receiver stats: %+v\n", st)
	fmt.Printf("undecodable datagrams dropped: %d\n", host.Dropped())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jqos-recv:", err)
	os.Exit(1)
}
