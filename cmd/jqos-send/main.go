// Command jqos-send streams a CBR flow to a receiver with J-QoS
// protection: every packet goes to the destination on the direct path and
// a copy goes to the sender's nearby relay (DC1) for the selected service.
//
//	jqos-send -node 101 -dc 1 -dst 201 -flow 10 -rate 50 -count 500 \
//	    -peers "1=127.0.0.1:9001,201=127.0.0.1:9201" \
//	    -drop-every 5
//
// -drop-every injects deterministic loss on the direct path (the loopback
// wire itself never drops), letting a local deployment demonstrate
// recovery end to end.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"jqos/internal/core"
	"jqos/internal/transport"
	"jqos/internal/wire"
)

func main() {
	var (
		node    = flag.Uint("node", 101, "this sender's node ID")
		listen  = flag.String("listen", "127.0.0.1:0", "UDP listen address")
		peers   = flag.String("peers", "", "address book: id=host:port,...")
		dc      = flag.Uint("dc", 1, "nearby relay (DC1) node ID")
		dst     = flag.Uint("dst", 201, "receiver node ID")
		flow    = flag.Uint64("flow", 10, "flow ID")
		rate    = flag.Float64("rate", 50, "packets per second")
		count   = flag.Int("count", 500, "packets to send (0 = forever)")
		size    = flag.Int("size", 512, "payload bytes")
		service = flag.String("service", "coding", "service: internet|coding|caching|forwarding")
		dropN   = flag.Int("drop-every", 0, "drop every Nth direct packet (0 = none)")
	)
	flag.Parse()

	svc, err := parseService(*service)
	if err != nil {
		fatal(err)
	}
	book, err := transport.ParseAddrBook(*peers)
	if err != nil {
		fatal(err)
	}
	ep, err := transport.NewEndpoint(core.NodeID(*node), *listen, book)
	if err != nil {
		fatal(err)
	}
	if *dropN > 0 {
		n := core.Seq(*dropN)
		target := core.NodeID(*dst)
		ep.DropSend = func(to core.NodeID, hdr *wire.Header) bool {
			return to == target && hdr.Type == wire.TypeData && hdr.Seq%n == 0
		}
	}
	host := transport.NewHostEnd(ep, core.NodeID(*dc), 100*time.Millisecond)
	host.Start()
	defer host.Close()

	payload := make([]byte, *size)
	interval := time.Duration(float64(time.Second) / *rate)
	fmt.Printf("jqos-send: flow %d → node %d via %s service at %.0f pps\n", *flow, *dst, svc, *rate)
	seq := core.Seq(0)
	for *count == 0 || int(seq) < *count {
		seq++
		host.SendData(core.FlowID(*flow), seq, core.NodeID(*dst), svc, payload)
		time.Sleep(interval)
	}
	fmt.Printf("jqos-send: sent %d packets\n", seq)
}

func parseService(s string) (core.Service, error) {
	switch s {
	case "internet":
		return core.ServiceInternet, nil
	case "coding":
		return core.ServiceCoding, nil
	case "caching":
		return core.ServiceCaching, nil
	case "forwarding":
		return core.ServiceForwarding, nil
	}
	return 0, fmt.Errorf("unknown service %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jqos-send:", err)
	os.Exit(1)
}
