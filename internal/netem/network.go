package netem

import (
	"fmt"

	"jqos/internal/core"
)

// Handler consumes datagrams addressed to a node. data is owned by the
// receiver once delivered: the network drops its only reference (the
// delivery record's) before the handler runs, and never reuses the bytes —
// so the handler may recycle them (a DC hands what it consumed back to its
// deployment's wire.Pool), and a wrapper around one must not read data once
// the inner handler has returned.
type Handler func(from, to core.NodeID, data []byte)

// linkKey identifies a directed edge.
type linkKey struct {
	from, to core.NodeID
}

// Network is a set of nodes joined by directed links, the fabric over which
// an emulated J-QoS deployment runs. It is not safe for concurrent use; the
// simulator is single-goroutine by design.
type Network struct {
	links map[linkKey]*Link
	nodes map[core.NodeID]Handler
	free  *delivery // the delivery records not in flight
	// Tap, if set, observes every accepted datagram at send time: a hook
	// for experiments and tests. It is one slot that the next assignment
	// replaces, so no count that must keep running may depend on it.
	Tap func(from, to core.NodeID, size int)
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{
		links: make(map[linkKey]*Link),
		nodes: make(map[core.NodeID]Handler),
	}
}

// AddNode registers a handler for a node ID. Re-registering replaces the
// handler (endpoints are built in stages during wiring).
func (n *Network) AddNode(id core.NodeID, h Handler) {
	n.nodes[id] = h
}

// Connect installs a unidirectional link from a to b, replacing any
// existing one.
func (n *Network) Connect(a, b core.NodeID, l *Link) {
	if l == nil {
		panic("netem: Connect with nil link")
	}
	n.links[linkKey{a, b}] = l
}

// ConnectBidirectional installs two independent links with the same models
// built by mk (called twice so each direction has independent state).
func (n *Network) ConnectBidirectional(a, b core.NodeID, mk func() *Link) {
	n.Connect(a, b, mk())
	n.Connect(b, a, mk())
}

// LinkBetween returns the directed link or nil.
func (n *Network) LinkBetween(a, b core.NodeID) *Link {
	return n.links[linkKey{a, b}]
}

// Send transmits one datagram. Unknown routes panic: topologies are static
// per experiment, so a missing link is a wiring bug, not a runtime
// condition. Sends to nodes with no registered handler are delivered to a
// no-op (packets can arrive for endpoints that already left — e.g. after a
// mobility hand-off).
func (n *Network) Send(from, to core.NodeID, data []byte) bool {
	l := n.links[linkKey{from, to}]
	if l == nil {
		panic(fmt.Sprintf("netem: no link %v -> %v", from, to))
	}
	arrive, ok := l.admit(len(data))
	if !ok {
		return false
	}
	d := n.free
	if d == nil {
		d = &delivery{net: n}
		d.fire = d.run
	}
	n.free, d.from, d.to, d.data = d.next, from, to, data
	l.sim.schedule(event{at: arrive, fn: d.fire})
	if n.Tap != nil {
		n.Tap(from, to, len(data))
	}
	return true
}

// delivery is one datagram in flight, what Send schedules in place of a
// closure. Records cycle through their network's free list, which grows to
// the most datagrams ever in flight at once: a steady send allocates nothing.
type delivery struct {
	net      *Network
	from, to core.NodeID
	data     []byte
	next     *delivery // free-list link
	fire     func()    // run, bound once: what the event calls
}

// run hands the datagram to the handler registered for its destination at
// arrival. The record is freed first, data cleared: the handler owns the
// bytes alone, and its own sends may reuse the record.
func (d *delivery) run() {
	n, from, to, data := d.net, d.from, d.to, d.data
	d.data = nil
	d.next, n.free = n.free, d
	if h := n.nodes[to]; h != nil {
		h(from, to, data)
	}
}

// HasRoute reports whether a directed link exists.
func (n *Network) HasRoute(from, to core.NodeID) bool {
	return n.links[linkKey{from, to}] != nil
}

// NodeHandler returns the registered handler for a node (nil if none) —
// diagnostics use it to wrap endpoints with classification shims.
func (n *Network) NodeHandler(id core.NodeID) Handler { return n.nodes[id] }
