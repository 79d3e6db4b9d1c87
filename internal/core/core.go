// Package core holds the primitive types shared by every J-QoS module:
// node, flow and packet identities, the service enum, virtual time, and the
// packet unit that moves through the framework.
//
// The package is intentionally dependency-free so that substrates (emulator,
// coding engine, caches) can all import it without cycles.
package core

import (
	"fmt"
	"time"
)

// NodeID identifies a host or data center in an overlay deployment.
// IDs are assigned by the topology builder and are dense small integers,
// which lets components index per-node state with slices.
type NodeID uint32

// String implements fmt.Stringer.
func (n NodeID) String() string { return fmt.Sprintf("node%d", uint32(n)) }

// FlowID identifies one application stream (one sender/receiver pair and
// one registration). FlowIDs are globally unique within a deployment.
type FlowID uint64

// TenantID identifies one customer of the overlay — the unit that
// admission quotas, cost budgets, and aggregate pacing are enforced
// against. IDs are assigned by the operator at RegisterTenant; 0 is
// reserved as "untenanted" (a flow outside any tenant contract).
type TenantID uint64

// String implements fmt.Stringer.
func (t TenantID) String() string { return fmt.Sprintf("tenant%d", uint64(t)) }

// Seq is a per-flow packet sequence number. The first packet of a flow has
// sequence 1; 0 is reserved as "no packet".
type Seq uint64

// PacketID names one packet globally: the flow it belongs to plus its
// sequence number. PacketID is comparable and may be used as a map key
// (the gopacket Flow/Endpoint pattern).
type PacketID struct {
	Flow FlowID
	Seq  Seq
}

// String implements fmt.Stringer.
func (p PacketID) String() string { return fmt.Sprintf("%d/%d", p.Flow, p.Seq) }

// Service enumerates the J-QoS reliability services in increasing order of
// cost (§3 of the paper): coding is the cheapest recovery option, forwarding
// the most expensive. ServiceInternet means "best effort only" — no cloud
// assistance.
type Service uint8

const (
	// ServiceInternet uses only the direct best-effort path.
	ServiceInternet Service = iota
	// ServiceCoding is CR-WAN: coded packets cross the inter-DC path and
	// losses are repaired by cooperative recovery (§4). Cost factor α·c.
	ServiceCoding
	// ServiceCaching stores a copy of every packet at the DC near the
	// receiver and serves pulls on loss (§3.2). Cost factor c.
	ServiceCaching
	// ServiceForwarding relays every packet over the full cloud overlay
	// (§3.1). Cost factor 2c.
	ServiceForwarding
)

// String implements fmt.Stringer.
func (s Service) String() string {
	switch s {
	case ServiceInternet:
		return "internet"
	case ServiceCoding:
		return "coding"
	case ServiceCaching:
		return "caching"
	case ServiceForwarding:
		return "forwarding"
	default:
		return fmt.Sprintf("service(%d)", uint8(s))
	}
}

// Services lists all services from cheapest to most expensive cloud usage.
// Service selection (§3.5) walks this list and picks the first service whose
// predicted delivery latency meets the application budget.
var Services = []Service{ServiceInternet, ServiceCoding, ServiceCaching, ServiceForwarding}

// NumServices is the number of distinct services — the single source for
// per-service-class accounting array sizes (index by Service).
const NumServices = int(ServiceForwarding) + 1

// Time is virtual time: the duration since the start of an experiment.
// Both the discrete-event emulator and the real-socket runtime express
// timestamps in this form, so protocol cores never touch the wall clock.
type Time = time.Duration

// Packet is the unit of application data inside the framework: one
// transport segment intercepted below TCP/UDP (§5). A delivered Payload is
// the arriving datagram's own bytes, lent to the application until its
// delivery handler returns: the runtime then reuses them for a later
// message, so an application that keeps a payload copies it. The handler
// may write to the bytes meanwhile; no other recipient sees them.
type Packet struct {
	ID      PacketID
	Src     NodeID
	Dst     NodeID
	Sent    Time // when the sender released it
	Payload []byte
}

// Emit is a wire-encoded message a protocol core wants transmitted. Cores
// are sans-IO: they return Emits and the driving runtime (discrete-event
// simulator or UDP transport) moves the bytes. Msg is owned by the
// recipient of the Emit.
type Emit struct {
	To  NodeID
	Msg []byte
}

// RecycleEmits empties the buffer a core returned its last Emits in, for
// the core's next call: entries zeroed (the messages are their recipients'
// now), and a buffer one burst grew past 64 entries let go, not kept.
func RecycleEmits(buf []Emit) []Emit {
	clear(buf)
	if cap(buf) > 64 {
		return nil
	}
	return buf[:0]
}

// Delivery is one application packet surfaced to the receiving endpoint,
// with provenance for the experiment accounting. Its Packet's payload is
// lent to the application until its delivery handler returns (see Packet).
type Delivery struct {
	Packet    Packet
	At        Time
	Recovered bool    // true if a J-QoS service repaired it
	Via       Service // which service produced it (ServiceInternet = direct)
	// RecoveryDelay is the time from loss detection (first NACK-worthy
	// evidence at the receiver) to delivery, for recovered packets. The
	// paper's recovery-time metric (Figures 7b, 8d) is measured on this
	// clock — the alternative, a source retransmission, costs ≥1 RTT
	// from the same moment.
	RecoveryDelay Time
}
