// Package wire defines the J-QoS binary message formats: the fixed
// encapsulation header that logically sits between transport and network
// (§5 of the paper), plus the sub-messages used by the caching and coding
// services (coded batches, NACK/pull, cooperative recovery).
//
// Encoding follows the gopacket DecodingLayerParser discipline: callers
// decode into preallocated structs and marshal into caller-provided
// buffers, so the hot path performs no allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"jqos/internal/core"
)

// Magic identifies J-QoS datagrams ("JQ").
const Magic = 0x4A51

// Version is the current wire version.
const Version = 1

// HeaderLen is the fixed size of the common header.
const HeaderLen = 40

// MsgType enumerates J-QoS message kinds.
type MsgType uint8

const (
	// TypeData carries one application segment.
	TypeData MsgType = iota + 1
	// TypeCoded carries one coded (parity) packet and its batch metadata.
	TypeCoded
	// TypeNACK is the receiver's loss report to its nearby DC (§3.4).
	TypeNACK
	// TypePull asks the caching service for a stored packet (§3.2).
	TypePull
	// TypePullResp returns a cached packet to the receiver.
	TypePullResp
	// TypeCoopReq asks a helper receiver for a data packet needed to
	// decode a batch (§4.4 step 2).
	TypeCoopReq
	// TypeCoopResp returns a helper's data packet to DC2 (§4.4 step 3).
	TypeCoopResp
	// TypeRecovered delivers a decoded packet to the requesting receiver
	// (§4.4 step 4).
	TypeRecovered
	// TypeVerify asks the receiver whether a NACK is still wanted —
	// DC2's spurious-recovery check at burst boundaries (§3.4).
	TypeVerify
	// TypeVerifyResp answers a TypeVerify probe.
	TypeVerifyResp
	// TypeCtrl carries JSON control-channel payloads (registration,
	// delivery stats, service selection) — the TCP channel in §5.
	TypeCtrl
	// TypeProbe is a routing-control-plane link probe: sent one hop over
	// an inter-DC link, answered with TypeProbeAck. Seq carries the probe
	// sequence number; TS the send time, echoed back for RTT measurement.
	TypeProbe
	// TypeProbeAck answers a TypeProbe.
	TypeProbeAck
	// TypeCongestion carries one egress-queue watermark transition from
	// the DC that observed it back to an ingress DC whose flows traverse
	// the congested link — the feedback plane's ECN-style backpressure
	// signal. The body is a fixed-size Congestion record; the message
	// rides the control channel (hop-by-hop, scheduler-bypassing), like
	// probes.
	TypeCongestion
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeCoded:
		return "coded"
	case TypeNACK:
		return "nack"
	case TypePull:
		return "pull"
	case TypePullResp:
		return "pullresp"
	case TypeCoopReq:
		return "coopreq"
	case TypeCoopResp:
		return "coopresp"
	case TypeRecovered:
		return "recovered"
	case TypeVerify:
		return "verify"
	case TypeVerifyResp:
		return "verifyresp"
	case TypeCtrl:
		return "ctrl"
	case TypeProbe:
		return "probe"
	case TypeProbeAck:
		return "probeack"
	case TypeCongestion:
		return "congestion"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Header flag bits.
const (
	// FlagDup marks a duplicated copy sent on the cloud path while the
	// original used the Internet path (§6.4).
	FlagDup uint16 = 1 << iota
	// FlagWantVerify on a NACK asks DC2 to verify before recovering.
	FlagWantVerify
	// FlagStillWanted on a VerifyResp confirms the recovery should run.
	FlagStillWanted
	// Bit 3 is unassigned; skipping it keeps the later flags' wire values.
	_
	// FlagDrain on a TypePull asks the caching service for every cached
	// packet of the flow with sequence greater than Seq — the mobility
	// rendezvous pull (Figure 3e).
	FlagDrain
	// FlagTraced marks a cloud copy selected for hop-level latency
	// attribution: every choke point it traverses (egress queue, wire,
	// relay, recovery) records a span keyed by (Flow, Seq)
	// into the telemetry plane's span collector. The bit rides the wire
	// so transit DCs know to record spans without any per-flow lookup;
	// untraced packets pay only this flag test. Set deterministically by
	// the sender from FlowSpec.TraceSampling (every Nth sequence).
	FlagTraced
)

// Routing-epoch tag: data packets carry the 2-bit table version they
// entered the overlay under (bits 13–14, validity bit 15), so transit DCs
// resolve them against that version across a make-before-break reroute.
// Two bits suffice — forwarders hold at most two live versions, and a
// tag older than both falls back to the current table.
const (
	// FlagEpochValid marks Flags bits 13–14 as carrying an epoch tag.
	FlagEpochValid uint16 = 1 << 15
	epochShift            = 13
	epochMask      uint16 = 3 << epochShift
)

// EpochFlags encodes a routing-table epoch as header flag bits.
func EpochFlags(epoch uint64) uint16 {
	return FlagEpochValid | uint16(epoch&3)<<epochShift
}

// EpochTag extracts a packet's routing-epoch tag; ok is false for
// packets sent without one (pre-epoch senders, control traffic).
func EpochTag(flags uint16) (tag uint8, ok bool) {
	if flags&FlagEpochValid == 0 {
		return 0, false
	}
	return uint8(flags & epochMask >> epochShift), true
}

// Errors returned by decoding.
var (
	ErrShort      = errors.New("wire: buffer too short")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadCount   = errors.New("wire: entry count out of range")
)

// Header is the fixed J-QoS encapsulation header. Src and Dst are overlay
// node IDs, not IP addresses; the transport runtime maps them to sockets.
type Header struct {
	Type    MsgType
	Flags   uint16
	Service core.Service
	Flow    core.FlowID
	Seq     core.Seq
	TS      core.Time
	Src     core.NodeID
	Dst     core.NodeID
}

// ID returns the packet identity named by the header.
func (h *Header) ID() core.PacketID { return core.PacketID{Flow: h.Flow, Seq: h.Seq} }

// Marshal writes the header into buf, which must be at least HeaderLen
// bytes, and returns HeaderLen.
func (h *Header) Marshal(buf []byte) int {
	_ = buf[HeaderLen-1] // bounds hint
	binary.BigEndian.PutUint16(buf[0:], Magic)
	buf[2] = Version
	buf[3] = byte(h.Type)
	binary.BigEndian.PutUint16(buf[4:], h.Flags)
	buf[6] = byte(h.Service)
	buf[7] = 0
	binary.BigEndian.PutUint64(buf[8:], uint64(h.Flow))
	binary.BigEndian.PutUint64(buf[16:], uint64(h.Seq))
	binary.BigEndian.PutUint64(buf[24:], uint64(h.TS))
	binary.BigEndian.PutUint32(buf[32:], uint32(h.Src))
	binary.BigEndian.PutUint32(buf[36:], uint32(h.Dst))
	return HeaderLen
}

// Unmarshal parses the header from buf and returns the number of bytes
// consumed (HeaderLen).
func (h *Header) Unmarshal(buf []byte) (int, error) {
	if len(buf) < HeaderLen {
		return 0, fmt.Errorf("%w: header needs %d bytes, have %d", ErrShort, HeaderLen, len(buf))
	}
	if binary.BigEndian.Uint16(buf[0:]) != Magic {
		return 0, ErrBadMagic
	}
	if buf[2] != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, buf[2])
	}
	h.Type = MsgType(buf[3])
	h.Flags = binary.BigEndian.Uint16(buf[4:])
	h.Service = core.Service(buf[6])
	h.Flow = core.FlowID(binary.BigEndian.Uint64(buf[8:]))
	h.Seq = core.Seq(binary.BigEndian.Uint64(buf[16:]))
	h.TS = core.Time(binary.BigEndian.Uint64(buf[24:]))
	h.Src = core.NodeID(binary.BigEndian.Uint32(buf[32:]))
	h.Dst = core.NodeID(binary.BigEndian.Uint32(buf[36:]))
	return HeaderLen, nil
}

// AppendMessage marshals header+payload onto dst and returns the extended
// slice, growing dst at most once. This is the single send-side entry point
// used by both runtimes.
func AppendMessage(dst []byte, h *Header, payload []byte) []byte {
	off := len(dst)
	dst = slices.Grow(dst, HeaderLen+len(payload))
	dst = append(dst, make([]byte, HeaderLen)...)
	h.Marshal(dst[off:])
	return append(dst, payload...)
}

// SplitMessage parses one datagram into header and payload. The payload
// slice aliases buf (NoCopy); callers that retain it must copy.
func SplitMessage(h *Header, buf []byte) ([]byte, error) {
	n, err := h.Unmarshal(buf)
	if err != nil {
		return nil, err
	}
	return buf[n:], nil
}

// RewriteDst patches the destination field of an already-marshaled message
// in place. Multicast fan-out uses it to address each member copy without
// re-encoding the whole datagram.
func RewriteDst(msg []byte, dst core.NodeID) error {
	if len(msg) < HeaderLen {
		return ErrShort
	}
	binary.BigEndian.PutUint32(msg[36:], uint32(dst))
	return nil
}

// RewriteFlags patches the flags field of an already-marshaled message in
// place. Senders reuse one encoded buffer across the direct and cloud
// copies of a packet, rewriting Dst and Flags instead of re-marshaling.
func RewriteFlags(msg []byte, flags uint16) error {
	if len(msg) < HeaderLen {
		return ErrShort
	}
	binary.BigEndian.PutUint16(msg[4:], flags)
	return nil
}

// PeekService reads a marshaled message's service class without decoding
// the rest of the header. DC egress accounting classifies every departing
// packet per (link, service class) on the hot path; unknown classes (or
// non-J-QoS bytes) report ok=false and go unaccounted rather than
// polluting a class bucket.
func PeekService(msg []byte) (core.Service, bool) {
	if len(msg) < HeaderLen ||
		binary.BigEndian.Uint16(msg[0:]) != Magic || msg[2] != Version {
		return 0, false
	}
	s := core.Service(msg[6])
	if s > core.ServiceForwarding {
		return 0, false
	}
	return s, true
}

// CongestionLen is the fixed size of a TypeCongestion body.
const CongestionLen = 16

// Congestion is the body of a TypeCongestion control message: one
// (directed link, service class) watermark transition. LinkA→LinkB is
// the congested egress direction; State is the new
// feedback classification (sched.QueueState's raw value); Depth the
// queued bytes at the flip, clamped to 32 bits.
type Congestion struct {
	LinkA, LinkB core.NodeID
	Class        core.Service
	State        uint8
	Depth        uint32
}

// Marshal writes the body into buf, which must be at least
// CongestionLen bytes, and returns CongestionLen.
func (c *Congestion) Marshal(buf []byte) int {
	_ = buf[CongestionLen-1] // bounds hint
	binary.BigEndian.PutUint32(buf[0:], uint32(c.LinkA))
	binary.BigEndian.PutUint32(buf[4:], uint32(c.LinkB))
	buf[8] = byte(c.Class)
	buf[9] = c.State
	buf[10] = 0
	buf[11] = 0
	binary.BigEndian.PutUint32(buf[12:], c.Depth)
	return CongestionLen
}

// Unmarshal parses the body from buf.
func (c *Congestion) Unmarshal(buf []byte) error {
	if len(buf) < CongestionLen {
		return fmt.Errorf("%w: congestion body needs %d bytes, have %d", ErrShort, CongestionLen, len(buf))
	}
	c.LinkA = core.NodeID(binary.BigEndian.Uint32(buf[0:]))
	c.LinkB = core.NodeID(binary.BigEndian.Uint32(buf[4:]))
	c.Class = core.Service(buf[8])
	c.State = buf[9]
	c.Depth = binary.BigEndian.Uint32(buf[12:])
	return nil
}

// PeekCongestion reads a whole marshaled TypeCongestion message's body
// with fixed-offset loads — no header decode. Ingress DCs dispatch
// every arriving signal through this on the control path, where a full
// Unmarshal of the 40-byte header they do not need would dominate the
// work. ok is false for short, non-J-QoS, or non-congestion messages.
func PeekCongestion(msg []byte) (Congestion, bool) {
	if len(msg) < HeaderLen+CongestionLen ||
		binary.BigEndian.Uint16(msg[0:]) != Magic || msg[2] != Version ||
		MsgType(msg[3]) != TypeCongestion {
		return Congestion{}, false
	}
	var c Congestion
	if err := c.Unmarshal(msg[HeaderLen:]); err != nil {
		return Congestion{}, false
	}
	return c, true
}

// PeekFlow reads a marshaled message's type and flow without decoding
// the rest of the header — the egress scheduler attributes every
// departing packet to a flow on the hot path, and a full Unmarshal
// would double the header work PeekService already did. Coded packets
// carry their source flows in the body, not the header; callers seeing
// TypeCoded follow up with PeekCodedFlow on msg[HeaderLen:].
func PeekFlow(msg []byte) (core.FlowID, MsgType, bool) {
	if len(msg) < HeaderLen ||
		binary.BigEndian.Uint16(msg[0:]) != Magic || msg[2] != Version {
		return 0, 0, false
	}
	return core.FlowID(binary.BigEndian.Uint64(msg[8:])), MsgType(msg[3]), true
}

// PeekTrace reads a marshaled data message's packet identity when (and
// only when) the message carries FlagTraced — the hop-attribution tag.
// Every wire-departure and wire-arrival point tests its packets with
// this on the hot path; for the untraced majority the cost is the bounds
// check plus one flag load, with no header decode. ok is false for
// short, non-J-QoS, non-data, or untraced messages.
func PeekTrace(msg []byte) (core.PacketID, bool) {
	if len(msg) < HeaderLen ||
		binary.BigEndian.Uint16(msg[0:]) != Magic || msg[2] != Version ||
		MsgType(msg[3]) != TypeData ||
		binary.BigEndian.Uint16(msg[4:])&FlagTraced == 0 {
		return core.PacketID{}, false
	}
	return core.PacketID{
		Flow: core.FlowID(binary.BigEndian.Uint64(msg[8:])),
		Seq:  core.Seq(binary.BigEndian.Uint64(msg[16:])),
	}, true
}
