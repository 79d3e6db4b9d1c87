package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"jqos/internal/core"
)

// SourceRef names one data packet that participates in a coded batch: its
// identity plus the receiver that holds it (needed for cooperative
// recovery, where DC2 contacts the holders directly).
type SourceRef struct {
	Flow     core.FlowID
	Seq      core.Seq
	Receiver core.NodeID
}

const sourceRefLen = 8 + 8 + 4

// CodedKind distinguishes the two coding dimensions of §4.2.
type CodedKind uint8

const (
	// CrossStream parity combines packets from different flows.
	CrossStream CodedKind = iota
	// InStream parity is classic FEC within one flow.
	InStream
)

// String implements fmt.Stringer.
func (k CodedKind) String() string {
	if k == InStream {
		return "in-stream"
	}
	return "cross-stream"
}

// Coded is the metadata carried by a TypeCoded message ahead of the parity
// shard bytes. DC1 "must also include information in the coded packets
// about which flows and sequence numbers are represented" (§4.2) — that is
// the Sources list.
type Coded struct {
	Batch    uint64    // batch identifier, unique per DC1
	Kind     CodedKind // cross-stream or in-stream
	K        uint8     // data shards in the batch
	R        uint8     // parity shards generated for the batch
	Index    uint8     // which parity shard this is (0..R-1)
	ShardLen uint16    // length of the parity shard that follows
	Sources  []SourceRef
}

const codedFixedLen = 8 + 1 + 1 + 1 + 1 + 2 + 2 // batch,kind,k,r,index,shardlen,count

// MarshaledLen returns the encoded size of the metadata (not the shard).
func (c *Coded) MarshaledLen() int { return codedFixedLen + len(c.Sources)*sourceRefLen }

// AppendMarshal appends the coded metadata followed by shard to dst,
// growing dst at most once.
func (c *Coded) AppendMarshal(dst, shard []byte) []byte {
	off := len(dst)
	dst = slices.Grow(dst, c.MarshaledLen()+len(shard))
	dst = append(dst, make([]byte, c.MarshaledLen())...)
	b := dst[off:]
	binary.BigEndian.PutUint64(b[0:], c.Batch)
	b[8] = byte(c.Kind)
	b[9] = c.K
	b[10] = c.R
	b[11] = c.Index
	binary.BigEndian.PutUint16(b[12:], c.ShardLen)
	binary.BigEndian.PutUint16(b[14:], uint16(len(c.Sources)))
	p := codedFixedLen
	for _, s := range c.Sources {
		binary.BigEndian.PutUint64(b[p:], uint64(s.Flow))
		binary.BigEndian.PutUint64(b[p+8:], uint64(s.Seq))
		binary.BigEndian.PutUint32(b[p+16:], uint32(s.Receiver))
		p += sourceRefLen
	}
	return append(dst, shard...)
}

// Unmarshal parses coded metadata from buf, reusing c.Sources capacity, and
// returns the remaining bytes (the parity shard).
func (c *Coded) Unmarshal(buf []byte) ([]byte, error) {
	if len(buf) < codedFixedLen {
		return nil, fmt.Errorf("%w: coded metadata", ErrShort)
	}
	c.Batch = binary.BigEndian.Uint64(buf[0:])
	c.Kind = CodedKind(buf[8])
	c.K = buf[9]
	c.R = buf[10]
	c.Index = buf[11]
	c.ShardLen = binary.BigEndian.Uint16(buf[12:])
	count := int(binary.BigEndian.Uint16(buf[14:]))
	if count > 256 {
		return nil, fmt.Errorf("%w: %d sources", ErrBadCount, count)
	}
	need := codedFixedLen + count*sourceRefLen
	if len(buf) < need {
		return nil, fmt.Errorf("%w: %d sources need %d bytes, have %d", ErrShort, count, need, len(buf))
	}
	c.Sources = c.Sources[:0]
	p := codedFixedLen
	for i := 0; i < count; i++ {
		c.Sources = append(c.Sources, SourceRef{
			Flow:     core.FlowID(binary.BigEndian.Uint64(buf[p:])),
			Seq:      core.Seq(binary.BigEndian.Uint64(buf[p+8:])),
			Receiver: core.NodeID(binary.BigEndian.Uint32(buf[p+16:])),
		})
		p += sourceRefLen
	}
	shard := buf[need:]
	if len(shard) < int(c.ShardLen) {
		return nil, fmt.Errorf("%w: shard %d < declared %d", ErrShort, len(shard), c.ShardLen)
	}
	return shard[:c.ShardLen], nil
}

// PeekCodedFlow reads the first source flow of coded metadata without a
// full unmarshal. Transit DCs relaying parity use it to honor per-flow
// pinned paths: the batch's first source stands in for the whole batch
// (cross-stream batches mix flows; any one of them decides the route).
func PeekCodedFlow(body []byte) (core.FlowID, bool) {
	if len(body) < codedFixedLen+sourceRefLen {
		return 0, false
	}
	if binary.BigEndian.Uint16(body[14:]) == 0 {
		return 0, false
	}
	return core.FlowID(binary.BigEndian.Uint64(body[codedFixedLen:])), true
}

// CoopRef identifies one batch recovery in flight; it rides in CoopReq and
// CoopResp payloads so responses can be matched to pending recoveries.
type CoopRef struct {
	Batch uint64
	// Want is the packet the original NACK asked for — echoed so helpers
	// and the DC agree on which recovery event a response serves.
	Want core.PacketID
}

const coopRefLen = 8 + 8 + 8

// MarshaledLen returns the encoded size of the reference (not the payload).
func (c *CoopRef) MarshaledLen() int { return coopRefLen }

// AppendMarshal appends the reference (and for responses, the helper's data
// payload) to dst, growing dst at most once.
func (c *CoopRef) AppendMarshal(dst, payload []byte) []byte {
	off := len(dst)
	dst = slices.Grow(dst, coopRefLen+len(payload))
	dst = append(dst, make([]byte, coopRefLen)...)
	b := dst[off:]
	binary.BigEndian.PutUint64(b[0:], c.Batch)
	binary.BigEndian.PutUint64(b[8:], uint64(c.Want.Flow))
	binary.BigEndian.PutUint64(b[16:], uint64(c.Want.Seq))
	return append(dst, payload...)
}

// Unmarshal parses the reference and returns the trailing payload.
func (c *CoopRef) Unmarshal(buf []byte) ([]byte, error) {
	if len(buf) < coopRefLen {
		return nil, fmt.Errorf("%w: coop ref", ErrShort)
	}
	c.Batch = binary.BigEndian.Uint64(buf[0:])
	c.Want.Flow = core.FlowID(binary.BigEndian.Uint64(buf[8:]))
	c.Want.Seq = core.Seq(binary.BigEndian.Uint64(buf[16:]))
	return buf[coopRefLen:], nil
}
