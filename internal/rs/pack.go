package rs

import (
	"encoding/binary"
	"fmt"
)

// Shard packing for variable-size packets.
//
// RS requires equal-size shards, but CR-WAN batches hold packets of varying
// length (§4.1). Each packet is packed into a shard as
//
//	[2-byte big-endian length][payload][zero padding]
//
// sized to the longest packet in the batch. Unpack recovers exact payloads,
// so a reconstructed shard round-trips to the original packet bytes.

// MaxPayload is the longest payload the 2-byte length prefix can describe.
const MaxPayload = 0xFFFF

// PackedSize returns the shard size needed for a payload of length n.
func PackedSize(n int) int { return n + 2 }

// Pack writes payload into shard (which must be ≥ len(payload)+2 bytes),
// zero-filling the tail, and returns shard.
func Pack(payload, shard []byte) ([]byte, error) {
	need := PackedSize(len(payload))
	if len(shard) < need {
		return nil, fmt.Errorf("rs: shard %d too small for payload %d", len(shard), len(payload))
	}
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("rs: payload %d exceeds 64 KiB pack limit", len(payload))
	}
	binary.BigEndian.PutUint16(shard, uint16(len(payload)))
	copy(shard[2:], payload)
	for i := need; i < len(shard); i++ {
		shard[i] = 0
	}
	return shard, nil
}

// Unpack extracts the original payload from a packed shard. The returned
// slice aliases shard.
func Unpack(shard []byte) ([]byte, error) {
	if len(shard) < 2 {
		return nil, fmt.Errorf("rs: shard %d too short to unpack", len(shard))
	}
	n := int(binary.BigEndian.Uint16(shard))
	if n > len(shard)-2 {
		return nil, fmt.Errorf("rs: packed length %d exceeds shard %d", n, len(shard))
	}
	return shard[2 : 2+n], nil
}

// PackBatch packs payloads into equal-size shards sized to the longest
// payload, returning the shards and the shard size. It defines the batch
// layout; the encoder computes the same parity without materialising the
// shards (Codec.EncodePacked), and the tests hold the two together.
func PackBatch(payloads [][]byte) ([][]byte, int, error) {
	if len(payloads) == 0 {
		return nil, 0, fmt.Errorf("rs: empty batch")
	}
	max := 0
	for _, p := range payloads {
		if len(p) > max {
			max = len(p)
		}
	}
	size := PackedSize(max)
	shards := make([][]byte, len(payloads))
	for i, p := range payloads {
		shards[i] = make([]byte, size)
		if _, err := Pack(p, shards[i]); err != nil {
			return nil, 0, err
		}
	}
	return shards, size, nil
}
