package rs

import (
	"errors"
	"fmt"
	"slices"
)

// Codec is a systematic Reed-Solomon erasure codec with k data shards and
// m parity shards (n = k+m total). Any k of the n shards reconstruct the
// data. A Codec is immutable after construction and safe for concurrent
// use; CR-WAN's parallel encoder pipeline shares one Codec per (k, m).
type Codec struct {
	k, m int
	// rows holds the bottom m rows of the systematic generator matrix:
	// rows[i][d] is the coefficient of data shard d in parity shard i.
	rows [][]byte
}

// Errors returned by the codec.
var (
	ErrInvalidParams  = errors.New("rs: shard counts out of range")
	ErrTooFewShards   = errors.New("rs: not enough shards to reconstruct")
	ErrShardSize      = errors.New("rs: inconsistent shard sizes")
	ErrSingularDecode = errors.New("rs: decode matrix singular")
)

// NewCodec creates a codec for k data and m parity shards.
// 1 ≤ k, 0 ≤ m, k+m ≤ 256 (the field size bounds total shards).
func NewCodec(k, m int) (*Codec, error) {
	if k < 1 || m < 0 || k+m > fieldSize {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrInvalidParams, k, m)
	}
	c := &Codec{k: k, m: m}
	if m > 0 {
		// Copied out, so the identity block above them is not kept alive.
		parity := buildSystematic(k+m, k).subMatrix(k, k+m, 0, k)
		c.rows = make([][]byte, m)
		for i := range c.rows {
			c.rows[i] = parity.row(i)
		}
	}
	return c, nil
}

// Encode fills parity shards from data shards. shards must hold k+m slices
// of identical length; the first k are inputs, the last m are outputs and
// are overwritten in place: the caller allocates them (enabling buffer
// reuse in the encoder hot path) and need not zero them.
func (c *Codec) Encode(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("%w: got %d shards, want %d", ErrShardSize, len(shards), c.k+c.m)
	}
	if _, err := checkShardSizes(shards, nil); err != nil {
		return err
	}
	for _, out := range shards[c.k:] {
		clear(out)
	}
	accumulate(c.rows, shards[:c.k], shards[c.k:], 0)
	return nil
}

// EncodePacked computes the parity of a batch of variable-size payloads
// without packing them: parity receives, byte for byte, what Encode
// produces from PackBatch(payloads) at the parity's shard size. The k
// payloads are read where they lie — each payload byte once per pair of
// parity rows, the 2-byte length prefix folded in arithmetically, and a
// payload shorter than the shard adding nothing past its end, which is
// what its zero padding would have added. parity must hold m slices of one
// length ≥ PackedSize of the longest payload; they are overwritten. This
// is the cross-stream and in-stream encoder's entry point (§4.1).
func (c *Codec) EncodePacked(payloads, parity [][]byte) error {
	if len(payloads) != c.k || len(parity) != c.m {
		return fmt.Errorf("%w: got %d payloads and %d parity, want %d and %d", ErrShardSize, len(payloads), len(parity), c.k, c.m)
	}
	if c.m == 0 {
		return nil
	}
	size, err := checkShardSizes(parity, nil)
	if err != nil {
		return err
	}
	for _, p := range payloads {
		if len(p) > MaxPayload || PackedSize(len(p)) > size {
			return fmt.Errorf("%w: payload %d does not pack into %d bytes", ErrShardSize, len(p), size)
		}
	}
	for r, out := range parity {
		clear(out)
		var hi, lo byte
		for j, p := range payloads {
			hi ^= gfMul(c.rows[r][j], byte(len(p)>>8))
			lo ^= gfMul(c.rows[r][j], byte(len(p)))
		}
		out[0], out[1] = hi, lo
	}
	accumulate(c.rows, payloads, parity, 2)
	return nil
}

// Reconstruct fills in missing shards. shards has length k+m; missing
// shards are nil and are allocated and filled on success. At least k shards
// must be present. Present shards are never modified.
func (c *Codec) Reconstruct(shards [][]byte) error {
	if err := c.ReconstructData(shards); err != nil {
		return err
	}
	// With all data shards in hand, re-encode any missing parity.
	data, parity := shards[:c.k], shards[c.k:]
	for i := range parity {
		if parity[i] == nil {
			parity[i] = make([]byte, len(data[0]))
			accumulate(c.rows[i:i+1], data, parity[i:i+1], 0)
		}
	}
	return nil
}

// ReconstructData is Reconstruct for a decoder: it fills in the missing
// data shards and leaves missing parity shards nil, saving the pass over
// all k sources (and the allocation) each of those would cost. Its working
// matrices are its own, one set per call; an engine that decodes one batch
// at a time reuses one set through Cache.ReconstructData.
func (c *Codec) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, new(decodeScratch))
}

// decodeScratch is the working memory of one reconstruction: the k×k
// matrix of the generator rows of the shards used, the Gauss-Jordan work
// and inverse matrices, and the table of the shards used.
type decodeScratch struct {
	sub, work, inv matrix
	input          [][]byte
}

// reconstruct is ReconstructData working in scratch.
func (c *Codec) reconstruct(shards [][]byte, scratch *decodeScratch) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("%w: got %d shards, want %d", ErrShardSize, len(shards), c.k+c.m)
	}
	present := 0
	size := -1
	for _, s := range shards {
		if s == nil {
			continue
		}
		present++
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: %d vs %d", ErrShardSize, len(s), size)
		}
	}
	if present < c.k {
		return fmt.Errorf("%w: %d present, need %d", ErrTooFewShards, present, c.k)
	}
	for _, s := range shards[:c.k] {
		if s == nil {
			return c.reconstructData(shards, size, scratch)
		}
	}
	return nil
}

// reconstructData solves for the missing data shards using the first k
// available shards.
func (c *Codec) reconstructData(shards [][]byte, size int, s *decodeScratch) error {
	// Build the k×k matrix whose rows are the generator rows of k
	// available shards, plus the corresponding shard data.
	s.sub.reshape(c.k, c.k)
	sub := s.sub
	input := slices.Grow(s.input[:0], c.k)[:c.k]
	s.input = input
	defer clear(input) // the scratch pins no caller's shard
	got := 0
	for i := 0; i < c.k+c.m && got < c.k; i++ {
		if shards[i] == nil {
			continue
		}
		if i < c.k {
			sub.set(got, i, 1) // systematic row: identity
		} else {
			copy(sub.row(got), c.rows[i-c.k])
		}
		input[got] = shards[i]
		got++
	}
	if err := sub.invert(&s.work, &s.inv); err != nil {
		return ErrSingularDecode
	}
	// Missing shard d is row d of the inverse applied to the inputs. The
	// usual one or two losses fit the stack arrays; more spill to the heap.
	var rowBuf, outBuf [4][]byte
	rows, outs := rowBuf[:0], outBuf[:0]
	for d := 0; d < c.k; d++ {
		if shards[d] == nil {
			shards[d] = make([]byte, size)
			rows = append(rows, s.inv.row(d))
			outs = append(outs, shards[d])
		}
	}
	accumulate(rows, input, outs, 0)
	return nil
}

// checkShardSizes verifies all shards (and the optional extra slice) share
// one length and that none are nil, returning the common size.
func checkShardSizes(shards [][]byte, extra []byte) (int, error) {
	if len(shards) == 0 {
		return 0, ErrShardSize
	}
	if shards[0] == nil {
		return 0, fmt.Errorf("%w: nil shard", ErrShardSize)
	}
	size := len(shards[0])
	for _, s := range shards[1:] {
		if s == nil || len(s) != size {
			return 0, fmt.Errorf("%w: want %d bytes per shard", ErrShardSize, size)
		}
	}
	if extra != nil && len(extra) != size {
		return 0, fmt.Errorf("%w: dst %d, want %d", ErrShardSize, len(extra), size)
	}
	return size, nil
}
