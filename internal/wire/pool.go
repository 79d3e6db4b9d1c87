package wire

import "math/bits"

// Pool is a free list of message buffers, kept by size class. A runtime
// draws from its one pool every message that its DCs consume — coded
// parity, NACKs, pulls, coop and verify responses — and the DC core that
// reads one hands it back (dataplane.Core.Handle), so a steady flow of
// them allocates nothing.
//
// Class k holds buffers whose capacity lies in [2^k, 2^(k+1)) and serves
// requests of more than 2^(k-1) and at most 2^k bytes (the smallest class
// serves every request up to 64 B): a buffer is never less than the
// message it carries, nor more than four times it (two for the buffers Get
// allocated, whose capacity is the class size). Classes
// run from 64 B to 64 KiB; a request beyond the largest is allocated to
// size, and a buffer smaller than the smallest, or too large for the
// largest, is left to the collector.
//
// Idle bound: class k keeps at most min(64, 2^18 / 2^k) buffers — 64 up
// to 4 KiB, then 256 KiB worth — so a pool holds at most 508 buffers:
// 1 568 768 B (1.5 MiB) when every buffer came from Get, under twice that
// whatever was Put.
//
// A nil *Pool allocates every buffer and keeps none. Not safe for
// concurrent use; its runtime serializes Get and Put.
type Pool struct {
	free [poolClasses][][]byte
}

const (
	poolMinShift = 6  // the smallest class: 64 B, room for any header-only message
	poolMaxShift = 16 // the largest: 64 KiB, a whole datagram
	poolClasses  = poolMaxShift - poolMinShift + 1
	// poolMaxHeld is a class's bound in buffers; poolClassBytes the bound
	// in bytes of the larger classes.
	poolMaxHeld    = 64
	poolClassBytes = 256 << 10
)

// classCap is how many buffers class i keeps.
func classCap(i int) int {
	return min(poolMaxHeld, poolClassBytes>>(i+poolMinShift))
}

// Get returns an empty buffer with room for n bytes: a held one of n's
// class when there is one, else a new one of the class size.
func (p *Pool) Get(n int) []byte {
	if p == nil || n > 1<<poolMaxShift {
		return make([]byte, 0, n)
	}
	shift := max(poolMinShift, bits.Len(uint(max(n, 1)-1)))
	free := &p.free[shift-poolMinShift]
	if k := len(*free); k > 0 {
		buf := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		return buf[:0]
	}
	return make([]byte, 0, 1<<shift)
}

// Put hands buf back for a later Get. The caller must hold no other
// reference to its bytes: the next Get of its class may write them. A
// buffer of a class that is full, or outside every class, is dropped.
func (p *Pool) Put(buf []byte) {
	if p == nil {
		return
	}
	if poolCheck {
		scribble(buf[:cap(buf)])
	}
	i := bits.Len(uint(cap(buf))) - 1 - poolMinShift
	if i < 0 || i >= poolClasses || len(p.free[i]) >= classCap(i) {
		return
	}
	p.free[i] = append(p.free[i], buf[:0])
}

// Len is how many buffers the pool holds.
func (p *Pool) Len() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, free := range p.free {
		n += len(free)
	}
	return n
}
