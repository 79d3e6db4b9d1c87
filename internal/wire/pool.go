package wire

import (
	"math/bits"
	"slices"
)

// Pool is a free list of message buffers, kept by size class. A runtime
// draws its messages from its one pool — data copies, parity, NACKs,
// pulls and their answers, coop and verify responses — and whoever
// consumes one hands it back (see package dataplane), so a steady flow of
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
	free := &p.free[classOf(ClassSize(n))]
	if k := len(*free); k > 0 {
		buf := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		return buf[:0]
	}
	return make([]byte, 0, ClassSize(n))
}

// Holds is how many of the buffers the pool holds a Get(n) could return.
func (p *Pool) Holds(n int) int {
	if p == nil || n > 1<<poolMaxShift {
		return 0
	}
	return len(p.free[classOf(ClassSize(n))])
}

// ClassSize is the capacity Get(n) allocates: n's class size, or n past
// the largest class. A buffer of that capacity goes back to n's class.
func ClassSize(n int) int {
	if n > 1<<poolMaxShift {
		return n
	}
	return 1 << max(poolMinShift, bits.Len(uint(max(n, 1)-1)))
}

// classOf is the class a buffer of capacity c goes back to, out of range
// when c is outside every class.
func classOf(c int) int { return bits.Len(uint(c)) - 1 - poolMinShift }

// Put hands buf back for a later Get. The caller must hold no other
// reference to its bytes: the next Get of its class may write them. A
// buffer of a class that is full, or outside every class, is dropped.
// Built with -tags poolcheck, Put panics on a buffer the pool holds.
func (p *Pool) Put(buf []byte) {
	if p == nil {
		return
	}
	if poolCheck {
		scribble(buf[:cap(buf)])
	}
	i := classOf(cap(buf))
	if i < 0 || i >= poolClasses || len(p.free[i]) >= classCap(i) {
		return
	}
	if poolCheck && slices.ContainsFunc(p.free[i], func(b []byte) bool { return &b[:1][0] == &buf[:1][0] }) {
		panic("wire: Pool.Put of a buffer the pool already holds")
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
