package rs

import "encoding/binary"

// The multiply-accumulate kernel. Every encode and decode is
//
//	dst_r ^= Σ_j coef[r][j] · src_j
//
// over byte slices. The kernel takes one source and up to two destination
// rows per pass: it loads each 8-byte source word once, looks the eight
// bytes up in each row's product table (mulTable[coef]), assembles the
// products into one word per row and folds it into the destination with a
// single 64-bit load-xor-store, two words per loop iteration.
// encoding/binary compiles to plain unaligned loads and stores on
// little-endian targets and stays correct elsewhere.
//
// A source may be shorter than the destinations: it contributes nothing
// past its own end, which is how a ragged batch is coded without padding
// (see EncodePacked).

// mul4 returns the four products t[b] of the bytes b of s, each in its
// byte's place. Half a word, so that it stays under the compiler's inlining
// budget: a call per word would cost more than the lookups.
func mul4(t *[fieldSize]byte, s uint32) uint32 {
	return uint32(t[byte(s)]) |
		uint32(t[byte(s>>8)])<<8 |
		uint32(t[byte(s>>16)])<<16 |
		uint32(t[byte(s>>24)])<<24
}

// mulAdd computes d[i] ^= t[src[i]] for i < len(src) ≤ len(d), two words
// per iteration and the last < 16 bytes one at a time.
func mulAdd(t *[fieldSize]byte, src, d []byte) {
	d = d[:len(src)]
	for len(src) >= 16 {
		s, u := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])
		w := uint64(mul4(t, uint32(s))) | uint64(mul4(t, uint32(s>>32)))<<32
		x := uint64(mul4(t, uint32(u))) | uint64(mul4(t, uint32(u>>32)))<<32
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^w)
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^x)
		src, d = src[16:], d[16:]
	}
	for i, b := range src {
		d[i] ^= t[b]
	}
}

// mulAdd2 is mulAdd into two rows at once: d0[i] ^= t0[src[i]] and
// d1[i] ^= t1[src[i]], the source read once. This is the loop a K+2 batch
// spends its time in.
func mulAdd2(t0, t1 *[fieldSize]byte, src, d0, d1 []byte) {
	d0, d1 = d0[:len(src)], d1[:len(src)]
	for len(src) >= 16 {
		s, u := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])
		w0 := uint64(mul4(t0, uint32(s))) | uint64(mul4(t0, uint32(s>>32)))<<32
		w1 := uint64(mul4(t1, uint32(s))) | uint64(mul4(t1, uint32(s>>32)))<<32
		x0 := uint64(mul4(t0, uint32(u))) | uint64(mul4(t0, uint32(u>>32)))<<32
		x1 := uint64(mul4(t1, uint32(u))) | uint64(mul4(t1, uint32(u>>32)))<<32
		binary.LittleEndian.PutUint64(d0, binary.LittleEndian.Uint64(d0)^w0)
		binary.LittleEndian.PutUint64(d1, binary.LittleEndian.Uint64(d1)^w1)
		binary.LittleEndian.PutUint64(d0[8:], binary.LittleEndian.Uint64(d0[8:])^x0)
		binary.LittleEndian.PutUint64(d1[8:], binary.LittleEndian.Uint64(d1[8:])^x1)
		src, d0, d1 = src[16:], d0[16:], d1[16:]
	}
	for i, b := range src {
		d0[i] ^= t0[b]
		d1[i] ^= t1[b]
	}
}

// accumulate adds Σ_j rows[r][j]·srcs[j] into dsts[r][off:] for every row
// r, two rows per pass over the sources. Each source must fit:
// off+len(srcs[j]) ≤ len(dsts[r]).
func accumulate(rows, srcs, dsts [][]byte, off int) {
	r := 0
	for ; r+1 < len(dsts); r += 2 {
		d0, d1 := dsts[r][off:], dsts[r+1][off:]
		for j, src := range srcs {
			mulAdd2(&mulTable[rows[r][j]], &mulTable[rows[r+1][j]], src, d0, d1)
		}
	}
	if r < len(dsts) {
		d := dsts[r][off:]
		for j, src := range srcs {
			mulAdd(&mulTable[rows[r][j]], src, d)
		}
	}
}
