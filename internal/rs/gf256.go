// Package rs implements systematic Reed-Solomon erasure coding over
// GF(2⁸), replacing the zfec library the paper's prototype used. The codec
// produces n-k parity shards for k data shards; any k of the n shards
// reconstruct the originals. CR-WAN uses it for both in-stream FEC and
// cross-stream coded packets (§4).
//
// The layers, bottom up: the field tables (this file); the multiply-
// accumulate kernel every encode and decode runs on, a source word at a
// time into up to two rows (kernel.go); the Codec — Encode over equal
// shards, EncodePacked over a batch of variable-size packets read where
// they lie, Reconstruct and the decoders' ReconstructData (rs.go); the
// shard layout for variable-size packets (pack.go); and Cache, the bounded
// per-engine memo of codecs by shape (cache.go). The byte-at-a-time loop
// the kernel replaced lives on in the tests as its reference.
package rs

// GF(2⁸) arithmetic with the primitive polynomial x⁸+x⁴+x³+x²+1 (0x11D),
// the same field used by most storage erasure coders. Multiplication uses
// log/exp tables folded into one 64 KiB product table; encode and decode
// both run on the word-wise multiply-accumulate kernel in kernel.go.

const fieldSize = 256

var (
	expTable [2 * fieldSize]byte // exp[i] = α^i, doubled to skip a mod
	logTable [fieldSize]int
	// mulTable[a][b] = a·b. 64 KiB; built once at init. Keeping the full
	// table makes matrix inversion and the kernel branch-free: row a is
	// the 256-entry lookup for "multiply by a".
	mulTable [fieldSize][fieldSize]byte
)

func init() {
	x := 1
	for i := 0; i < fieldSize-1; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11D
		}
	}
	for i := fieldSize - 1; i < len(expTable); i++ {
		expTable[i] = expTable[i-(fieldSize-1)]
	}
	for a := 1; a < fieldSize; a++ {
		la := logTable[a]
		for b := 1; b < fieldSize; b++ {
			mulTable[a][b] = expTable[la+logTable[b]]
		}
	}
}

// gfMul returns a·b in GF(2⁸).
func gfMul(a, b byte) byte { return mulTable[a][b] }

// gfDiv returns a/b in GF(2⁸). Division by zero panics: it can only arise
// from a singular decode matrix, which the decoder rules out beforehand.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("rs: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return expTable[logTable[a]-logTable[b]+(fieldSize-1)]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfExp returns α^n for n ≥ 0.
func gfExp(n int) byte {
	return expTable[n%(fieldSize-1)]
}
