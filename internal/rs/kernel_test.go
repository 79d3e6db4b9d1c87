package rs

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// mulSlice is the byte-at-a-time multiply-accumulate the word-wise kernel
// replaced: dst[i] ^= c·src[i], one table lookup, one load and one store
// per byte. It lives on as the reference the kernel is tested against.
func mulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("rs: mulSlice length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		for i, s := range src {
			dst[i] ^= s
		}
	default:
		row := &mulTable[c]
		for i, s := range src {
			dst[i] ^= row[s]
		}
	}
}

// referenceParity is the encode the kernel replaced: shards of one size,
// one pass per (parity row, data shard) with mulSlice.
func referenceParity(c *Codec, data [][]byte) [][]byte {
	parity := make([][]byte, c.m)
	for p := range parity {
		parity[p] = make([]byte, len(data[0]))
		for d, shard := range data {
			mulSlice(c.rows[p][d], shard, parity[p])
		}
	}
	return parity
}

// dirty returns n slices of size bytes filled with noise: every encode
// entry point overwrites its output, whatever it held.
func dirty(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// checkEncodePacked holds EncodePacked to its definition: PackBatch, then
// the reference encode, byte for byte.
func checkEncodePacked(t *testing.T, rng *rand.Rand, c *Codec, payloads [][]byte) {
	t.Helper()
	shards, size, err := PackBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceParity(c, shards)
	got := dirty(rng, c.m, size)
	if err := c.EncodePacked(payloads, got); err != nil {
		t.Fatalf("EncodePacked(k=%d m=%d size=%d): %v", c.k, c.m, size, err)
	}
	for p := range want {
		if !bytes.Equal(got[p], want[p]) {
			lens := make([]int, len(payloads))
			for i, pl := range payloads {
				lens[i] = len(pl)
			}
			t.Fatalf("EncodePacked(k=%d m=%d) parity %d differs from PackBatch+reference; lengths %v", c.k, c.m, p, lens)
		}
	}
}

// raggedLengths draws one batch's payload lengths in [0, 1500]: uniform,
// all short, word-boundary sizes, all equal, or one source longer than the
// rest.
func raggedLengths(rng *rand.Rand, k int) []int {
	lens := make([]int, k)
	switch mode := rng.Intn(8); mode {
	case 0:
		for i := range lens {
			lens[i] = rng.Intn(1501)
		}
	case 1:
		edge := []int{0, 1, 7, 8, 9}
		for i := range lens {
			lens[i] = edge[rng.Intn(len(edge))]
		}
	case 2:
		n := rng.Intn(200)
		for i := range lens {
			lens[i] = n
		}
	case 3:
		for i := range lens {
			lens[i] = rng.Intn(12)
		}
		lens[rng.Intn(k)] = 20 + rng.Intn(1481)
	default:
		for i := range lens {
			lens[i] = rng.Intn(48)
		}
	}
	return lens
}

func randomPayloads(rng *rand.Rand, lens []int) [][]byte {
	payloads := make([][]byte, len(lens))
	for i, n := range lens {
		payloads[i] = make([]byte, n)
		rng.Read(payloads[i])
	}
	return payloads
}

// TestEncodePackedMatchesReference is the differential oracle for the
// packed encode: 12 000 seeded random batches, K ∈ [1, 20], R ∈ [1, 4].
func TestEncodePackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	codecs := NewCache(80)
	batches := 12000
	if testing.Short() {
		batches = 2000
	}
	for i := 0; i < batches; i++ {
		k, m := 1+rng.Intn(20), 1+rng.Intn(4)
		checkEncodePacked(t, rng, codecs.Get(k, m), randomPayloads(rng, raggedLengths(rng, k)))
	}
	// The lengths the word loop turns on, as whole batches.
	c := codecs.Get(6, 2)
	for _, lens := range [][]int{
		{0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1}, {7, 8, 9, 7, 8, 9}, {1400, 0, 1, 7, 8, 9},
		{1500, 1500, 1500, 1500, 1500, 1500}, {0, 0, 0, 0, 0, 1500},
	} {
		checkEncodePacked(t, rng, c, randomPayloads(rng, lens))
	}
}

// TestEncodeMatchesReference holds Encode and encodeParity to the
// byte-at-a-time encode at shard sizes that are not a multiple of 8, with
// every parity count from one odd row to two pairs and a row.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{1, 2, 7, 8, 9, 33, 63, 65, 511, 1402} {
		for m := 1; m <= 5; m++ {
			k := 1 + rng.Intn(20)
			c, err := NewCodec(k, m)
			if err != nil {
				t.Fatal(err)
			}
			data := dirty(rng, k, size)
			want := referenceParity(c, data)
			shards := append(append([][]byte{}, data...), dirty(rng, m, size)...)
			if err := c.Encode(shards); err != nil {
				t.Fatal(err)
			}
			for p := range want {
				if !bytes.Equal(shards[k+p], want[p]) {
					t.Fatalf("Encode(k=%d m=%d size=%d) parity %d differs from the reference", k, m, size, p)
				}
				dst := dirty(rng, 1, size)[0]
				encodeParity(c, p, data, dst)
				if !bytes.Equal(dst, want[p]) {
					t.Fatalf("encodeParity(k=%d m=%d size=%d, %d) differs from the reference", k, m, size, p)
				}
			}
		}
	}
}

func TestEncodePackedErrors(t *testing.T) {
	c, _ := NewCodec(2, 2)
	two := func(n int) [][]byte { return [][]byte{make([]byte, n), make([]byte, n)} }
	if err := c.EncodePacked(two(4)[:1], two(6)); err == nil {
		t.Error("one payload for k=2 accepted")
	}
	if err := c.EncodePacked(two(4), two(6)[:1]); err == nil {
		t.Error("one parity for m=2 accepted")
	}
	if err := c.EncodePacked(two(4), two(5)); err == nil {
		t.Error("parity shorter than PackedSize accepted")
	}
	if err := c.EncodePacked(two(4), [][]byte{make([]byte, 6), make([]byte, 7)}); err == nil {
		t.Error("uneven parity accepted")
	}
	if err := c.EncodePacked(two(MaxPayload+1), two(MaxPayload+3)); err == nil {
		t.Error("a payload the length prefix cannot describe accepted")
	}
	if err := c.EncodePacked(two(4), two(9)); err != nil {
		t.Errorf("parity longer than the longest packed payload: %v", err)
	}
}

// FuzzEncodePacked lets the fuzzer choose the batch shape, the ragged
// lengths and the bytes: raw is 2k big-endian lengths (mod 1501) followed
// by content, repeated as needed.
func FuzzEncodePacked(f *testing.F) {
	f.Add(uint8(5), uint8(1), []byte{0, 0, 0, 1, 0, 7, 0, 8, 0, 9, 5, 120, 0xA5, 0x5A, 0xFF})
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(19), uint8(3), []byte{5, 220, 1, 2, 3})
	codecs := NewCache(80)
	f.Fuzz(func(t *testing.T, kRaw, mRaw uint8, raw []byte) {
		k, m := 1+int(kRaw)%20, 1+int(mRaw)%4
		payloads := make([][]byte, k)
		var content []byte
		if len(raw) > 2*k {
			content = raw[2*k:]
		}
		at := 0
		for i := range payloads {
			n := 0
			if len(raw) >= 2*i+2 {
				n = int(binary.BigEndian.Uint16(raw[2*i:])) % 1501
			}
			payloads[i] = make([]byte, n)
			for j := range payloads[i] {
				if len(content) > 0 {
					payloads[i][j] = content[at%len(content)]
					at++
				}
			}
		}
		checkEncodePacked(t, rand.New(rand.NewSource(int64(len(raw)))), codecs.Get(k, m), payloads)
	})
}

// TestPackedRoundTrip is the property the coding service rests on: encode
// a ragged batch, lose any ≤ R of its K+R shards, reconstruct, unpack, and
// the original payloads are back.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codecs := NewCache(80)
	for i := 0; i < 2000; i++ {
		k, m := 1+rng.Intn(20), 1+rng.Intn(4)
		c := codecs.Get(k, m)
		payloads := randomPayloads(rng, raggedLengths(rng, k))
		shards, size, err := PackBatch(payloads)
		if err != nil {
			t.Fatal(err)
		}
		parity := dirty(rng, m, size)
		if err := c.EncodePacked(payloads, parity); err != nil {
			t.Fatal(err)
		}
		all := append(shards, parity...)
		lost := rng.Perm(k + m)[:rng.Intn(m+1)]
		for _, j := range lost {
			all[j] = nil
		}
		if err := c.ReconstructData(all); err != nil {
			t.Fatalf("k=%d m=%d lost %v: %v", k, m, lost, err)
		}
		for j, want := range payloads {
			got, err := Unpack(all[j])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("k=%d m=%d lost %v: payload %d came back different", k, m, lost, j)
			}
		}
		for _, j := range lost {
			if j >= k && all[j] != nil {
				t.Fatalf("ReconstructData rebuilt parity shard %d", j)
			}
		}
	}
}

// TestReconstructDataAgreesWithReconstruct: the decoders' entry point
// returns the data shards Reconstruct does, and only those.
func TestReconstructDataAgreesWithReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shards, c := makeShards(t, rng, 6, 2, 77)
	full := append([][]byte{}, shards...)
	full[1], full[7] = nil, nil
	data := append([][]byte{}, full...)
	if err := c.Reconstruct(full); err != nil {
		t.Fatal(err)
	}
	if err := c.ReconstructData(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full[1], shards[1]) || !bytes.Equal(data[1], shards[1]) {
		t.Error("data shard 1 not reconstructed")
	}
	if !bytes.Equal(full[7], shards[7]) {
		t.Error("Reconstruct no longer re-encodes missing parity")
	}
	if data[7] != nil {
		t.Error("ReconstructData re-encoded missing parity")
	}
	data[0], data[1], data[2] = nil, nil, nil
	if err := c.ReconstructData(data); err == nil {
		t.Error("ReconstructData with 4 of 8 shards left succeeded")
	}
}

// TestCacheBounded floods the cache with a grid over every (k, m) a forged
// header can name: it must stay at its bound, return nil for shapes no code has, and
// still serve a shape it evicted.
func TestCacheBounded(t *testing.T) {
	const bound = 8
	c := NewCache(bound)
	first := c.Get(6, 2)
	if first == nil || c.Get(6, 2) != first {
		t.Fatal("a cached shape was rebuilt")
	}
	for k := 0; k <= 256; k += 5 {
		for m := 0; m <= 256; m += 51 {
			codec := c.Get(k, m)
			if legal := k >= 1 && k+m <= 256; (codec != nil) != legal {
				t.Fatalf("Get(%d, %d) = %v, legal shape %v", k, m, codec, legal)
			}
			if c.Len() > bound {
				t.Fatalf("cache holds %d shapes after Get(%d, %d), bound %d", c.Len(), k, m, bound)
			}
		}
	}
	if c.Len() != bound {
		t.Errorf("cache holds %d shapes after the flood, want its bound %d", c.Len(), bound)
	}
	again := c.Get(6, 2)
	if again == nil || again.k != 6 || again.m != 2 {
		t.Error("an evicted shape is not rebuilt")
	}
	if NewCache(0).Get(3, 1) == nil {
		t.Error("a zero bound does not clamp to one shape")
	}
}
