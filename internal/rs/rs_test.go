package rs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// gfAdd returns a+b in GF(2⁸) (carry-less: XOR).
func gfAdd(a, b byte) byte { return a ^ b }

// identity returns the n×n identity matrix.
func identity(n int) matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

func TestGFAxioms(t *testing.T) {
	// Spot-check field axioms exhaustively over the whole field.
	for a := 0; a < 256; a++ {
		ab := byte(a)
		if gfMul(ab, 1) != ab {
			t.Fatalf("%d·1 != %d", a, a)
		}
		if gfMul(ab, 0) != 0 {
			t.Fatalf("%d·0 != 0", a)
		}
		if gfAdd(ab, ab) != 0 {
			t.Fatalf("%d+%d != 0 (char 2)", a, a)
		}
		if a != 0 {
			if got := gfMul(ab, gfInv(ab)); got != 1 {
				t.Fatalf("%d·inv = %d, want 1", a, got)
			}
		}
	}
}

func TestGFMulCommutesAndAssociates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("mul not commutative: %d %d", a, b)
		}
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			t.Fatalf("mul not associative: %d %d %d", a, b, c)
		}
		// Distributivity.
		if gfMul(a, gfAdd(b, c)) != gfAdd(gfMul(a, b), gfMul(a, c)) {
			t.Fatalf("not distributive: %d %d %d", a, b, c)
		}
	}
}

func TestGFDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gfDiv(x, 0) did not panic")
		}
	}()
	gfDiv(3, 0)
}

func TestGFDivIsInverseOfMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			q := gfDiv(byte(a), byte(b))
			if gfMul(q, byte(b)) != byte(a) {
				t.Fatalf("(%d/%d)*%d = %d, want %d", a, b, b, gfMul(q, byte(b)), a)
			}
		}
	}
}

func TestMulSliceKernels(t *testing.T) {
	src := []byte{1, 2, 3, 255}
	dst := []byte{9, 9, 9, 9}
	mulSlice(0, src, dst)
	if !bytes.Equal(dst, []byte{9, 9, 9, 9}) {
		t.Error("mulSlice(0) should be a no-op")
	}
	mulSlice(1, src, dst)
	if !bytes.Equal(dst, []byte{8, 11, 10, 246}) {
		t.Errorf("mulSlice(1) = %v", dst)
	}
	// The word-wise kernel against the byte-at-a-time reference: every
	// coefficient, lengths around the 8-byte word and the 16-byte loop
	// stride, one and two rows, a destination longer than the source left
	// alone past the source's end.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1402} {
		src := make([]byte, n)
		rng.Read(src)
		for c := 0; c < 256; c++ {
			c0, c1 := byte(c), byte(255-c)
			init0, init1 := make([]byte, n+3), make([]byte, n+3)
			rng.Read(init0)
			rng.Read(init1)
			want0, want1 := bytes.Clone(init0), bytes.Clone(init1)
			mulSlice(c0, src, want0[:n])
			mulSlice(c1, src, want1[:n])

			got := bytes.Clone(init0)
			mulAdd(&mulTable[c0], src, got)
			if !bytes.Equal(got, want0) {
				t.Fatalf("mulAdd(c=%d, n=%d) differs from the reference", c0, n)
			}
			got0, got1 := bytes.Clone(init0), bytes.Clone(init1)
			mulAdd2(&mulTable[c0], &mulTable[c1], src, got0, got1)
			if !bytes.Equal(got0, want0) || !bytes.Equal(got1, want1) {
				t.Fatalf("mulAdd2(c=%d,%d, n=%d) differs from the reference", c0, c1, n)
			}
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	mulSlice(3, make([]byte, 4), make([]byte, 5))
}

func TestMatrixInvertIdentity(t *testing.T) {
	id := identity(5)
	var work, inv matrix
	if err := id.invert(&work, &inv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inv.data, id.data) {
		t.Error("identity inverse != identity")
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := vandermonde(n, n)
		var work, inv matrix
		if err := m.invert(&work, &inv); err != nil {
			t.Fatalf("vandermonde %dx%d singular: %v", n, n, err)
		}
		prod := m.mul(inv)
		if !bytes.Equal(prod.data, identity(n).data) {
			t.Fatalf("m·inv != I for n=%d", n)
		}
	}
}

func TestMatrixSingular(t *testing.T) {
	var work, inv matrix
	m := newMatrix(2, 2) // all zeros
	if err := m.invert(&work, &inv); err == nil {
		t.Fatal("zero matrix inverted")
	}
	nm := newMatrix(2, 3)
	if err := nm.invert(&work, &inv); err == nil {
		t.Fatal("non-square matrix inverted")
	}
}

func TestNewCodecParamValidation(t *testing.T) {
	for _, c := range []struct{ k, m int }{{0, 1}, {-1, 2}, {1, -1}, {200, 100}} {
		if _, err := NewCodec(c.k, c.m); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("NewCodec(%d,%d) err = %v, want ErrInvalidParams", c.k, c.m, err)
		}
	}
	if _, err := NewCodec(1, 0); err != nil {
		t.Errorf("NewCodec(1,0): %v", err)
	}
	if c, err := NewCodec(4, 2); err != nil || c.k != 4 || c.m != 2 || len(c.rows) != 2 {
		t.Errorf("NewCodec(4,2) = %v, %v", c, err)
	}
}

func makeShards(t *testing.T, rng *rand.Rand, k, m, size int) ([][]byte, *Codec) {
	t.Helper()
	c, err := NewCodec(k, m)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < k {
			rng.Read(shards[i])
		}
	}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	return shards, c
}

func TestEncodeSystematic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([][]byte, 4)
	orig := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, 64)
		rng.Read(data[i])
		orig[i] = append([]byte(nil), data[i]...)
	}
	c, _ := NewCodec(4, 2)
	shards := append(data, make([]byte, 64), make([]byte, 64))
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Errorf("systematic encode modified data shard %d", i)
		}
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	// For a small code, erase every subset of shards of size ≤ m and
	// verify exact reconstruction — the core RS guarantee.
	const k, m, size = 4, 3, 33
	rng := rand.New(rand.NewSource(5))
	shards, c := makeShards(t, rng, k, m, size)
	want := make([][]byte, len(shards))
	for i := range shards {
		want[i] = append([]byte(nil), shards[i]...)
	}
	n := k + m
	for mask := 0; mask < 1<<n; mask++ {
		erased := 0
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				erased++
			}
		}
		if erased == 0 || erased > m {
			continue
		}
		work := make([][]byte, n)
		for i := range work {
			if mask&(1<<i) != 0 {
				work[i] = nil
			} else {
				work[i] = append([]byte(nil), want[i]...)
			}
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for i := range work {
			if !bytes.Equal(work[i], want[i]) {
				t.Fatalf("mask %b: shard %d mismatch", mask, i)
			}
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shards, c := makeShards(t, rng, 4, 2, 16)
	shards[0], shards[1], shards[2] = nil, nil, nil // only 3 of 4+2 left
	if err := c.Reconstruct(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestReconstructSizeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shards, c := makeShards(t, rng, 3, 2, 16)
	shards[1] = make([]byte, 8)
	if err := c.Reconstruct(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("err = %v, want ErrShardSize", err)
	}
	if err := c.Reconstruct(shards[:3]); !errors.Is(err, ErrShardSize) {
		t.Fatalf("short slice err = %v, want ErrShardSize", err)
	}
}

func TestEncodeErrors(t *testing.T) {
	c, _ := NewCodec(2, 1)
	if err := c.Encode([][]byte{make([]byte, 4)}); !errors.Is(err, ErrShardSize) {
		t.Errorf("wrong count: %v", err)
	}
	if err := c.Encode([][]byte{make([]byte, 4), make([]byte, 5), make([]byte, 4)}); !errors.Is(err, ErrShardSize) {
		t.Errorf("uneven sizes: %v", err)
	}
	if err := c.Encode([][]byte{make([]byte, 4), nil, make([]byte, 4)}); !errors.Is(err, ErrShardSize) {
		t.Errorf("nil shard: %v", err)
	}
}

// encodeParity computes parity shard p alone into dst, through the kernel
// Encode runs over all parity rows at once.
func encodeParity(c *Codec, p int, data [][]byte, dst []byte) {
	clear(dst)
	accumulate(c.rows[p:p+1], data, [][]byte{dst}, 0)
}

func TestEncodeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shards, c := makeShards(t, rng, 5, 3, 48)
	for p := 0; p < 3; p++ {
		dst := make([]byte, 48)
		encodeParity(c, p, shards[:5], dst)
		if !bytes.Equal(dst, shards[5+p]) {
			t.Errorf("parity row %d alone != Encode row", p)
		}
	}
}

func TestZeroParityCodec(t *testing.T) {
	c, err := NewCodec(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{{1}, {2}, {3}}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructQuick(t *testing.T) {
	// Property: for random (k, m, erasures ≤ m), reconstruction is exact.
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(10)
		m := r.Intn(5)
		size := 1 + r.Intn(300)
		c, err := NewCodec(k, m)
		if err != nil {
			return false
		}
		shards := make([][]byte, k+m)
		for i := range shards {
			shards[i] = make([]byte, size)
			if i < k {
				r.Read(shards[i])
			}
		}
		if err := c.Encode(shards); err != nil {
			return false
		}
		want := make([][]byte, len(shards))
		for i := range shards {
			want[i] = append([]byte(nil), shards[i]...)
		}
		// Erase up to m random shards.
		for e := 0; e < m; e++ {
			shards[r.Intn(k+m)] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], want[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestCacheReconstructMatchesCodec: decoding in a cache's scratch gives
// what a codec's own fresh matrices give, shard for shard and error for
// error, as the shapes it decodes grow, shrink and recur — scratch a larger
// shape left behind never leaks into a smaller one.
func TestCacheReconstructMatchesCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cache := NewCache(DecoderShapes)
	for trial := 0; trial < 500; trial++ {
		k, m := 1+rng.Intn(12), rng.Intn(5)
		shards, c := makeShards(t, rng, k, m, 1+rng.Intn(64))
		for e := rng.Intn(m + 2); e > 0; e-- { // sometimes one too many
			shards[rng.Intn(k+m)] = nil
		}
		if rng.Intn(20) == 0 && len(shards) > 1 && shards[0] != nil && shards[1] != nil {
			shards[1] = shards[1][1:] // sizes disagree
		}
		mine := append([][]byte(nil), shards...)
		want := append([][]byte(nil), shards...)
		errMine, errWant := cache.ReconstructData(k, m, mine), c.ReconstructData(want)
		if (errMine == nil) != (errWant == nil) || errMine != nil && errMine.Error() != errWant.Error() {
			t.Fatalf("trial %d (%d, %d): cache err %v, codec err %v", trial, k, m, errMine, errWant)
		}
		for i := range want {
			if !bytes.Equal(mine[i], want[i]) || (mine[i] == nil) != (want[i] == nil) {
				t.Fatalf("trial %d (%d, %d): shard %d is %x, want %x", trial, k, m, i, mine[i], want[i])
			}
		}
	}
	if err := cache.ReconstructData(200, 100, make([][]byte, 300)); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("a shape with no code: err %v, want ErrInvalidParams", err)
	}
}

// TestCacheReconstructAllocatesTheShard: once a cache has decoded a batch
// of its shape, a decode allocates only the data shard it fills in.
func TestCacheReconstructAllocatesTheShard(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shards, _ := makeShards(t, rng, 6, 2, 512)
	cache := NewCache(DecoderShapes)
	work := make([][]byte, len(shards))
	decode := func() {
		copy(work, shards)
		work[2] = nil
		if err := cache.ReconstructData(6, 2, work); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, decode); n != 1 {
		t.Errorf("a warm decode of one loss allocates %v times, want 1 (the shard)", n)
	}
	if !bytes.Equal(work[2], shards[2]) {
		t.Error("the warm decode got the shard wrong")
	}
}

// TestCodecReconstructConcurrent: a Codec is safe for concurrent use — two
// goroutines decode on one, each with different losses, and both get their
// shards right. Under -race, working memory shared between them fails it.
func TestCodecReconstructConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shards, c := makeShards(t, rng, 6, 3, 128)
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				work := append([][]byte(nil), shards...)
				lost := (g + i) % 6
				work[lost], work[(lost+1+g)%6] = nil, nil
				if err := c.ReconstructData(work); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(work[lost], shards[lost]) {
					errs <- fmt.Errorf("goroutine %d, decode %d: shard %d wrong", g, i, lost)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	payload := []byte("hello jqos")
	shard := make([]byte, PackedSize(len(payload))+7)
	if _, err := Pack(payload, shard); err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(shard)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("round trip = %q", got)
	}
	// Padding must be zero so parity over padded tails is stable.
	for i := PackedSize(len(payload)); i < len(shard); i++ {
		if shard[i] != 0 {
			t.Errorf("padding byte %d = %d", i, shard[i])
		}
	}
}

func TestPackErrors(t *testing.T) {
	if _, err := Pack(make([]byte, 10), make([]byte, 5)); err == nil {
		t.Error("small shard accepted")
	}
	if _, err := Pack(make([]byte, 70000), make([]byte, 70010)); err == nil {
		t.Error("oversize payload accepted")
	}
	if _, err := Unpack([]byte{1}); err == nil {
		t.Error("short shard unpacked")
	}
	if _, err := Unpack([]byte{0xFF, 0xFF, 0}); err == nil {
		t.Error("lying length unpacked")
	}
}

func TestPackBatch(t *testing.T) {
	payloads := [][]byte{[]byte("a"), []byte("bcdef"), []byte("")}
	shards, size, err := PackBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if size != PackedSize(5) {
		t.Errorf("size = %d, want %d", size, PackedSize(5))
	}
	for i, p := range payloads {
		got, err := Unpack(shards[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("shard %d = %q, want %q", i, got, p)
		}
	}
	if _, _, err := PackBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestCodedRecoveryEndToEnd(t *testing.T) {
	// Simulates the CR-WAN use: pack variable-size packets from k flows,
	// generate r=2 parity, lose two packets, recover both.
	payloads := [][]byte{
		[]byte("flow-A packet 17"),
		[]byte("flow-B pkt"),
		[]byte("flow-C packet with a much longer body 0123456789"),
		[]byte("flow-D"),
	}
	shards, size, err := PackBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewCodec(4, 2)
	all := append(shards, make([]byte, size), make([]byte, size))
	if err := c.Encode(all); err != nil {
		t.Fatal(err)
	}
	all[0], all[2] = nil, nil
	if err := c.Reconstruct(all); err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		got, err := Unpack(all[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("recovered %d = %q, want %q", i, got, p)
		}
	}
}

func BenchmarkEncodeK6R2_512B(b *testing.B) {
	benchmarkEncode(b, 6, 2, 512)
}

func BenchmarkEncodeK10R2_512B(b *testing.B) {
	benchmarkEncode(b, 10, 2, 512)
}

func BenchmarkEncodeK20R2_512B(b *testing.B) {
	benchmarkEncode(b, 20, 2, 512)
}

// The coding_mtu shape: the deployment's K=6/R=2 batch at PackedSize(1400).
func BenchmarkEncodeK6R2_1402B(b *testing.B) {
	benchmarkEncode(b, 6, 2, 1402)
}

func benchmarkEncode(b *testing.B, k, m, size int) {
	c, err := NewCodec(k, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < k {
			rng.Read(shards[i])
		}
	}
	b.SetBytes(int64(k * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructK6R2_512B(b *testing.B) {
	c, _ := NewCodec(6, 2)
	rng := rand.New(rand.NewSource(1))
	shards := make([][]byte, 8)
	for i := range shards {
		shards[i] = make([]byte, 512)
		if i < 6 {
			rng.Read(shards[i])
		}
	}
	if err := c.Encode(shards); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := make([][]byte, 8)
		copy(work, shards)
		work[1], work[3] = nil, nil
		b.StartTimer()
		if err := c.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}
