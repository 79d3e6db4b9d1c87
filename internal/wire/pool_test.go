package wire

import "testing"

// TestPoolClasses: a buffer serves only requests it fits, with its slack
// bounded — Get allocates at the class size, and a buffer handed back is
// drawn again only by requests of the class it was filed under.
func TestPoolClasses(t *testing.T) {
	for _, tc := range []struct {
		n, cap int
	}{
		{0, 64}, {1, 64}, {HeaderLen, 64}, {64, 64}, {65, 128}, {242, 256},
		{1500, 2048}, {4096, 4096}, {1 << 16, 1 << 16}, {1<<16 + 1, 1<<16 + 1},
	} {
		var p Pool
		buf := p.Get(tc.n)
		if len(buf) != 0 || cap(buf) != tc.cap || ClassSize(tc.n) != tc.cap {
			t.Errorf("Get(%d): len %d cap %d, ClassSize %d, want 0 and %d", tc.n, len(buf), cap(buf), ClassSize(tc.n), tc.cap)
		}
		// Any buffer of the class size — a region of a larger array
		// included — goes back to the class that serves n.
		p.Put(make([]byte, 2*tc.cap)[:0:tc.cap])
		want := 1
		if tc.n > 1<<poolMaxShift {
			want = 0 // past the largest class: allocated to size, never served
		}
		if p.Holds(tc.n) != want {
			t.Errorf("Holds(%d) = %d after a buffer of its class size came back, want %d", tc.n, p.Holds(tc.n), want)
		}
	}

	var p Pool
	buf := append(p.Get(200), "parity"...)
	p.Put(buf)
	if got := p.Get(100); &got[:1][0] == &buf[0] {
		t.Error("a 256 B buffer served a 100 B request: more than twice its size")
	}
	if got := p.Get(300); &got[:1][0] == &buf[0] {
		t.Error("a 256 B buffer served a 300 B request it does not fit")
	}
	got := p.Get(129)
	if &got[:1][0] != &buf[0] || len(got) != 0 {
		t.Errorf("a 129 B request did not reuse the 256 B buffer handed back, emptied")
	}
	if p.Len() != 0 {
		t.Errorf("Len = %d after the buffer was drawn again, want 0", p.Len())
	}

	// A buffer from elsewhere is filed by its capacity, rounded down: a
	// 300 B buffer serves up to 256 B, never more.
	odd := make([]byte, 10, 300)
	p.Put(odd)
	if got := p.Get(257); &got[:1][0] == &odd[0] {
		t.Error("a 300 B buffer was filed above its class")
	}
	if got := p.Get(256); &got[:1][0] != &odd[0] {
		t.Error("a 300 B buffer did not serve a 256 B request")
	}

	// Outside every class: too small to hold a header, or too large to
	// keep.
	p.Put(make([]byte, 0, 63))
	p.Put(make([]byte, 0, 1<<17))
	if p.Len() != 0 {
		t.Errorf("Len = %d after handing back buffers outside every class, want 0", p.Len())
	}
}

// TestPoolBound: a class keeps at most its bound, however many buffers come
// back, and the whole pool at most the idle bound its doc states.
func TestPoolBound(t *testing.T) {
	var p Pool
	for shift := poolMinShift; shift <= poolMaxShift; shift++ {
		for i := 0; i < 2*poolMaxHeld; i++ {
			p.Put(make([]byte, 0, 1<<shift))
		}
	}
	held, bytes := 0, 0
	for i, free := range p.free {
		if want := classCap(i); len(free) != want {
			t.Errorf("class %d B holds %d buffers, want %d", 1<<(i+poolMinShift), len(free), want)
		}
		held += len(free)
		for _, buf := range free {
			bytes += cap(buf)
		}
	}
	if held != 508 || bytes != 1568768 || p.Len() != held {
		t.Errorf("a full pool holds %d buffers (Len %d), %d B; the doc states 508 and 1 568 768 B", held, p.Len(), bytes)
	}
	// Drawing from a class makes room in it again.
	p.Get(100)
	p.Put(make([]byte, 0, 128))
	if n := len(p.free[1]); n != poolMaxHeld {
		t.Errorf("class 128 B holds %d after one Get and one Put, want %d", n, poolMaxHeld)
	}
}

// TestNilPool: a nil pool allocates to size and keeps nothing.
func TestNilPool(t *testing.T) {
	var p *Pool
	buf := p.Get(100)
	if len(buf) != 0 || cap(buf) != 100 {
		t.Errorf("nil Get(100): len %d cap %d, want 0 and 100", len(buf), cap(buf))
	}
	p.Put(buf)
	if p.Len() != 0 {
		t.Errorf("nil pool Len = %d, want 0", p.Len())
	}
}

// TestPoolCheckScribbles: built with -tags poolcheck, a buffer handed back
// reads 0xEE, so a holder that kept it sees its bytes change.
func TestPoolCheckScribbles(t *testing.T) {
	if !poolCheck {
		t.Skip("only with -tags poolcheck")
	}
	var p Pool
	buf := append(p.Get(HeaderLen), make([]byte, HeaderLen)...)
	p.Put(buf)
	for i, b := range buf[:cap(buf)] {
		if b != 0xEE {
			t.Fatalf("byte %d of a buffer handed back is %#x, want 0xEE", i, b)
		}
	}
}

// TestPoolCheckCatchesDoublePut: built with -tags poolcheck, handing back a
// buffer the pool already holds panics — two holders of one message would
// otherwise each get it from a later Get and write over each other.
func TestPoolCheckCatchesDoublePut(t *testing.T) {
	if !poolCheck {
		t.Skip("only with -tags poolcheck")
	}
	var p Pool
	buf := p.Get(HeaderLen)
	p.Put(p.Get(HeaderLen)) // another buffer of the class: the scan passes it
	p.Put(buf)
	defer func() {
		if recover() == nil {
			t.Error("a second Put of the same buffer did not panic")
		}
		if n := p.Len(); n != 2 {
			t.Errorf("pool holds %d buffers after the refused Put, want 2", n)
		}
	}()
	p.Put(buf[:0:cap(buf)])
}

// BenchmarkPoolGetPut: a message drawn and handed back, as a DC consumes
// one — 0 allocs/op once the class holds a buffer.
func BenchmarkPoolGetPut(b *testing.B) {
	var p Pool
	h := Header{Type: TypeNACK, Flow: 7, Seq: 1, Src: 2, Dst: 1}
	p.Put(p.Get(HeaderLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Put(AppendMessage(p.Get(HeaderLen), &h, nil))
	}
}
