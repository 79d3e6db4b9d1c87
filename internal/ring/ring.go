// Package ring is the FIFO every engine queue sits on: the egress
// scheduler's sub-queues, the cache's per-flow page directories and its put
// order, the recoverer's expiry queues, a receiver's recent window, the
// span collector's eviction order and late reservoir, and the control-loop
// trace buffer.
package ring

// Ring is a FIFO of T. Its backing array is a power of two that doubles,
// from 8, when a Push or PushFront finds it full, so a queue at a steady
// depth allocates nothing. Every slot is zeroed as its entry leaves, so a
// Ring keeps nothing reachable that it no longer holds. The zero value is
// an empty ring. Not safe for concurrent use.
type Ring[T any] struct {
	buf     []T // len is zero or a power of two
	head, n int
}

// Len returns the number of entries.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th entry from the front, for 0 ≤ i < Len. The pointer is
// valid until the next call that adds or removes an entry.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// Push appends v at the back.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.resize(max(2*len(r.buf), 8))
	}
	*r.At(r.n) = v
	r.n++
}

// PushFront inserts v at the front.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.resize(max(2*len(r.buf), 8))
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// PopFront removes and returns the oldest entry. The ring must not be empty.
func (r *Ring[T]) PopFront() T {
	p := r.At(0)
	v := *p
	*p = *new(T)
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// PopBack removes and returns the newest entry. The ring must not be empty.
func (r *Ring[T]) PopBack() T {
	p := r.At(r.n - 1)
	v := *p
	*p = *new(T)
	r.n--
	return v
}

// Truncate keeps the first n entries, 0 ≤ n ≤ Len, and drops the rest.
func (r *Ring[T]) Truncate(n int) {
	for r.n > n {
		r.PopBack()
	}
}

// Reserve grows the backing array, if it is smaller, to the least power of
// two, and at least 8, that holds n entries: a ring bounded by n then never
// grows again.
func (r *Ring[T]) Reserve(n int) {
	size := max(len(r.buf), 8)
	for size < n {
		size *= 2
	}
	if size > len(r.buf) {
		r.resize(size)
	}
}

// resize moves the entries, in order, to the front of a new array of size
// slots.
func (r *Ring[T]) resize(size int) {
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = *r.At(i)
	}
	r.buf, r.head = buf, 0
}
