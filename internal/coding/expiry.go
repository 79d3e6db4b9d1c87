package coding

import "jqos/internal/core"

// expiry says item's lifetime ends at at — unless the item was refreshed or
// removed after the entry was queued, which the queue's live func detects
// when the entry surfaces.
type expiry[T any] struct {
	at   core.Time
	item T
}

// expiryQueue indexes lifetimes that are all "now + one constant". Fed a
// non-decreasing clock, entries arrive in expiry order, so a FIFO ring is a
// priority queue: the earliest deadline is the head and nothing is ever
// sifted. Invalidation is lazy — a refresh queues a second entry and the
// first goes stale in place; stale entries are dropped when they reach the
// head, and when they outnumber the live ones two to one the ring is
// compacted instead of grown, so its length stays within 2·live + a
// constant however many refreshes a hostile peer sends.
//
// A clock that steps back breaks the order, not the bookkeeping: an entry
// queued behind a later one waits until that one is due, and nothing is
// lost or leaked.
type expiryQueue[T any] struct {
	buf     []expiry[T] // len is zero or a power of two
	head, n int
	// live reports whether the entry still speaks for its item.
	live func(at core.Time, item T) bool
}

// compactSlack keeps small queues from compacting on every push.
const compactSlack = 16

func (q *expiryQueue[T]) at(i int) *expiry[T] { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// push queues item to expire at at. items is how many items the owner
// holds, each with at most one live entry here.
func (q *expiryQueue[T]) push(at core.Time, item T, items int) {
	if q.n > 2*items+compactSlack {
		q.compact()
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	*q.at(q.n) = expiry[T]{at, item}
	q.n++
}

func (q *expiryQueue[T]) grow() {
	buf := make([]expiry[T], max(2*len(q.buf), 8))
	for i := 0; i < q.n; i++ {
		buf[i] = *q.at(i)
	}
	q.buf, q.head = buf, 0
}

// compact drops every stale entry, keeping order.
func (q *expiryQueue[T]) compact() {
	kept := 0
	for i := 0; i < q.n; i++ {
		if e := *q.at(i); q.live(e.at, e.item) {
			*q.at(kept) = e
			kept++
		}
	}
	for i := kept; i < q.n; i++ {
		*q.at(i) = expiry[T]{} // release the items
	}
	q.n = kept
}

func (q *expiryQueue[T]) pop() {
	*q.at(0) = expiry[T]{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// next reports the earliest live expiry, dropping stale entries in front
// of it.
func (q *expiryQueue[T]) next() (core.Time, bool) {
	for q.n > 0 {
		if e := q.at(0); q.live(e.at, e.item) {
			return e.at, true
		}
		q.pop()
	}
	return 0, false
}

// popDue removes and returns the earliest live item if its time has come.
func (q *expiryQueue[T]) popDue(now core.Time) (item T, ok bool) {
	if at, found := q.next(); !found || at > now {
		return item, false
	}
	item = q.at(0).item
	q.pop()
	return item, true
}
