package coding

import (
	"jqos/internal/core"
	"jqos/internal/ring"
)

// lazyQueue is a FIFO, on a ring.Ring, whose entries go stale in place: the
// owner changes the item an entry names, and the queue's live func notices
// when the entry surfaces. Stale entries are dropped when they reach the
// head, and a push that finds more entries than its caller's bound compacts
// the ring instead of growing it, so its length stays within that bound
// however many entries a hostile peer makes stale.
type lazyQueue[E any] struct {
	ring.Ring[E]
	// live reports whether the entry still speaks for its item.
	live func(E) bool
}

// compactSlack keeps small queues from compacting on every push.
const compactSlack = 16

// push queues e, first dropping every stale entry (order kept) if the queue
// holds more than most.
func (q *lazyQueue[E]) push(e E, most int) {
	if q.Len() > most {
		kept := 0
		for i := 0; i < q.Len(); i++ {
			if e := *q.At(i); q.live(e) {
				*q.At(kept) = e
				kept++
			}
		}
		q.Truncate(kept)
	}
	q.Push(e)
}

// trim drops the stale entries in front of the first live one.
func (q *lazyQueue[E]) trim() {
	for q.Len() > 0 && !q.live(*q.At(0)) {
		q.PopFront()
	}
}

// expiry says item's lifetime ends at at — unless the item was refreshed or
// removed after the entry was queued, which the queue's live func detects.
type expiry[T any] struct {
	at   core.Time
	item T
}

// expiryQueue indexes lifetimes that are all "now + one constant". Fed a
// non-decreasing clock, entries arrive in expiry order, so a lazyQueue is a
// priority queue: the earliest deadline is the head and nothing is ever
// sifted. A refresh queues a second entry and the first goes stale in place.
// A clock that steps back breaks the order, not the bookkeeping: an entry
// queued behind a later one waits until that one is due; nothing is lost.
type expiryQueue[T any] struct{ lazyQueue[expiry[T]] }

// push queues item to expire at at. items is how many items the owner
// holds, each with at most one live entry here: the queue stays within twice
// that, plus a constant.
func (q *expiryQueue[T]) push(at core.Time, item T, items int) {
	q.lazyQueue.push(expiry[T]{at, item}, 2*items+compactSlack)
}

// next reports the earliest live expiry, dropping stale entries in front
// of it.
func (q *expiryQueue[T]) next() (core.Time, bool) {
	if q.trim(); q.Len() == 0 {
		return 0, false
	}
	return q.At(0).at, true
}

// popDue removes and returns the earliest live item if its time has come.
func (q *expiryQueue[T]) popDue(now core.Time) (item T, ok bool) {
	if at, found := q.next(); !found || at > now {
		return item, false
	}
	return q.PopFront().item, true
}
