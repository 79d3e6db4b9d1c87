package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"jqos/internal/core"
)

// fifoRing is the reference model's queue: a growable FIFO of Items,
// written independently of internal/ring.
type fifoRing struct {
	items []Item
	head  int
	n     int
}

func (r *fifoRing) push(it Item) {
	if r.n == len(r.items) {
		grown := make([]Item, max(2*len(r.items), 8))
		for i := 0; i < r.n; i++ {
			grown[i] = r.items[(r.head+i)%len(r.items)]
		}
		r.items, r.head = grown, 0
	}
	r.items[(r.head+r.n)%len(r.items)] = it
	r.n++
}

func (r *fifoRing) pop() Item {
	it := r.items[r.head]
	r.items[r.head] = Item{}
	r.head = (r.head + 1) % len(r.items)
	r.n--
	return it
}

// fifoDRR is the class-FIFO discipline the scheduler ran without
// Config.PerFlowQueues before that case became one sub-queue of the nested
// DRR: one FIFO per class, an arrival past the byte cap rejected, and the
// class round-robin granting quantum×weight per visit. It takes the
// defaulted weights, cap and watermarks from a DRR, so it models the
// discipline and not the Config's defaulting.
type fifoDRR struct {
	weights   [NumClasses]int64
	cap       int64
	low, high int64
	state     [NumClasses]QueueState
	q         [NumClasses]fifoRing
	deficit   [NumClasses]int64
	credited  [NumClasses]bool
	cur       int
	stats     Stats
}

func newFIFODRR(s *DRR) *fifoDRR {
	return &fifoDRR{weights: s.weights, cap: s.cap, low: s.low, high: s.high}
}

func (s *fifoDRR) noteDepth(class core.Service) {
	c := &s.stats.PerClass[class]
	if next := nextQueueState(s.state[class], c.QueuedBytes, s.low, s.high); next != s.state[class] {
		s.state[class] = next
		c.State = next
		c.StateChanges++
	}
}

func (s *fifoDRR) enqueue(class core.Service, flow core.FlowID, msg []byte, stamp core.Time) bool {
	if int(class) >= NumClasses {
		return false
	}
	c := &s.stats.PerClass[class]
	size := int64(len(msg))
	if s.cap >= 0 && c.QueuedPackets > 0 && c.QueuedBytes+size > s.cap {
		c.DroppedBytes += uint64(size)
		c.DroppedPackets++
		return false
	}
	s.q[class].push(Item{Class: class, Flow: flow, Msg: msg, Stamp: stamp})
	c.EnqueuedBytes += uint64(size)
	c.EnqueuedPackets++
	c.QueuedBytes += size
	c.QueuedPackets++
	s.stats.QueuedBytes += size
	s.stats.QueuedPackets++
	s.noteDepth(class)
	return true
}

func (s *fifoDRR) dequeue() (Item, bool) {
	if s.stats.QueuedPackets == 0 {
		return Item{}, false
	}
	for {
		q := &s.q[s.cur]
		if q.n == 0 {
			s.deficit[s.cur] = 0
			s.credited[s.cur] = false
			s.cur = (s.cur + 1) % NumClasses
			continue
		}
		if !s.credited[s.cur] {
			s.deficit[s.cur] += quantum * s.weights[s.cur]
			s.credited[s.cur] = true
			s.stats.Rounds++
		}
		if size := int64(len(q.items[q.head].Msg)); size <= s.deficit[s.cur] {
			s.deficit[s.cur] -= size
			it := q.pop()
			c := &s.stats.PerClass[s.cur]
			c.DequeuedBytes += uint64(size)
			c.DequeuedPackets++
			c.QueuedBytes -= size
			c.QueuedPackets--
			s.stats.QueuedBytes -= size
			s.stats.QueuedPackets--
			if q.n == 0 {
				s.deficit[s.cur] = 0
				s.credited[s.cur] = false
				s.cur = (s.cur + 1) % NumClasses
			}
			s.noteDepth(it.Class)
			return it, true
		}
		s.credited[s.cur] = false
		s.cur = (s.cur + 1) % NumClasses
	}
}

// sameItem compares two dequeued items, the message by identity: both
// schedulers queue the very slice the program passed in.
func sameItem(a, b Item) bool {
	return a.Class == b.Class && a.Flow == b.Flow && a.Stamp == b.Stamp &&
		len(a.Msg) == len(b.Msg) && (len(a.Msg) == 0 || &a.Msg[0] == &b.Msg[0])
}

func show(it Item) string {
	return fmt.Sprintf("{%v flow %d %d B stamp %v}", it.Class, it.Flow, len(it.Msg), it.Stamp)
}

// TestClassFIFOMatchesReference: without Config.PerFlowQueues each class is
// one sub-queue of the nested DRR, and that must drain exactly as the class
// FIFO it replaced. Random programs of enqueues and dequeues — random
// classes and flows, sizes up to three quanta so a head outgrows one grant,
// byte caps small enough to reject — run on both, and after every step the
// EnqueueStamped answer, the dequeued Item (stamp included) and Stats must
// agree.
func TestClassFIFOMatchesReference(t *testing.T) {
	programs, steps := 300, 600
	if testing.Short() {
		programs = 60
	}
	rng := rand.New(rand.NewSource(50))
	var drops, rounds uint64
	for prog := 0; prog < programs; prog++ {
		cfg := Config{Weights: map[core.Service]int{}, QueueBytes: []int64{-1, 0, 3000, 8000}[rng.Intn(4)]}
		for c := 0; c < NumClasses; c++ {
			if rng.Intn(2) == 0 {
				cfg.Weights[core.Service(c)] = 1 + rng.Intn(8)
			}
		}
		s := New(cfg)
		ref := newFIFODRR(s)
		var now core.Time
		for step := 0; step < steps; step++ {
			now += core.Time(rng.Intn(1000))
			if rng.Intn(5) < 3 {
				class := core.Service(rng.Intn(NumClasses + 1)) // one past the last: rejected
				flow := core.FlowID(rng.Intn(6))
				m := make([]byte, 1+rng.Intn(3*quantum))
				got, want := s.EnqueueStamped(class, flow, m, now), ref.enqueue(class, flow, m, now)
				if got != want {
					t.Fatalf("program %d, step %d: EnqueueStamped(%v, %d, %d B) = %v, reference %v", prog, step, class, flow, len(m), got, want)
				}
			} else {
				got, gok := s.Dequeue()
				want, wok := ref.dequeue()
				if gok != wok || !sameItem(got, want) {
					t.Fatalf("program %d, step %d: Dequeue = %v %s, reference %v %s", prog, step, gok, show(got), wok, show(want))
				}
			}
			if got, want := s.Stats(), ref.stats; got != want {
				t.Fatalf("program %d, step %d: Stats\n%+v\nreference\n%+v", prog, step, got, want)
			}
		}
		st := s.Stats()
		rounds += st.Rounds
		for _, c := range st.PerClass {
			drops += c.DroppedPackets
		}
	}
	if drops == 0 || rounds == 0 {
		t.Fatalf("%d drops, %d rounds: the programs never hit the byte cap or never dequeued", drops, rounds)
	}
}
