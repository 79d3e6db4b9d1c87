package telemetry

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"jqos/internal/core"
)

func pid(flow, seq int) core.PacketID {
	return core.PacketID{Flow: core.FlowID(flow), Seq: core.Seq(seq)}
}

// TestSpanLifecycle walks one traced packet through every choke point
// and checks the invariant the whole attribution surface rests on: the
// components of a finished record sum exactly to its Total, with
// SpanRelay absorbing the unmeasured remainder.
func TestSpanLifecycle(t *testing.T) {
	c := NewSpanCollector()
	id := pid(1, 1)

	c.Begin(id, 10*time.Millisecond)
	// Host → DC leg.
	c.NoteTx(id, 15*time.Millisecond)
	c.NoteRx(id, 20*time.Millisecond) // 5ms propagation
	// DC egress queue, then DC → DC leg.
	c.NoteQueue(id, 1, 2, 3, 4*time.Millisecond)
	c.NoteTx(id, 24*time.Millisecond)
	c.NoteRx(id, 30*time.Millisecond) // 6ms propagation
	// Egress DC queue, then the final DC → host leg stays open: Finish
	// turns it into the tail.
	c.NoteQueue(id, 2, 5, 3, 5*time.Millisecond)
	c.NoteTx(id, 31*time.Millisecond)

	rec, ok := c.Finish(id, 40*time.Millisecond, 1*time.Millisecond, 25*time.Millisecond, 3)
	if !ok {
		t.Fatal("finish failed")
	}
	if rec.Total != 30*time.Millisecond {
		t.Fatalf("total = %v, want 30ms", rec.Total)
	}
	if got := rec.Comp[SpanQueue]; got != 9*time.Millisecond {
		t.Fatalf("queue = %v, want 9ms", got)
	}
	// 5 + 6 measured, plus the 9ms open tail minus 1ms recovery = 8ms.
	if got := rec.Comp[SpanPropagation]; got != 19*time.Millisecond {
		t.Fatalf("propagation = %v, want 19ms", got)
	}
	if got := rec.Comp[SpanRecovery]; got != 1*time.Millisecond {
		t.Fatalf("recovery = %v", got)
	}
	// 30ms total − 9 queue − 19 propagation − 1 recovery.
	if got := rec.Comp[SpanRelay]; got != 1*time.Millisecond {
		t.Fatalf("relay = %v, want 1ms", got)
	}
	var sum time.Duration
	for _, d := range rec.Comp {
		sum += d
	}
	if sum != rec.Total {
		t.Fatalf("components sum to %v != total %v (%+v)", sum, rec.Total, rec.Comp)
	}
	if !rec.Late() || rec.Excess() != 5*time.Millisecond {
		t.Fatalf("late = %v excess = %v (budget 25ms, total 30ms)", rec.Late(), rec.Excess())
	}
	if rec.NQueues != 2 || rec.Queues[0] != (QueueSpan{From: 1, To: 2, Class: 3, Wait: 4 * time.Millisecond}) ||
		rec.Queues[1] != (QueueSpan{From: 2, To: 5, Class: 3, Wait: 5 * time.Millisecond}) {
		t.Fatalf("queues = %+v", rec.Queues[:rec.NQueues])
	}
	if c.Pending() != 0 || c.Finished() != 1 {
		t.Fatalf("pending %d finished %d", c.Pending(), c.Finished())
	}

	// The finish fed the aggregates.
	snap := c.Snapshot()
	fp, ok := snap.Flow(1)
	if !ok || fp.Profile.Samples != 1 || fp.Profile.Late != 1 {
		t.Fatalf("flow profile = %+v, %v", fp, ok)
	}
	if fp.Profile.LateExcessNs != int64(5*time.Millisecond) {
		t.Fatalf("late excess = %d", fp.Profile.LateExcessNs)
	}
	qs, ok := snap.Queue(1, 2, 3)
	if !ok || qs.Spend.Samples != 1 || qs.Spend.WaitNs != int64(4*time.Millisecond) {
		t.Fatalf("queue spend = %+v, %v", qs, ok)
	}
	// A second finish of the same id is a no-op.
	if _, ok := c.Finish(id, 50*time.Millisecond, 0, 0, 3); ok {
		t.Fatal("double finish succeeded")
	}
}

func TestSpanDropAbandonsTrace(t *testing.T) {
	c := NewSpanCollector()
	c.Begin(pid(1, 1), 0)
	c.Drop(pid(1, 1))
	if c.Pending() != 0 || c.Dropped() != 1 {
		t.Fatalf("pending %d dropped %d", c.Pending(), c.Dropped())
	}
	c.Drop(pid(1, 1)) // unknown id: no-op
	if c.Dropped() != 1 {
		t.Fatalf("double drop counted: %d", c.Dropped())
	}
	if _, ok := c.Finish(pid(1, 1), time.Second, 0, 0, 3); ok {
		t.Fatal("finished a dropped trace")
	}
}

func TestSpanEvictionUnderPressure(t *testing.T) {
	c := NewSpanCollector()
	for i := 0; i < spanTableCap+3; i++ {
		c.Begin(pid(1, i), time.Duration(i))
	}
	if c.Pending() != spanTableCap {
		t.Fatalf("pending = %d, want %d", c.Pending(), spanTableCap)
	}
	if c.Evicted() != 3 {
		t.Fatalf("evicted = %d, want 3", c.Evicted())
	}
	// The oldest three were evicted; the fourth is still live.
	if _, ok := c.Finish(pid(1, 2), time.Second, 0, 0, 3); ok {
		t.Fatal("evicted trace finished")
	}
	if _, ok := c.Finish(pid(1, 3), time.Second, 0, 0, 3); !ok {
		t.Fatal("live trace missing after eviction churn")
	}
}

func TestSpanQueueOverflowFolds(t *testing.T) {
	c := NewSpanCollector()
	id := pid(2, 1)
	c.Begin(id, 0)
	for i := 0; i < MaxHopQueues+2; i++ {
		c.NoteQueue(id, core.NodeID(i), core.NodeID(i+1), 3, time.Millisecond)
	}
	rec, ok := c.Finish(id, 100*time.Millisecond, 0, 0, 3)
	if !ok {
		t.Fatal("finish failed")
	}
	if rec.NQueues != MaxHopQueues {
		t.Fatalf("nqueues = %d", rec.NQueues)
	}
	want := time.Duration(MaxHopQueues+2) * time.Millisecond
	if rec.Comp[SpanQueue] != want {
		t.Fatalf("queue sum = %v, want %v", rec.Comp[SpanQueue], want)
	}
	// Overflow folded into the last slot.
	if rec.Queues[MaxHopQueues-1].Wait != 3*time.Millisecond {
		t.Fatalf("last slot = %v, want 3ms", rec.Queues[MaxHopQueues-1].Wait)
	}
}

func TestSpanReservoirWraps(t *testing.T) {
	c := NewSpanCollector()
	for i := 0; i < lateReservoirCap+5; i++ {
		c.NoteLate(HopRecord{Flow: 1, Seq: core.Seq(i)})
	}
	if c.LateSeen() != lateReservoirCap+5 {
		t.Fatalf("late seen = %d", c.LateSeen())
	}
	recs := c.Reservoir(nil)
	if len(recs) != lateReservoirCap {
		t.Fatalf("reservoir len = %d", len(recs))
	}
	// Oldest first, holding the most recent lateReservoirCap records.
	if recs[0].Seq != 5 || recs[len(recs)-1].Seq != lateReservoirCap+4 {
		t.Fatalf("reservoir order: first %d last %d", recs[0].Seq, recs[len(recs)-1].Seq)
	}
}

func TestSpanForgetFlow(t *testing.T) {
	c := NewSpanCollector()
	for f := 1; f <= 2; f++ {
		id := pid(f, 1)
		c.Begin(id, 0)
		if _, ok := c.Finish(id, time.Millisecond, 0, 0, 3); !ok {
			t.Fatal("finish failed")
		}
	}
	c.ForgetFlow(1)
	snap := c.Snapshot()
	if _, ok := snap.Flow(1); ok {
		t.Fatal("forgotten flow still in snapshot")
	}
	if _, ok := snap.Flow(2); !ok {
		t.Fatal("unrelated flow forgotten")
	}
	// Lifetime counters survive the forget.
	if snap.Finished != 2 {
		t.Fatalf("finished = %d", snap.Finished)
	}
}

// TestSpanSnapshotDeterministic inserts aggregates in scrambled orders
// and requires identical, key-sorted snapshots — map iteration must
// never leak into the exposition surface.
func TestSpanSnapshotDeterministic(t *testing.T) {
	build := func(order []int) AttributionSnapshot {
		c := NewSpanCollector()
		for _, f := range order {
			id := pid(f, 1)
			c.Begin(id, 0)
			c.NoteQueue(id, core.NodeID(f), core.NodeID(f+1), 3, time.Millisecond)
			if _, ok := c.Finish(id, 10*time.Millisecond, 0, 0, 3); !ok {
				t.Fatal("finish failed")
			}
		}
		return c.Snapshot()
	}
	a := build([]int{5, 2, 9, 1})
	b := build([]int{9, 1, 5, 2})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ by insertion order:\n%+v\nvs\n%+v", a, b)
	}
	for i := 1; i < len(a.Flows); i++ {
		if a.Flows[i].Flow <= a.Flows[i-1].Flow {
			t.Fatalf("flows not sorted: %+v", a.Flows)
		}
	}
	for i := 1; i < len(a.Queues); i++ {
		if a.Queues[i].Key.From <= a.Queues[i-1].Key.From {
			t.Fatalf("queues not sorted: %+v", a.Queues)
		}
	}
}

func TestSpanComponentStrings(t *testing.T) {
	for c := 0; c < NumSpanComponents; c++ {
		if s := SpanComponent(c).String(); s == "" || s == fmt.Sprintf("component(%d)", c) {
			t.Fatalf("component %d has no String arm: %q", c, s)
		}
	}
}

func TestSpendProfileShares(t *testing.T) {
	var p SpendProfile
	rec := HopRecord{Budget: time.Millisecond, Total: 10 * time.Millisecond, Sampled: true}
	rec.Comp[SpanQueue] = 8 * time.Millisecond
	rec.Comp[SpanPropagation] = 2 * time.Millisecond
	p.observe(&rec)
	if got := p.Share(SpanQueue); got != 0.8 {
		t.Fatalf("queue share = %v", got)
	}
	if got := p.LateShare(SpanQueue); got != 0.8 {
		t.Fatalf("late queue share = %v", got)
	}
	if got := (&SpendProfile{}).Share(SpanQueue); got != 0 {
		t.Fatalf("empty share = %v", got)
	}
}

// BenchmarkHopRecord measures one full trace lifecycle — Begin, the
// choke-point notes, Finish, and the late-reservoir write — the cost a
// sampled packet adds end to end. Steady state must not allocate.
func BenchmarkHopRecord(b *testing.B) {
	c := NewSpanCollector()
	id := core.PacketID{Flow: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.Seq = core.Seq(i)
		at := time.Duration(i) * 10 * time.Microsecond
		c.Begin(id, at)
		c.NoteTx(id, at+200*time.Microsecond)
		c.NoteRx(id, at+400*time.Microsecond)
		c.NoteQueue(id, 1, 2, 3, 50*time.Microsecond)
		c.NoteTx(id, at+500*time.Microsecond)
		rec, ok := c.Finish(id, at+time.Millisecond, 0, 500*time.Microsecond, 3)
		if !ok {
			b.Fatal("finish failed")
		}
		if rec.Late() {
			c.NoteLate(rec)
		}
	}
}
