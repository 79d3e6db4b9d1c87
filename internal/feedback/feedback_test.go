package feedback

import (
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/load"
)

func TestBroadcasterCoalesces(t *testing.T) {
	b := NewBroadcaster()
	b.Note(1, 2, core.ServiceForwarding, Hot, 800)
	b.Note(1, 2, core.ServiceCaching, Warm, 300)
	// Same link-class flips again before the flush: latest state wins.
	b.Note(1, 2, core.ServiceForwarding, Warm, 200)
	var got []Transition
	b.Flush(func(batch []Transition) { got = append(got, batch...) })
	if len(got) != 2 {
		t.Fatalf("flushed %d transitions, want 2 (coalesced)", len(got))
	}
	if got[0].State != Warm || got[0].Depth != 200 {
		t.Fatalf("coalesced transition = %+v, want latest state warm/200", got[0])
	}
	if got[1].Class != core.ServiceCaching || got[1].State != Warm {
		t.Fatalf("second transition = %+v", got[1])
	}
	// The flush reset the batch: a second one is empty, a no-op that does
	// not count.
	b.Flush(func([]Transition) { t.Fatal("empty flush invoked fn") })
	if b.Noted() != 3 || b.Flushes() != 1 {
		t.Fatalf("counters noted=%d flushes=%d", b.Noted(), b.Flushes())
	}
	// The batch state is reusable after a flush.
	b.Note(2, 1, core.ServiceForwarding, Clear, 0)
	got = got[:0]
	b.Flush(func(batch []Transition) { got = append(got, batch...) })
	if len(got) != 1 || got[0].From != 2 {
		t.Fatalf("flushed %+v after reuse, want the one new transition", got)
	}
}

func TestPacerAIMD(t *testing.T) {
	const rate, burst = 800_000, 10_000
	b := load.NewBucket(rate, burst)
	p := NewPacer(b, PacerConfig{}) // defaults: floor 1/8, backoff 1/2, recover 1/10
	now := core.Time(0)

	if p.Throttled() || p.Rate() != rate || p.Contract() != rate {
		t.Fatalf("fresh pacer: rate=%d throttled=%v", p.Rate(), p.Throttled())
	}
	// Warm/Clear without a prior cut: no change.
	if p.OnSignal(now, LinkClass{}, Warm) || p.Tick(now) {
		t.Fatal("uncut pacer moved")
	}

	// Hot: halve. Repeated Hots keep halving down to the floor.
	if !p.OnSignal(now, LinkClass{}, Hot) || p.Rate() != rate/2 {
		t.Fatalf("after one cut rate=%d, want %d", p.Rate(), rate/2)
	}
	for i := 0; i < 10; i++ {
		p.OnSignal(now, LinkClass{}, Hot)
	}
	if p.Rate() != rate/8 {
		t.Fatalf("floor = %d, want %d", p.Rate(), rate/8)
	}
	if p.Cuts() < 3 {
		t.Fatalf("cuts = %d", p.Cuts())
	}
	// The bucket's refill follows the cut; burst depth is untouched.
	if b.Rate() != rate/8 || b.Burst() != burst {
		t.Fatalf("bucket rate=%d burst=%d", b.Rate(), b.Burst())
	}

	// Recovery is frozen while Hot...
	if p.Tick(now) {
		t.Fatal("recovered while hot")
	}
	// ...and resumes additively after a cooler signal.
	p.OnSignal(now, LinkClass{}, Warm)
	if !p.Tick(now) || p.Rate() != rate/8+rate/10 {
		t.Fatalf("after one recovery rate=%d", p.Rate())
	}
	for i := 0; i < 20; i++ {
		p.Tick(now)
	}
	if p.Rate() != rate || p.Throttled() {
		t.Fatalf("recovery overshot or stalled: rate=%d", p.Rate())
	}
	if p.Tick(now) {
		t.Fatal("ticked past the contract")
	}
	if p.Recoveries() == 0 {
		t.Fatal("no recoveries counted")
	}
}

// TestPacerUnfreeze: a rerouted flow's pacer must not stay wedged on a
// Hot signal from a queue it no longer traverses — Unfreeze lets the
// additive recovery resume without waiting for a cooling transition
// that will never be delivered.
func TestPacerUnfreeze(t *testing.T) {
	const rate = 800_000
	b := load.NewBucket(rate, 10_000)
	p := NewPacer(b, PacerConfig{})
	now := core.Time(0)
	p.OnSignal(now, LinkClass{}, Hot)
	if p.Tick(now) {
		t.Fatal("recovered while frozen hot")
	}
	p.Unfreeze()
	if !p.Tick(now) {
		t.Fatal("unfrozen pacer did not recover")
	}
	if p.Rate() >= rate {
		t.Fatalf("one recovery step reached the contract: %d", p.Rate())
	}
	// A Hot signal from the new path re-freezes and re-cuts as usual.
	if !p.OnSignal(now, LinkClass{}, Hot) || p.Tick(now) {
		t.Fatal("re-freeze after Unfreeze broken")
	}
}

func TestPacerGovernsAdmission(t *testing.T) {
	const rate = 100_000
	b := load.NewBucket(rate, 1500)
	p := NewPacer(b, PacerConfig{Floor: 0.25, Backoff: 0.5})
	now := core.Time(0)
	// Drain the initial burst.
	for b.Admit(now, 1500) {
	}
	// One second of 1000-byte packets offered every 10 ms: the contract
	// admits ~100 (one per step at 100 kB/s)...
	admitSecond := func() int {
		count := 0
		for i := 0; i < 100; i++ {
			now += core.Time(10 * time.Millisecond)
			if b.Admit(now, 1000) {
				count++
			}
		}
		return count
	}
	if got := admitSecond(); got < 95 || got > 100 {
		t.Fatalf("full-rate second admitted %d packets, want ~100", got)
	}
	// ...and the halved pacing rate admits ~50.
	p.OnSignal(now, LinkClass{}, Hot)
	if got := admitSecond(); got < 45 || got > 55 {
		t.Fatalf("paced second admitted %d packets, want ~50", got)
	}
}

// TestPacerSetContract: a service move resizes the honorable envelope;
// the pacer's ceiling, floor, and step follow, and the current rate
// clamps into the new range.
func TestPacerSetContract(t *testing.T) {
	const rate = 800_000
	b := load.NewBucket(rate, 10_000)
	p := NewPacer(b, PacerConfig{}) // floor 1/8, recover 1/10
	now := core.Time(0)

	// Shrink: the current (uncut) rate clamps down to the new contract.
	p.SetContract(now, 100_000)
	if p.Contract() != 100_000 || p.Rate() != 100_000 || b.Rate() != 100_000 {
		t.Fatalf("shrunk: contract=%d rate=%d bucket=%d", p.Contract(), p.Rate(), b.Rate())
	}
	if p.Throttled() {
		t.Fatal("rate at the new contract reads as throttled")
	}
	// Cuts and recovery now work in the new range.
	p.OnSignal(now, LinkClass{}, Hot)
	if p.Rate() != 50_000 {
		t.Fatalf("cut after resize = %d, want 50000", p.Rate())
	}
	p.Unfreeze()
	if !p.Tick(now) || p.Rate() != 60_000 {
		t.Fatalf("recovery step after resize = %d, want 60000", p.Rate())
	}

	// Widen: the ceiling rises, the current rate stays put and reads as
	// throttled so additive recovery climbs toward the new contract.
	p.SetContract(now, 400_000)
	if p.Contract() != 400_000 || p.Rate() != 60_000 || !p.Throttled() {
		t.Fatalf("widened: contract=%d rate=%d", p.Contract(), p.Rate())
	}
	for i := 0; i < 20; i++ {
		p.Tick(now)
	}
	if p.Rate() != 400_000 {
		t.Fatalf("recovery stalled at %d", p.Rate())
	}
}
