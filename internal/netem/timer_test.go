package netem

import (
	"testing"
	"time"

	"jqos/internal/core"
)

func TestTimerResetSupersedes(t *testing.T) {
	sim := NewSimulator(1)
	var fired []core.Time
	tm := sim.NewTimer(func() { fired = append(fired, sim.Now()) })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(30 * time.Millisecond)
	tm.Reset(20 * time.Millisecond)
	if !tm.Armed() {
		t.Fatal("not armed after Reset")
	}
	if sim.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3 (every Reset pushes an event)", sim.Pending())
	}
	sim.Run()
	if len(fired) != 1 || fired[0] != 20*time.Millisecond {
		t.Errorf("fired = %v, want once at 20ms (the last Reset)", fired)
	}
	if tm.Armed() || sim.Pending() != 0 {
		t.Errorf("after Run: Armed=%v Pending=%d", tm.Armed(), sim.Pending())
	}
}

func TestTimerResetFromCallback(t *testing.T) {
	sim := NewSimulator(1)
	var fired []core.Time
	var tm *Timer
	tm = sim.NewTimer(func() {
		fired = append(fired, sim.Now())
		if tm.Armed() {
			t.Error("armed inside its own callback")
		}
		if len(fired) < 3 {
			tm.Reset(sim.Now() + 5*time.Millisecond)
		}
	})
	tm.Reset(5 * time.Millisecond)
	sim.Run()
	want := []core.Time{5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	if len(fired) != 3 || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Errorf("fired = %v, want %v", fired, want)
	}
}

func TestTimerResetPastFiresNow(t *testing.T) {
	sim := NewSimulator(1)
	sim.RunUntil(time.Second)
	var at core.Time = -1
	tm := sim.NewTimer(func() { at = sim.Now() })
	tm.Reset(time.Millisecond) // a deadline already due
	sim.Run()
	if at != time.Second {
		t.Errorf("fired at %v, want now (1s)", at)
	}
}

func TestTimerStopDrains(t *testing.T) {
	sim := NewSimulator(1)
	fired := 0
	tm := sim.NewTimer(func() { fired++ })
	tm.Reset(10 * time.Millisecond)
	tm.Stop()
	if tm.Armed() {
		t.Error("armed after Stop")
	}
	sim.Run()
	if fired != 0 || sim.Pending() != 0 {
		t.Errorf("fired=%d Pending=%d after Stop+Run, want 0/0", fired, sim.Pending())
	}
	// A stopped timer is reusable.
	tm.Arm(time.Millisecond)
	sim.Run()
	if fired != 1 {
		t.Errorf("fired = %d after re-arm, want 1", fired)
	}
}

func TestTimerArmIdempotent(t *testing.T) {
	sim := NewSimulator(1)
	var fired []core.Time
	tm := sim.NewTimer(func() { fired = append(fired, sim.Now()) })
	tm.Arm(10 * time.Millisecond)
	tm.Arm(time.Millisecond) // already armed: ignored, not superseded
	tm.Arm(50 * time.Millisecond)
	if sim.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", sim.Pending())
	}
	sim.Run()
	if len(fired) != 1 || fired[0] != 10*time.Millisecond {
		t.Errorf("fired = %v, want once at 10ms", fired)
	}
}

// Timers armed for the same instant run in arm order, like events
// scheduled through At.
func TestTimerTieOrder(t *testing.T) {
	sim := NewSimulator(1)
	var order []int
	a := sim.NewTimer(func() { order = append(order, 1) })
	b := sim.NewTimer(func() { order = append(order, 3) })
	a.Reset(time.Millisecond)
	sim.At(time.Millisecond, func() { order = append(order, 2) })
	b.Reset(time.Millisecond)
	a.Reset(time.Millisecond) // re-arm moves a behind b
	sim.Run()
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 1 {
		t.Errorf("order = %v, want [2 3 1]", order)
	}
}

func TestTickerParksAfterTwoIdleRounds(t *testing.T) {
	sim := NewSimulator(1)
	var activity uint64
	var rounds []core.Time
	k := sim.NewTicker(10*time.Millisecond, &activity, func() bool {
		rounds = append(rounds, sim.Now())
		return false
	})
	if sim.Pending() != 0 {
		t.Fatal("a new ticker must be parked")
	}
	// Activity during the first two intervals, then silence.
	sim.At(5*time.Millisecond, func() { activity++ })
	sim.At(15*time.Millisecond, func() { activity++ })
	k.Wake()
	sim.Run() // must terminate: the ticker parks
	// Rounds at 10 and 20 saw movement; 30 and 40 are the two idle ones.
	if len(rounds) != 4 || rounds[3] != 40*time.Millisecond {
		t.Fatalf("rounds = %v, want 4 ending at 40ms", rounds)
	}
	if sim.Pending() != 0 {
		t.Errorf("Pending = %d after parking", sim.Pending())
	}
}

func TestTickerHoldKeepsRunning(t *testing.T) {
	sim := NewSimulator(1)
	var activity uint64
	rounds := 0
	k := sim.NewTicker(10*time.Millisecond, &activity, func() bool {
		rounds++
		return rounds < 7 // unsettled state through round 6
	})
	k.Wake()
	sim.Run()
	// Idle from the start: without hold it would park at round 2; it
	// parks at the first idle round that does not hold.
	if rounds != 7 {
		t.Errorf("rounds = %d, want 7", rounds)
	}
}

func TestTickerWake(t *testing.T) {
	sim := NewSimulator(1)
	var activity uint64
	var rounds []core.Time
	k := sim.NewTicker(10*time.Millisecond, &activity, func() bool {
		rounds = append(rounds, sim.Now())
		return false
	})
	k.Wake()
	k.Wake() // running: schedules nothing
	if sim.Pending() != 1 {
		t.Fatalf("Pending = %d after two Wakes, want 1", sim.Pending())
	}
	sim.Run()
	if len(rounds) != 2 {
		t.Fatalf("rounds = %v, want 2 idle rounds then park", rounds)
	}
	// Wake on a parked ticker resumes one interval from now.
	sim.RunUntil(time.Second)
	k.Wake()
	sim.RunFor(15 * time.Millisecond)
	if len(rounds) != 3 || rounds[2] != time.Second+10*time.Millisecond {
		t.Fatalf("rounds = %v, want a third at 1.01s", rounds)
	}
	// Wake on a running ticker clears accumulated idleness: one idle
	// round is on the books, so without the Wake it would park next round.
	k.Wake()
	if sim.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", sim.Pending())
	}
	sim.Run()
	if len(rounds) != 5 {
		t.Errorf("rounds = %v, want 5", rounds)
	}
}

func TestTickerStop(t *testing.T) {
	sim := NewSimulator(1)
	var activity uint64
	rounds := 0
	k := sim.NewTicker(10*time.Millisecond, &activity, func() bool { rounds++; return true })
	k.Wake()
	sim.RunFor(35 * time.Millisecond)
	k.Stop()
	sim.Run() // terminates although tick always holds
	if rounds != 3 || sim.Pending() != 0 {
		t.Errorf("rounds=%d Pending=%d", rounds, sim.Pending())
	}
	// Stop from inside tick.
	var k2 *Ticker
	rounds = 0
	k2 = sim.NewTicker(10*time.Millisecond, &activity, func() bool { rounds++; k2.Stop(); return true })
	k2.Wake()
	sim.Run() // terminates: Stop from tick wins over its hold
	if rounds != 1 {
		t.Errorf("rounds = %d after Stop from tick, want 1", rounds)
	}
	// A nil ticker is a disabled loop.
	var off *Ticker
	off.Wake()
	off.Stop()
}

// Re-arming a Timer, like scheduling a pre-bound func through At,
// allocates nothing: the heap holds events by value.
func TestTimerResetAllocs(t *testing.T) {
	sim := NewSimulator(1)
	fn := func() {}
	viaAt := testing.AllocsPerRun(200, func() {
		sim.At(sim.Now()+time.Microsecond, fn)
		sim.Run()
	})
	tm := sim.NewTimer(fn)
	viaTimer := testing.AllocsPerRun(200, func() {
		tm.Reset(sim.Now() + time.Microsecond)
		sim.Run()
	})
	if viaTimer != 0 || viaAt != 0 {
		t.Errorf("Timer.Reset+fire = %v allocs, At with a pre-bound func = %v", viaTimer, viaAt)
	}
}

// BenchmarkTimerRearm is the deadline-timer pattern of DC and host nodes:
// every handled message supersedes the pending firing, and one in eight
// deadlines is actually reached.
func BenchmarkTimerRearm(b *testing.B) {
	sim := NewSimulator(1)
	tm := sim.NewTimer(func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(sim.Now() + 8*time.Microsecond)
		sim.RunFor(time.Microsecond)
	}
	sim.Run()
}

// BenchmarkTickerRound is one round of a running periodic loop.
func BenchmarkTickerRound(b *testing.B) {
	sim := NewSimulator(1)
	var activity uint64
	k := sim.NewTicker(time.Microsecond, &activity, func() bool { return false })
	k.Wake()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		activity++
		sim.RunFor(time.Microsecond)
	}
	k.Stop()
	sim.Run()
}
