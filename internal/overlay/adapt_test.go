package overlay

import (
	"math/rand"
	"testing"
	"time"

	"jqos/internal/core"
)

const (
	testInterval = 500 * time.Millisecond
	flap         = 2 * downgradeAfter * testInterval
)

// within predicts every tier at 10 ms.
func within(core.Service) (core.Time, bool) { return 10 * time.Millisecond, true }

// feed steps an adapter through windows: cumulative counts advance by
// delivered, of which onTime met the budget.
type feed struct {
	a                 Adapter
	delivered, onTime uint64
	in                AdaptInput
}

func newFeed(svc core.Service) *feed {
	return &feed{a: NewAdapter(testInterval), in: AdaptInput{
		Service: svc, Budget: 50 * time.Millisecond, Predict: within,
	}}
}

// tick advances time by one interval and judges a window of n deliveries
// at the given on-time fraction, moving the service as decided.
func (f *feed) tick(n uint64, frac float64) Decision {
	f.delivered += n
	f.onTime += uint64(float64(n) * frac)
	f.in.Now += testInterval
	f.in.Delivered, f.in.OnTime = f.delivered, f.onTime
	d := f.a.Tick(f.in)
	f.in.Service = d.Next
	return d
}

func TestAdapterTickTable(t *testing.T) {
	cases := []struct {
		name   string
		svc    core.Service
		fixed  bool
		frac   float64
		ticks  int
		want   core.Service
		reason ServiceChangeReason
		missed bool
	}{
		{"miss upgrades one tier", core.ServiceCoding, false, 0.5, 1, core.ServiceCaching, ReasonBudgetViolation, true},
		{"just under the on-time target upgrades", core.ServiceCoding, false, 0.94, 1, core.ServiceCaching, ReasonBudgetViolation, true},
		{"at the on-time target holds", core.ServiceCoding, false, 0.95, 1, core.ServiceCoding, 0, false},
		{"miss at the top tier stays", core.ServiceForwarding, false, 0, 1, core.ServiceForwarding, 0, true},
		{"fixed flow reports the miss but stays", core.ServiceCoding, true, 0, 1, core.ServiceCoding, 0, true},
		{"over-delivery needs the streak", core.ServiceCaching, false, 1, downgradeAfter - 1, core.ServiceCaching, 0, false},
		{"over-delivery steps down", core.ServiceCaching, false, 1, downgradeAfter, core.ServiceCoding, ReasonOverDelivery, false},
		{"fixed flow never steps down", core.ServiceCaching, true, 1, 10, core.ServiceCaching, 0, false},
		{"between the targets holds", core.ServiceCaching, false, 0.98, 10, core.ServiceCaching, 0, false},
		{"at the downgrade target steps down", core.ServiceCaching, false, 0.99, downgradeAfter, core.ServiceCoding, ReasonOverDelivery, false},
		{"no Internet unless allowed", core.ServiceCoding, false, 1, 10, core.ServiceCoding, 0, false},
	}
	for _, c := range cases {
		f := newFeed(c.svc)
		f.in.Fixed = c.fixed
		var d Decision
		for i := 0; i < c.ticks; i++ {
			d = f.tick(100, c.frac)
		}
		if d.Next != c.want || d.Reason != c.reason || d.Missed != c.missed {
			t.Errorf("%s: got %+v, want next %v reason %v missed %v", c.name, d, c.want, c.reason, c.missed)
		}
	}
}

// TestAdapterShortWindowsCarry: fewer than windowMin deliveries judge
// nothing, and the window carries on until it holds enough.
func TestAdapterShortWindowsCarry(t *testing.T) {
	f := newFeed(core.ServiceCoding)
	for i := 0; i < 3; i++ {
		if d := f.tick(5, 0); d.Missed || d.Next != core.ServiceCoding {
			t.Fatalf("tick %d judged a %d-delivery window: %+v", i, 5*(i+1), d)
		}
	}
	d := f.tick(5, 0)
	if !d.Missed || d.Delivered != 20 || d.Next != core.ServiceCaching {
		t.Fatalf("the carried 20-delivery window was not judged: %+v", d)
	}
	if d := f.tick(5, 0); d.Missed {
		t.Fatalf("a judged window was counted twice: %+v", d)
	}
}

// TestAdapterSkipsPredictedMiss: a downgrade walks past a tier predicted
// over budget to a cheaper one that fits, and stays put when none does.
func TestAdapterSkipsPredictedMiss(t *testing.T) {
	f := newFeed(core.ServiceForwarding)
	f.in.Predict = func(s core.Service) (core.Time, bool) {
		if s == core.ServiceCaching {
			return time.Second, true
		}
		return within(s)
	}
	var d Decision
	for i := 0; i < downgradeAfter; i++ {
		d = f.tick(100, 1)
	}
	if d.Next != core.ServiceCoding {
		t.Fatalf("over-delivery from forwarding went to %v, want coding past caching's predicted miss", d.Next)
	}
	f.in.Predict = func(core.Service) (core.Time, bool) { return 0, false }
	for i := 0; i < 10; i++ {
		if d := f.tick(100, 1); d.Next != core.ServiceCoding {
			t.Fatalf("stepped down to %v with no tier predicted", d.Next)
		}
	}
}

// TestAdapterFlapBackoff: a downgrade reversed inside the flap window
// doubles the streak a downgrade needs; one that sticks past it halves
// the requirement back.
func TestAdapterFlapBackoff(t *testing.T) {
	f := newFeed(core.ServiceCaching)
	for i := 0; i < downgradeAfter; i++ {
		f.tick(100, 1)
	}
	if f.in.Service != core.ServiceCoding {
		t.Fatalf("no downgrade after %d over-delivering windows", downgradeAfter)
	}
	if d := f.tick(100, 0); d.Reason != ReasonBudgetViolation || f.a.dgNeed != 2*downgradeAfter {
		t.Fatalf("reversal: %+v, dgNeed %d, want %d", d, f.a.dgNeed, 2*downgradeAfter)
	}
	for i := 0; i < 2*downgradeAfter; i++ {
		f.tick(100, 1)
	}
	if f.in.Service != core.ServiceCoding {
		t.Fatalf("no downgrade after %d over-delivering windows", 2*downgradeAfter)
	}
	f.in.Now += flap
	f.tick(100, 0.97)
	if f.a.dgNeed != downgradeAfter || f.a.lastDown {
		t.Fatalf("a downgrade that stuck left dgNeed %d lastDown %v", f.a.dgNeed, f.a.lastDown)
	}
	// An upgrade long after a downgrade is not a flap.
	if d := f.tick(100, 0); d.Reason != ReasonBudgetViolation || f.a.dgNeed != downgradeAfter {
		t.Fatalf("late upgrade: %+v, dgNeed %d", d, f.a.dgNeed)
	}
}

func TestAdapterCongested(t *testing.T) {
	f := newFeed(core.ServiceCaching)
	f.in.Now = time.Second
	if d := f.a.Congested(f.in); d.Next != core.ServiceCoding || d.Reason != ReasonCongestion {
		t.Fatalf("Hot with coding predicted in budget: %+v, want down to coding", d)
	}
	f.in.Now += congestionCooldown - 1
	if d := f.a.Congested(f.in); d.Reason != 0 {
		t.Fatalf("moved inside the cooldown: %+v", d)
	}
	f.in.Now++
	f.in.Predict = func(core.Service) (core.Time, bool) { return time.Second, true }
	if d := f.a.Congested(f.in); d.Next != core.ServiceForwarding || d.Reason != ReasonCongestion {
		t.Fatalf("Hot with nothing cheaper in budget: %+v, want up to forwarding", d)
	}
	off := NewAdapter(0)
	if d := off.Congested(f.in); d.Reason != 0 {
		t.Fatalf("moved without an adaptation loop: %+v", d)
	}
}

func TestAdapterCheaper(t *testing.T) {
	var a Adapter
	cases := []struct {
		svc      core.Service
		internet bool
		want     core.Service
	}{
		{core.ServiceForwarding, false, core.ServiceCaching},
		{core.ServiceCaching, false, core.ServiceCoding},
		{core.ServiceCoding, false, core.ServiceCoding},
		{core.ServiceCoding, true, core.ServiceInternet},
		{core.ServiceInternet, true, core.ServiceInternet},
	}
	for _, c := range cases {
		// Whatever the budget: the forced move never consults it.
		in := AdaptInput{Service: c.svc, Internet: c.internet, Predict: func(core.Service) (core.Time, bool) { return time.Hour, true }}
		d := a.Cheaper(in)
		if d.Next != c.want || (d.Reason == ReasonCostViolation) != (c.want != c.svc) {
			t.Errorf("Cheaper from %v (internet %v) = %+v, want %v", c.svc, c.internet, d, c.want)
		}
	}
}

// TestAdapterRandomPrograms drives adapters through random sequences of
// windows, Hot signals and forced moves, checking every decision.
func TestAdapterRandomPrograms(t *testing.T) {
	fracs := []float64{0, 0.5, 0.94, 0.95, 0.97, 0.99, 1}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fixed := rng.Intn(5) == 0
		a := NewAdapter(testInterval)
		in := AdaptInput{
			Service: core.Service(rng.Intn(4)), Fixed: fixed,
			Budget: time.Duration(20+rng.Intn(80)) * time.Millisecond,
			Now:    time.Second,
		}
		var pred [4]core.Time
		var predOK [4]bool
		in.Predict = func(s core.Service) (core.Time, bool) { return pred[s], predOK[s] }
		var lastCong time.Duration
		for step := 0; step < 200; step++ {
			for s := range pred {
				pred[s] = time.Duration(rng.Intn(120)) * time.Millisecond
				predOK[s] = rng.Intn(6) != 0
			}
			in.Internet = rng.Intn(2) == 0
			in.Now += time.Duration(rng.Int63n(int64(3 * testInterval)))
			before := a
			var d Decision
			op := rng.Intn(10)
			switch {
			case op < 7:
				n := uint64(rng.Intn(60))
				frac := fracs[rng.Intn(len(fracs))]
				in.Delivered += n
				in.OnTime += uint64(float64(n) * frac)
				// Monotonicity: from the same state, a window judged
				// worse never lands on a cheaper tier.
				for _, g := range fracs {
					lo, hi := before, before
					inLo, inHi := in, in
					inLo.OnTime = before.winOnTime + uint64(float64(in.Delivered-before.winDelivered)*min(g, frac))
					inHi.OnTime = before.winOnTime + uint64(float64(in.Delivered-before.winDelivered)*max(g, frac))
					if l, h := lo.Tick(inLo), hi.Tick(inHi); l.Next < h.Next {
						t.Fatalf("seed %d step %d: on-time %v → %v but %v → %v", seed, step, min(g, frac), l.Next, max(g, frac), h.Next)
					}
				}
				d = a.Tick(in)
				checkFlap(t, seed, step, before, a, in, d)
			case op < 9:
				d = a.Congested(in)
				if d.Reason != 0 {
					if lastCong != 0 && in.Now-lastCong < congestionCooldown {
						t.Fatalf("seed %d step %d: congestion moves %v apart", seed, step, in.Now-lastCong)
					}
					lastCong = in.Now
				}
			default:
				d = a.Cheaper(in)
			}
			if d.Next != in.Service && d.Reason == 0 || d.Next == in.Service && d.Reason != 0 {
				t.Fatalf("seed %d step %d: decision %+v from %v", seed, step, d, in.Service)
			}
			if fixed && d.Next != in.Service {
				t.Fatalf("seed %d step %d: fixed flow moved %v → %v", seed, step, in.Service, d.Next)
			}
			if d.Next == core.ServiceInternet && in.Service != core.ServiceInternet && !in.Internet {
				t.Fatalf("seed %d step %d: picked Internet while it is not allowed and viable", seed, step)
			}
			if d.Next < in.Service && d.Reason != ReasonCostViolation {
				if p, ok := in.Predict(d.Next); !ok || p > in.Budget {
					t.Fatalf("seed %d step %d: %v stepped down into a predicted miss (%v, ok %v, budget %v)", seed, step, d.Reason, p, ok, in.Budget)
				}
			}
			if d.Next > in.Service && d.Next != in.Service+1 {
				t.Fatalf("seed %d step %d: upgrade skipped a tier %v → %v", seed, step, in.Service, d.Next)
			}
			in.Service = d.Next
		}
	}
}

// checkFlap holds dgNeed to [downgradeAfter, 8×downgradeAfter], doubling
// only on the reversal of a downgrade inside the flap window and halving
// only once a downgrade outlived it.
func checkFlap(t *testing.T, seed int64, step int, before, after Adapter, in AdaptInput, d Decision) {
	t.Helper()
	if after.dgNeed < downgradeAfter || after.dgNeed > 8*downgradeAfter {
		t.Fatalf("seed %d step %d: dgNeed %d", seed, step, after.dgNeed)
	}
	stuck := before.lastDown && in.Now-before.downAt > flap
	switch {
	case after.dgNeed > before.dgNeed:
		if after.dgNeed != 2*before.dgNeed || d.Reason != ReasonBudgetViolation || !before.lastDown || stuck {
			t.Fatalf("seed %d step %d: dgNeed %d → %d on %+v (lastDown %v, %v after it)", seed, step, before.dgNeed, after.dgNeed, d, before.lastDown, in.Now-before.downAt)
		}
	case after.dgNeed < before.dgNeed:
		if after.dgNeed != before.dgNeed/2 || !stuck {
			t.Fatalf("seed %d step %d: dgNeed %d → %d without a downgrade sticking", seed, step, before.dgNeed, after.dgNeed)
		}
	}
}
