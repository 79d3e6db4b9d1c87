package load

import (
	"math"
	"testing"
	"time"

	"jqos/internal/core"
)

func ms(n int) core.Time { return core.Time(n) * time.Millisecond }

func TestMeterWindowedRate(t *testing.T) {
	m := NewMeter(time.Second)
	// 1000 bytes/ms sustained: rate must read 1 MB/s.
	for i := 0; i < 938; i++ {
		m.Add(ms(i), 1000)
	}
	// Mid-slot phase must not bias the reading: the divisor is the
	// covered span, so sustained load reads ~R at any sample instant
	// (a fixed full-window divisor would dip toward 0.875·R here).
	if r := m.Rate(ms(938)); math.Abs(r-1e6) > 0.02e6 {
		t.Fatalf("mid-slot rate = %.0f B/s, want ~1e6 at any phase", r)
	}
	for i := 938; i < 1000; i++ {
		m.Add(ms(i), 1000)
	}
	if r := m.Rate(ms(999)); math.Abs(r-1e6) > 0.01e6 {
		t.Fatalf("windowed rate = %.0f B/s, want ~1e6", r)
	}
	// One full idle window later the rate must have decayed to zero.
	if r := m.Rate(ms(2100)); r != 0 {
		t.Fatalf("rate after idle window = %.0f, want 0", r)
	}
	if b, p := m.Totals(); b != 1000*1000 || p != 1000 {
		t.Fatalf("totals = %d bytes / %d pkts", b, p)
	}
}

func TestMeterPartialWindow(t *testing.T) {
	m := NewMeter(time.Second)
	// Traffic only in the first quarter of the window: the windowed mean
	// averages it down, the peak keeps the hot slot visible.
	for i := 0; i < 250; i++ {
		m.Add(ms(i), 1000)
	}
	r := m.Rate(ms(999))
	if math.Abs(r-250e3) > 10e3 {
		t.Fatalf("quarter-window rate = %.0f B/s, want ~250e3", r)
	}
	if p := m.Peak(ms(999)); math.Abs(p-1e6) > 0.05e6 {
		t.Fatalf("peak = %.0f B/s, want ~1e6", p)
	}
}

func TestMeterEWMADecays(t *testing.T) {
	m := NewMeter(time.Second)
	for i := 0; i < 1000; i++ {
		m.Add(ms(i), 1000)
	}
	hot := m.Smoothed(ms(1000))
	if hot < 0.5e6 {
		t.Fatalf("smoothed rate after sustained load = %.0f, want ≥ 0.5e6", hot)
	}
	// The EWMA outlives the window but must still decay toward zero.
	cool := m.Smoothed(ms(3000))
	if cool >= hot/2 {
		t.Fatalf("smoothed rate did not decay: %.0f → %.0f", hot, cool)
	}
	if frozen := m.Smoothed(ms(60_000)); frozen > 1 {
		t.Fatalf("smoothed rate after long idle = %.0f, want ~0", frozen)
	}
}

func TestMeterLongGapFastPath(t *testing.T) {
	m := NewMeter(time.Second)
	m.Add(0, 4000)
	// A gap of hours must not leave stale slots behind.
	if r := m.Rate(3 * core.Time(time.Hour)); r != 0 {
		t.Fatalf("rate after 3h gap = %.0f", r)
	}
	m.Add(3*core.Time(time.Hour), 2000)
	if b, _ := m.Totals(); b != 6000 {
		t.Fatalf("totals lost bytes across gap: %d", b)
	}
}

func TestBucketBurstAndRefill(t *testing.T) {
	b := NewBucket(10_000, 5000) // 10 kB/s, 5 kB burst
	// The full burst conforms immediately...
	if !b.Admit(0, 5000) {
		t.Fatal("full burst rejected")
	}
	// ...and the very next byte does not.
	if b.Admit(0, 1) {
		t.Fatal("over-burst packet admitted")
	}
	// 100 ms refills 1000 bytes.
	if !b.Admit(ms(100), 1000) {
		t.Fatal("refilled tokens rejected")
	}
	if b.Admit(ms(100), 1) {
		t.Fatal("tokens over-refilled")
	}
	// Refill caps at the burst depth.
	if !b.Admit(ms(10_000), 5000) || b.Admit(ms(10_000), 1) {
		t.Fatal("a long idle did not refill to exactly the 5000-byte burst")
	}
}

func TestBucketDefaults(t *testing.T) {
	b := NewBucket(100_000, 0)
	if b.Burst() != 25_000 {
		t.Fatalf("default burst = %d, want rate/4", b.Burst())
	}
	if tiny := NewBucket(100, 0); tiny.Burst() != 1500 {
		t.Fatalf("default burst floor = %d, want 1500", tiny.Burst())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-rate bucket did not panic")
		}
	}()
	NewBucket(0, 0)
}

func TestRegistryUtilization(t *testing.T) {
	r := NewRegistry(time.Second)
	a, b := core.NodeID(1), core.NodeID(2)
	r.Track(a, b, 1_000_000) // 1 MB/s capacity
	// Untracked links are silently ignored.
	r.Record(0, 7, 8, core.ServiceForwarding, 10_000)

	// 500 kB over one window in the a→b direction: utilization 0.5.
	for i := 0; i < 500; i++ {
		r.Record(ms(2*i), a, b, core.ServiceForwarding, 1000)
	}
	u := r.Utilization(ms(999), a, b)
	if math.Abs(u-0.5) > 0.05 {
		t.Fatalf("utilization = %.3f, want ~0.5", u)
	}
	// Key order must not matter.
	if u2 := r.Utilization(ms(999), b, a); u2 != u {
		t.Fatalf("utilization asymmetric: %v vs %v", u, u2)
	}

	ll, ok := r.Load(ms(999), a, b)
	if !ok {
		t.Fatal("tracked link has no load")
	}
	if ll.AB.Rate == 0 || ll.BA.Rate != 0 {
		t.Fatalf("direction mixup: AB=%.0f BA=%.0f", ll.AB.Rate, ll.BA.Rate)
	}
	if ll.AB.ByClass[core.ServiceForwarding] != ll.AB.Rate {
		t.Fatalf("class breakdown: %v vs total %v", ll.AB.ByClass, ll.AB.Rate)
	}
	// Peak is the aggregate across classes, not the max of per-class
	// peaks: two classes bursting together must read as one burst.
	r.Record(ms(998), a, b, core.ServiceCaching, 50_000)
	r.Record(ms(998), a, b, core.ServiceCoding, 50_000)
	if ll2, _ := r.Load(ms(999), a, b); ll2.AB.Peak < 800_000 {
		t.Fatalf("cross-class peak = %.0f B/s, want ≥ 8e5 (aggregate slot)", ll2.AB.Peak)
	}
	if ll.AB.Packets != 500 || ll.AB.Bytes != 500_000 {
		t.Fatalf("totals = %d pkts / %d bytes", ll.AB.Packets, ll.AB.Bytes)
	}

	// Utilization clamps at 1 even when demand exceeds capacity (2 MB/s
	// against 1 MB/s).
	for i := 0; i < 3000; i++ {
		r.Record(ms(1000+i), a, b, core.ServiceCoding, 2000)
	}
	if u := r.Utilization(ms(3999), a, b); u != 1 {
		t.Fatalf("over-capacity utilization = %.3f, want clamp at 1", u)
	}

	// Uncapacitated links never read as congested.
	r.SetCapacity(a, b, 0)
	if u := r.Utilization(ms(3999), a, b); u != 0 {
		t.Fatalf("uncapacitated utilization = %.3f", u)
	}
	if r.SetCapacity(7, 8, 5) {
		t.Fatal("SetCapacity invented a link")
	}
}

func TestRegistryPairsSorted(t *testing.T) {
	r := NewRegistry(time.Second)
	r.Track(5, 4, 0)
	r.Track(2, 9, 0)
	r.Track(1, 3, 0)
	got := r.Pairs()
	want := [][2]core.NodeID{{1, 3}, {2, 9}, {4, 5}}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", got, want)
		}
	}
}
