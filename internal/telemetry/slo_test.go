package telemetry

import (
	"testing"
	"time"
)

func TestSLOConfigDefaults(t *testing.T) {
	if (SLOConfig{}).Enabled() {
		t.Fatal("zero config reads enabled")
	}
	c := SLOConfig{Objective: 0.99}.WithDefaults()
	if !c.Enabled() {
		t.Fatal("objective 0.99 reads disabled")
	}
	if c.FastWindow != time.Second || c.SlowWindow != 5*time.Second {
		t.Fatalf("window defaults = %v / %v", c.FastWindow, c.SlowWindow)
	}
	if c.AtRiskBurn != 2 || c.ViolatedBurn != 4 || c.MinSamples != 20 {
		t.Fatalf("threshold defaults = %v / %v / %d", c.AtRiskBurn, c.ViolatedBurn, c.MinSamples)
	}
	if c.ClearHold != c.FastWindow {
		t.Fatalf("ClearHold default = %v, want FastWindow", c.ClearHold)
	}
	// SlowWindow may never undercut FastWindow.
	c2 := SLOConfig{Objective: 0.9, FastWindow: 2 * time.Second, SlowWindow: time.Second}.WithDefaults()
	if c2.SlowWindow != c2.FastWindow {
		t.Fatalf("slow window %v < fast %v survived defaults", c2.SlowWindow, c2.FastWindow)
	}
}

// sloTestConfig: error budget 0.5, so burn = 2×miss-fraction. All-miss
// burn 2.0 trips Violated (≥1.8); 70%-miss burn 1.4 trips AtRisk
// (≥1.2); 25%-miss burn 0.5 reads Met.
func sloTestConfig() SLOConfig {
	return SLOConfig{
		Objective:    0.5,
		FastWindow:   800 * time.Millisecond,
		SlowWindow:   800 * time.Millisecond,
		AtRiskBurn:   1.2,
		ViolatedBurn: 1.8,
		MinSamples:   4,
		ClearHold:    400 * time.Millisecond,
	}.WithDefaults()
}

func TestSLOTrackerDegradeImmediately(t *testing.T) {
	tr := NewSLOTracker(sloTestConfig())
	if tr.State() != SLOMet {
		t.Fatalf("initial state = %v", tr.State())
	}
	for i := 0; i < 10; i++ {
		tr.Observe(100*time.Millisecond, false)
	}
	trans, ok := tr.Eval(100 * time.Millisecond)
	if !ok || trans.From != SLOMet || trans.To != SLOViolated {
		t.Fatalf("eval = %+v, %v; want Met→Violated", trans, ok)
	}
	if tr.State() != SLOViolated {
		t.Fatalf("state = %v, want violated", tr.State())
	}
	if trans.BurnFast < 1.9 || trans.BurnSlow < 1.9 {
		t.Fatalf("all-miss burns = %v/%v, want ~2.0", trans.BurnFast, trans.BurnSlow)
	}
	// A second eval at the same state is not a transition.
	if _, ok := tr.Eval(150 * time.Millisecond); ok {
		t.Fatal("repeat eval produced a transition")
	}
}

func TestSLOTrackerClearHold(t *testing.T) {
	tr := NewSLOTracker(sloTestConfig())
	for i := 0; i < 10; i++ {
		tr.Observe(100*time.Millisecond, false)
	}
	if _, ok := tr.Eval(100 * time.Millisecond); !ok {
		t.Fatal("never degraded")
	}
	// Flood with oks: target drops to Met, but the state must hold until
	// ClearHold elapses.
	for i := 0; i < 40; i++ {
		tr.Observe(200*time.Millisecond, true)
	}
	if _, ok := tr.Eval(200 * time.Millisecond); ok {
		t.Fatal("recovered instantly — ClearHold ignored")
	}
	if tr.State() != SLOViolated {
		t.Fatalf("state = %v before hold elapsed", tr.State())
	}
	if _, ok := tr.Eval(500 * time.Millisecond); ok {
		t.Fatal("recovered 100ms early")
	}
	trans, ok := tr.Eval(600 * time.Millisecond)
	if !ok || trans.From != SLOViolated || trans.To != SLOMet {
		t.Fatalf("eval after hold = %+v, %v; want Violated→Met", trans, ok)
	}
}

func TestSLOTrackerHoldRestartsWhenCandidateChanges(t *testing.T) {
	tr := NewSLOTracker(sloTestConfig())
	// t=100ms: 10 misses → Violated.
	for i := 0; i < 10; i++ {
		tr.Observe(100*time.Millisecond, false)
	}
	if _, ok := tr.Eval(100 * time.Millisecond); !ok {
		t.Fatal("never degraded")
	}
	// t=200ms: +4 oks → 10/14 miss, burn ~1.43 → candidate AtRisk; hold
	// clock starts.
	for i := 0; i < 4; i++ {
		tr.Observe(200*time.Millisecond, true)
	}
	if _, ok := tr.Eval(200 * time.Millisecond); ok {
		t.Fatal("stepped down without holding")
	}
	// t=300ms: +30 oks → 10/44 miss, burn ~0.45 → candidate changes to
	// Met; the hold clock must RESTART, not inherit AtRisk's 100ms.
	for i := 0; i < 30; i++ {
		tr.Observe(300*time.Millisecond, true)
	}
	if _, ok := tr.Eval(300 * time.Millisecond); ok {
		t.Fatal("stepped down on candidate change")
	}
	// 350ms after the AtRisk candidate appeared but only 250ms after Met
	// did: still held.
	if _, ok := tr.Eval(550 * time.Millisecond); ok {
		t.Fatal("hold clock did not restart on candidate change")
	}
	trans, ok := tr.Eval(700 * time.Millisecond)
	if !ok || trans.To != SLOMet {
		t.Fatalf("eval = %+v, %v; want recovery to Met", trans, ok)
	}
	if tr.State() != SLOMet {
		t.Fatalf("state = %v", tr.State())
	}
}

func TestSLOTrackerMinSamplesGuards(t *testing.T) {
	cfg := sloTestConfig()
	cfg.MinSamples = 20
	tr := NewSLOTracker(cfg)
	// 10 misses — every one a miss, but under MinSamples.
	for i := 0; i < 10; i++ {
		tr.Observe(100*time.Millisecond, false)
	}
	if fast, slow := tr.Burns(100 * time.Millisecond); fast != 0 || slow != 0 {
		t.Fatalf("burns under MinSamples = %v/%v, want 0/0", fast, slow)
	}
	if _, ok := tr.Eval(100 * time.Millisecond); ok || tr.State() != SLOMet {
		t.Fatalf("tripped under MinSamples (state %v)", tr.State())
	}
}

func TestSLOTrackerObserveMisses(t *testing.T) {
	tr := NewSLOTracker(sloTestConfig())
	// Synthetic blackhole misses alone must trip the tracker — there are
	// no deliveries to observe.
	tr.ObserveMisses(100*time.Millisecond, 10)
	tr.ObserveMisses(100*time.Millisecond, 0)  // no-op
	tr.ObserveMisses(100*time.Millisecond, -3) // no-op
	fastOK, fastMiss, _, slowMiss := tr.Windows(100 * time.Millisecond)
	if fastOK != 0 || fastMiss != 10 || slowMiss != 10 {
		t.Fatalf("windows = %d ok / %d miss (slow %d)", fastOK, fastMiss, slowMiss)
	}
	if trans, ok := tr.Eval(100 * time.Millisecond); !ok || trans.To != SLOViolated {
		t.Fatalf("blackhole eval = %+v, %v", trans, ok)
	}
}

func TestSLOWindowAgesOut(t *testing.T) {
	tr := NewSLOTracker(sloTestConfig())
	for i := 0; i < 10; i++ {
		tr.Observe(100*time.Millisecond, false)
	}
	// 900ms later the 800ms windows have fully rotated: the misses are
	// gone and burns read zero.
	if _, miss, _, _ := tr.Windows(time.Second); miss != 0 {
		t.Fatalf("fast window still holds %d misses after expiry", miss)
	}
	if fast, _ := tr.Burns(time.Second); fast != 0 {
		t.Fatalf("aged-out burn = %v", fast)
	}
}

func TestSLOStateString(t *testing.T) {
	for s, want := range map[SLOState]string{
		SLOMet: "met", SLOAtRisk: "at-risk", SLOViolated: "violated", SLOState(9): "slostate(9)",
	} {
		if got := s.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestSLOSnapshotAccessors(t *testing.T) {
	s := SLOSnapshot{
		Flows:   []SLOEntry{{Flow: 3, State: SLOAtRisk}},
		Classes: []SLOEntry{{Class: 2, State: SLOMet}},
		Tenants: []SLOEntry{{Tenant: 7, State: SLOViolated}},
	}
	if e, ok := s.Flow(3); !ok || e.State != SLOAtRisk {
		t.Fatalf("Flow(3) = %+v, %v", e, ok)
	}
	if _, ok := s.Flow(4); ok {
		t.Fatal("Flow(4) found")
	}
}

// BenchmarkSLOUpdate measures the per-delivery SLO path: one Observe
// into both windows plus a periodic Eval. Steady state must not
// allocate — it runs on the simulator goroutine for every delivery of
// every budgeted flow.
func BenchmarkSLOUpdate(b *testing.B) {
	tr := NewSLOTracker(SLOConfig{Objective: 0.99}.WithDefaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i) * 100 * time.Microsecond
		tr.Observe(at, i%10 != 0)
		if i%8 == 0 {
			tr.Eval(at)
		}
	}
}
