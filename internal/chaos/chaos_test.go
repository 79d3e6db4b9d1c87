package chaos

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"jqos/internal/core"
)

// TestFuzzTimelineDeterminism: the same (seed, profile, topology) must
// produce a byte-identical timeline — the timeline is the reproduction
// recipe for a failing run — and different seeds must actually differ.
func TestFuzzTimelineDeterminism(t *testing.T) {
	w1, err := BuildWorld(9)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := BuildWorld(9)
	if err != nil {
		t.Fatal(err)
	}
	a := Fuzz(9, Profile{}, w1.DCs, w1.Links).Timeline()
	b := Fuzz(9, Profile{}, w2.DCs, w2.Links).Timeline()
	if a != b {
		t.Fatalf("same-seed timelines differ:\n%s\nvs\n%s", a, b)
	}
	if c := Fuzz(10, Profile{}, w1.DCs, w1.Links).Timeline(); c == a {
		t.Fatal("different seeds produced identical timelines")
	}
	if !strings.Contains(a, "seed=9") {
		t.Fatalf("timeline does not record its seed:\n%s", a)
	}
}

// TestRunDeterminism: two complete runs of the same seed must agree on
// every verdict counter — the simulator owns all randomness, so chaos
// runs are replayable end to end.
func TestRunDeterminism(t *testing.T) {
	run := func() Verdict {
		v, err := RunOne(3, Profile{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := run(), run()
	if a.Timeline != b.Timeline {
		t.Errorf("timelines differ:\n%s\nvs\n%s", a.Timeline, b.Timeline)
	}
	if a.Delivered != b.Delivered || a.Reroutes != b.Reroutes ||
		a.FlowSignals != b.FlowSignals || a.RateCuts != b.RateCuts ||
		a.TenantCuts != b.TenantCuts || a.QuotaDrops != b.QuotaDrops {
		t.Errorf("same-seed verdicts differ: %+v vs %+v", a, b)
	}
}

// TestSoakHasNoObserverEffect runs seeds 1–10 twice, once with a
// Snapshot every 7 ms up to the horizon, and requires the same Verdict and
// the same final Snapshot, byte for byte. The one difference allowed is
// the snapshot counter, which must count exactly the extra snapshots:
// building a snapshot must not advance a window, flush a buffer or draw
// from a random stream that a run's outcome depends on.
func TestSoakHasNoObserverEffect(t *testing.T) {
	const every = 7 * time.Millisecond
	horizon := Profile{}.withDefaults().Horizon
	run := func(seed int64, observe bool) (verdict, snap []byte, built uint64) {
		t.Helper()
		w, err := BuildWorld(seed)
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			for at := every; at < horizon; at += every {
				w.D.Sim().At(at, func() { w.D.Snapshot() })
			}
		}
		v, err := RunScenario(w, Fuzz(seed, Profile{}, w.DCs, w.Links), horizon)
		if err != nil {
			t.Fatal(err)
		}
		s := w.D.Snapshot()
		for i := range s.Counters {
			if s.Counters[i].Name == "jqos_snapshots_built_total" {
				built, s.Counters[i].Value = s.Counters[i].Value, 0
			}
		}
		if verdict, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
		if snap, err = json.Marshal(s); err != nil {
			t.Fatal(err)
		}
		return verdict, snap, built
	}
	extra := uint64((horizon - 1) / every)
	for seed := int64(1); seed <= 10; seed++ {
		qv, qSnap, qb := run(seed, false)
		ov, oSnap, ob := run(seed, true)
		if !bytes.Equal(qv, ov) {
			t.Errorf("seed %d: snapshots every %v changed the verdict:\nunobserved %s\nobserved   %s", seed, every, qv, ov)
		}
		if !bytes.Equal(qSnap, oSnap) {
			t.Errorf("seed %d: snapshots every %v changed the final snapshot", seed, every)
		}
		if ob-qb != extra {
			t.Errorf("seed %d: %d snapshots built beyond the unobserved run, want the %d scheduled", seed, ob-qb, extra)
		}
	}
}

// TestInvariantsHoldAcrossSeeds is the in-repo smoke soak: a handful of
// seeded fuzz runs must hold every invariant AND actually exercise the
// control loops (a run that never reroutes or paces is not a chaos
// test).
func TestInvariantsHoldAcrossSeeds(t *testing.T) {
	rep := Soak(SoakOptions{Runs: 6, Seed: 1, Log: t.Logf})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for _, f := range rep.Failures {
		for _, viol := range f.Violations {
			t.Errorf("seed %d: %v", f.Seed, viol)
		}
	}
	if rep.Delivered == 0 || rep.FlowSignals == 0 || rep.RateCuts == 0 || rep.Reroutes == 0 ||
		rep.TenantCuts == 0 || rep.QuotaDrops == 0 {
		t.Errorf("soak exercised too little: %+v", rep)
	}
}

// TestBrokenInvariantDetected injects a deliberately unhealed failure —
// the spur DC stays crashed past the horizon — and requires the harness
// to detect it, report the violation against the right invariant, carry
// the reproducing seed, and attach the failure snapshot.
func TestBrokenInvariantDetected(t *testing.T) {
	const seed = 77
	w, err := BuildWorld(seed)
	if err != nil {
		t.Fatal(err)
	}
	spur := w.DCs[3]
	sc := Scenario{
		Name: "never-heals",
		Seed: seed,
		Steps: []Step{
			{At: 2 * time.Second, Kind: StepCrashDC, A: spur},
		},
	}
	v, err := RunScenario(w, sc, 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK() {
		t.Fatal("unhealed DC crash was not detected")
	}
	if v.Seed != seed {
		t.Errorf("verdict lost the reproducing seed: got %d", v.Seed)
	}
	var converged bool
	for _, viol := range v.Violations {
		if viol.Invariant == "routing-converged" {
			converged = true
		}
	}
	if !converged {
		t.Errorf("expected a routing-converged violation, got %v", v.Violations)
	}
	if v.Snapshot == nil {
		t.Error("failing verdict did not attach the final snapshot")
	}
	if !strings.Contains(v.Timeline, "crash-dc") {
		t.Errorf("timeline does not describe the injected fault:\n%s", v.Timeline)
	}
}

// TestBindValidation: scripting bugs (unknown links) must fail at Bind
// time, not be skipped mid-run.
func TestBindValidation(t *testing.T) {
	w, err := BuildWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Bind(w.D, Scenario{Steps: []Step{
		{Kind: StepPartition, A: core.NodeID(998), B: core.NodeID(999)},
	}})
	if err == nil {
		t.Fatal("Bind accepted a step on a nonexistent link")
	}
}

// TestFlapExpansion: the helper must expand to explicit alternating
// partition/heal pairs, fully reproducible from the timeline alone.
func TestFlapExpansion(t *testing.T) {
	steps := Flap(time.Second, 1, 2, 400*time.Millisecond, 3)
	if len(steps) != 6 {
		t.Fatalf("expected 6 steps, got %d", len(steps))
	}
	for i, s := range steps {
		wantKind := StepPartition
		if i%2 == 1 {
			wantKind = StepHeal
		}
		if s.Kind != wantKind {
			t.Errorf("step %d: kind %v, want %v", i, s.Kind, wantKind)
		}
	}
	if steps[2].At != 1400*time.Millisecond || steps[3].At != 1600*time.Millisecond {
		t.Errorf("unexpected cycle times: %v, %v", steps[2].At, steps[3].At)
	}
}
