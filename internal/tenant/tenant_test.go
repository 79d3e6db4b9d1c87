package tenant

import (
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/feedback"
)

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(Contract{ID: 0, Rate: 1000}, feedback.PacerConfig{}); err == nil {
		t.Fatal("ID 0 must be rejected")
	}
	if _, err := r.Register(Contract{ID: 7, Rate: -1}, feedback.PacerConfig{}); err == nil {
		t.Fatal("negative rate must be rejected")
	}
	if _, err := r.Register(Contract{ID: 7, CostCeilingPerGB: -0.01}, feedback.PacerConfig{}); err == nil {
		t.Fatal("negative cost ceiling must be rejected")
	}
	if _, err := r.Register(Contract{ID: 7, Rate: 1000}, feedback.PacerConfig{}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := r.Register(Contract{ID: 7, Rate: 2000}, feedback.PacerConfig{}); err == nil {
		t.Fatal("duplicate ID must be rejected")
	}
}

func TestRegistryAscendingIteration(t *testing.T) {
	r := NewRegistry()
	for _, id := range []core.TenantID{9, 2, 5} {
		if _, err := r.Register(Contract{ID: id}, feedback.PacerConfig{}); err != nil {
			t.Fatalf("register %v: %v", id, err)
		}
	}
	var got []core.TenantID
	r.Each(func(tn *Tenant) { got = append(got, tn.ID()) })
	want := []core.TenantID{2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order %v, want %v", got, want)
		}
	}
}

func TestAdmitSharedQuota(t *testing.T) {
	r := NewRegistry()
	tn, err := r.Register(Contract{ID: 1, Rate: 10_000, Burst: 3000}, feedback.PacerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Burst admits exactly 3000 bytes at t=0, shared across any number
	// of callers (the flows): the fourth 1000-byte copy is refused.
	for i := 0; i < 3; i++ {
		if !tn.Admit(0, 1000) {
			t.Fatalf("copy %d within burst refused", i)
		}
	}
	if tn.Admit(0, 1000) {
		t.Fatal("copy beyond shared burst admitted")
	}
	if drops, bytes := tn.QuotaDrops(); drops != 1 || bytes != 1000 {
		t.Fatalf("quota drops = %d/%d, want 1/1000", drops, bytes)
	}
	// After one second the bucket refilled min(rate, burst) worth.
	if !tn.Admit(time.Second, 3000) {
		t.Fatal("refilled burst refused")
	}
}

func TestUnmeteredTenantAdmitsEverything(t *testing.T) {
	r := NewRegistry()
	tn, err := r.Register(Contract{ID: 1}, feedback.PacerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tn.Pacer() != nil {
		t.Fatal("unmetered tenant must not have a pacer")
	}
	for i := 0; i < 1000; i++ {
		if !tn.Admit(0, 1<<20) {
			t.Fatal("unmetered tenant refused a copy")
		}
	}
	if drops, _ := tn.QuotaDrops(); drops != 0 {
		t.Fatalf("unmetered tenant counted %d quota drops", drops)
	}
}

func TestPacerMinAcrossBottlenecks(t *testing.T) {
	r := NewRegistry()
	tn, err := r.Register(Contract{ID: 1, Rate: 100_000}, feedback.PacerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := tn.Pacer()
	k1 := feedback.LinkClass{From: 1, To: 2, Class: core.ServiceForwarding}
	k2 := feedback.LinkClass{From: 2, To: 3, Class: core.ServiceForwarding}

	if !p.OnSignal(0, k1, feedback.Hot) {
		t.Fatal("first Hot on k1 must cut")
	}
	if p.Rate() != 50_000 {
		t.Fatalf("rate after one cut = %d, want 50000", p.Rate())
	}
	// A second bottleneck going Hot cuts from ITS own base — the applied
	// rate is already below it, so the bucket does not move yet.
	if p.OnSignal(0, k2, feedback.Hot) {
		t.Fatal("k2's first cut (to 50k) must not lower the applied rate below k1's")
	}
	if p.Rate() != 50_000 {
		t.Fatalf("rate %d, want 50000", p.Rate())
	}
	// k1 cools and recovers past k2; the min must hold at k2's rate. Each
	// Tick raises k1 until it is forgotten; with k2 still hot, a Tick then
	// has nothing left to move.
	p.OnSignal(0, k1, feedback.Clear)
	ticks := 0
	for ticks < 20 && p.Tick(0) {
		ticks++
	}
	if ticks == 0 || ticks == 20 {
		t.Fatalf("k1 recovered out after %d ticks", ticks)
	}
	if p.Rate() != 50_000 {
		t.Fatalf("applied rate %d, want k2's 50000", p.Rate())
	}
	// k2 cools too; full recovery must clear all state and restore the
	// contract.
	p.OnSignal(0, k2, feedback.Clear)
	for i := 0; i < 20 && p.Throttled(); i++ {
		p.Tick(0)
	}
	if p.Throttled() || p.Rate() != 100_000 {
		t.Fatalf("pacer did not recover: throttled=%v rate=%d", p.Throttled(), p.Rate())
	}
	if p.Cuts() == 0 || p.Recoveries() == 0 {
		t.Fatalf("counters cuts=%d recoveries=%d", p.Cuts(), p.Recoveries())
	}
}

func TestPacerHotFreezeAndUnfreeze(t *testing.T) {
	r := NewRegistry()
	tn, err := r.Register(Contract{ID: 1, Rate: 80_000}, feedback.PacerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := tn.Pacer()
	k := feedback.LinkClass{From: 1, To: 2, Class: core.ServiceCaching}
	p.OnSignal(0, k, feedback.Hot)
	got := p.Rate()
	if p.Tick(0) {
		t.Fatal("frozen state must not recover")
	}
	if p.Rate() != got {
		t.Fatalf("rate moved under freeze: %d -> %d", got, p.Rate())
	}
	if p.HotLinks() != 1 {
		t.Fatalf("hot links %d, want 1", p.HotLinks())
	}
	// Unfreeze lets recovery proceed even though no cool signal ever
	// arrived (the subscription-change path).
	p.Unfreeze()
	if p.HotLinks() != 0 {
		t.Fatal("Unfreeze left a hot state")
	}
	if !p.Tick(0) {
		t.Fatal("unfrozen state must recover")
	}
}

func TestPacerFloor(t *testing.T) {
	r := NewRegistry()
	tn, err := r.Register(Contract{ID: 1, Rate: 1000}, feedback.PacerConfig{Floor: 0.25, Backoff: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p := tn.Pacer()
	k := feedback.LinkClass{From: 1, To: 2, Class: core.ServiceForwarding}
	for i := 0; i < 10; i++ {
		p.OnSignal(0, k, feedback.Hot)
	}
	if p.Rate() != 250 {
		t.Fatalf("rate %d, want the 250 floor", p.Rate())
	}
}

// BenchmarkTenantAdmit gates the aggregate-quota hot path: every cloud
// copy of every tenanted flow pays one Admit, so it must stay
// allocation-free like the per-flow bucket it wraps.
func BenchmarkTenantAdmit(b *testing.B) {
	r := NewRegistry()
	tn, err := r.Register(Contract{ID: 1, Rate: 1 << 30, Burst: 1 << 20}, feedback.PacerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	now := core.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Microsecond
		tn.Admit(now, 1200)
	}
}
