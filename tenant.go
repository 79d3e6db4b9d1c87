package jqos

import (
	"fmt"

	"jqos/internal/feedback"
	"jqos/internal/telemetry"
	"jqos/internal/tenant"
)

// TenantContract is one customer's resource envelope: an aggregate
// admission quota (Rate/Burst, shared by all member flows' cloud
// copies), and an egress-cost budget (CostCeilingPerGB, enforced
// against the tenant's volume-weighted aggregate spend). Re-exported
// from internal/tenant; see the package docs' Tenancy section.
type TenantContract = tenant.Contract

// RegisterTenant registers a customer contract. Flows join it via
// FlowSpec.Tenant and must register AFTER it; the contract itself is
// immutable once registered. The aggregate pacer (one AIMD backoff per
// congested bottleneck across the whole tenant) uses the same AIMD
// parameters as the per-flow pacers. Errors on the reserved ID 0, a
// duplicate ID, or a negative rate/ceiling.
func (d *Deployment) RegisterTenant(c TenantContract) error {
	_, err := d.tenants.Register(c, feedback.PacerConfig{})
	if err != nil {
		return err
	}
	// The cost loop exists only once some tenant declared a ceiling.
	if c.CostCeilingPerGB > 0 && d.tenantCost == nil && d.cfg.UpgradeInterval > 0 {
		d.tenantCost = d.sim.NewTicker(d.cfg.UpgradeInterval, &d.activity, func() bool {
			d.tenantCostRun()
			return false
		})
	}
	return nil
}

// Tenants returns the registered tenant IDs in ascending order.
func (d *Deployment) Tenants() []TenantID {
	out := make([]TenantID, 0, d.tenants.Len())
	d.tenants.Each(func(t *tenant.Tenant) { out = append(out, t.ID()) })
	return out
}

// TenantFlowCount returns how many open flows are the tenant's members
// (panics on an unregistered ID — a harness wiring bug). The chaos
// teardown invariant drives it back to zero.
func (d *Deployment) TenantFlowCount(id TenantID) int {
	if _, ok := d.tenants.Get(id); !ok {
		panic(fmt.Sprintf("jqos: tenant %v not registered", id))
	}
	n := 0
	for _, f := range d.open {
		if f.spec.Tenant == id {
			n++
		}
	}
	return n
}

// tenantCostRun is one budget evaluation: for every tenant with a cost
// ceiling, price the membership's lifetime application volume at each
// flow's live per-GB price (Flow.costPerGB, at its observed loss) and
// compare the volume-weighted aggregate against the
// ceiling. A violation forces the tenant's most EXPENSIVE adaptive
// member down a tier — the move that buys the most $/GB relief — and
// counts on the tenant (one forced move per tick per tenant, the
// adaptation loop's one-move-per-tick pacing). Every tenanted send
// wakes the loop, so it runs exactly while tenanted traffic flows.
func (d *Deployment) tenantCostRun() {
	d.tenants.Each(func(t *tenant.Tenant) {
		ceiling := t.Contract().CostCeilingPerGB
		if ceiling <= 0 {
			return
		}
		var costUSD float64
		var bytes uint64
		var victim *Flow
		var victimPrice float64
		for _, f := range d.open {
			if f.tenant != t {
				continue
			}
			price := f.costPerGB(f.service)
			costUSD += float64(f.metrics.SentBytes) / 1e9 * price
			bytes += f.metrics.SentBytes
			// Ascending scan + strictly-greater keeps the lowest flow ID
			// among equally priced candidates — deterministic victim.
			if !f.spec.ServiceFixed && (victim == nil || price > victimPrice) {
				victim, victimPrice = f, price
			}
		}
		if bytes == 0 {
			return
		}
		agg := costUSD / (float64(bytes) / 1e9)
		if agg <= ceiling || victim == nil {
			return
		}
		d.trace(telemetry.Event{
			Kind: telemetry.KindTenantCostViolation, Tenant: t.ID(),
			Flow: victim.id, Class: victim.service,
			V1: int64(agg * 1e6), V2: int64(ceiling * 1e6),
		})
		t.NoteCostViolation()
		dec := victim.adapter.Cheaper(victim.adaptInput())
		victim.setService(dec.Next, dec.Reason)
	})
}

// armTenantPacerTick schedules the next additive-recovery step of the
// tenants' aggregate pacers (idempotent; the loop stops by itself once
// no tenant is throttled). Armed wherever a tenant pacer can enter the
// throttled state or lose a subscriber that would have delivered its
// cooling signal: on aggregate cuts, on member (path, class) changes,
// and on member close.
func (d *Deployment) armTenantPacerTick() {
	if d.fb != nil {
		d.tenantPacer.Arm(pacerRecoverInterval)
	}
}

// tenantPacerRun is one recovery tick across every tenant, ascending ID
// — the tenant-level mirror of Flow.pacerTickRun.
func (d *Deployment) tenantPacerRun() {
	now := d.sim.Now()
	rearm := false
	d.tenants.Each(func(t *tenant.Tenant) {
		p := t.Pacer()
		if p == nil {
			return
		}
		if p.Tick(now) {
			d.fb.stats.TenantRecoveries++
			d.trace(telemetry.Event{
				Kind: telemetry.KindTenantPacerRecover, Tenant: t.ID(),
				V1: p.Rate(), V2: p.Contract(),
			})
			d.tel.notePacer(p.Rate(), p.Contract())
		}
		if p.Throttled() {
			rearm = true
		}
	})
	if rearm {
		d.armTenantPacerTick()
	}
}

// tenantSnap assembles one tenant's telemetry slice: contract and live
// runtime state from the tenant itself, per-flow rollups summed over
// the member rows (ascending flow-ID order — an auditor holding the
// same snapshot reproduces the sums bit-exactly).
func tenantSnap(t *tenant.Tenant, members []telemetry.FlowSnapshot) telemetry.TenantSnapshot {
	drops, dropBytes := t.QuotaDrops()
	ts := telemetry.TenantSnapshot{
		ID:                t.ID(),
		Name:              t.Name(),
		QuotaRate:         t.QuotaRate(),
		QuotaDropped:      drops,
		QuotaDroppedBytes: dropBytes,
		CostCeilingPerGB:  t.Contract().CostCeilingPerGB,
		CostViolations:    t.CostViolations(),
	}
	for i := range members {
		fs := &members[i]
		if fs.Tenant != t.ID() {
			continue
		}
		ts.Flows++
		ts.Sent += fs.Sent
		ts.SentBytes += fs.SentBytes
		ts.Delivered += fs.Delivered
		ts.OnTime += fs.OnTime
		ts.AdmissionDropped += fs.AdmissionDropped
		ts.EgressDropped += fs.EgressDropped
		ts.PacedBytes += fs.PacedBytes
		ts.EstCostUSD += fs.EstCostUSD
	}
	if ts.SentBytes > 0 {
		ts.CostPerGB = ts.EstCostUSD / (float64(ts.SentBytes) / 1e9)
	}
	if p := t.Pacer(); p != nil {
		ts.PacerRate = p.Rate()
		ts.Throttled = p.Throttled()
		ts.HotLinks = p.HotLinks()
		ts.PacerCuts = p.Cuts()
		ts.PacerRecoveries = p.Recoveries()
	}
	return ts
}
