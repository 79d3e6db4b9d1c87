// Package tenant is the multi-tenant control plane above FlowSpec: the
// registry of customer contracts that admission quotas, egress-cost
// budgets, and aggregate congestion pacing are enforced against.
//
// The paper's judicious QoS spends cloud $/GB only where it buys
// outcome — but enforced per flow, every limit is trivially evaded by
// splitting one workload into many small flows. This package makes the
// CUSTOMER the enforcement unit:
//
//   - an aggregate admission quota: one shared token bucket
//     (load.Bucket) across all the tenant's flows, consulted before any
//     per-flow contract, so a thousand small flows and one big flow hit
//     the same ceiling;
//   - an egress-cost budget in $/GB, checked by the hosting runtime
//     against the tenant's volume-weighted aggregate spend (violation →
//     forced downgrade of the tenant's most expensive adaptive flow,
//     mirroring the per-flow cost loop);
//   - one AIMD pacer state per (tenant, bottleneck link-class), so
//     sibling flows crossing the same Hot queue back off as ONE — a
//     single multiplicative cut of the shared quota bucket instead of N
//     independent per-flow cuts fighting each other.
//
// Like the protocol engines the package is sans-IO and deterministic:
// the hosting runtime drives it with virtual time and delivers
// congestion signals; iteration orders are fixed (ascending tenant ID,
// signal-arrival order for pacer states) so same-seed runs reproduce
// byte-identical traces.
package tenant

import (
	"fmt"
	"sort"

	"jqos/internal/core"
	"jqos/internal/feedback"
	"jqos/internal/load"
)

// Contract is one tenant's resource envelope.
type Contract struct {
	// ID is the operator-assigned tenant identity. 0 is reserved as
	// "untenanted" and is rejected by Register.
	ID core.TenantID
	// Name labels the tenant in telemetry.
	Name string
	// Rate is the aggregate admission quota in bytes/second shared by
	// ALL the tenant's flows' cloud copies (0 = unmetered: no quota, and
	// therefore no aggregate pacer — there is no bucket to pace).
	Rate int64
	// Burst is the quota bucket's depth in bytes (0 defaults like
	// load.NewBucket: a quarter second of Rate, floored at one MTU).
	Burst int64
	// CostCeilingPerGB caps the tenant's aggregate egress spend in $/GB
	// across all member flows (0 = unbounded). The hosting runtime
	// enforces it by forcing the most expensive adaptive member flow
	// down a tier while the volume-weighted aggregate sits above the
	// ceiling.
	CostCeilingPerGB float64
}

// Tenant is one registered customer: the contract, the shared quota
// bucket, the aggregate pacer, and the tenant-level counters that the
// per-tenant telemetry slice and the chaos accounting invariant read.
type Tenant struct {
	contract Contract
	bucket   *load.Bucket    // nil when Contract.Rate == 0
	pacer    *feedback.Pacer // nil when bucket is nil

	quotaDrops     uint64
	quotaDropBytes uint64
	costViolations uint64
}

// ID returns the tenant's identity.
func (t *Tenant) ID() core.TenantID { return t.contract.ID }

// Name returns the tenant's telemetry label.
func (t *Tenant) Name() string { return t.contract.Name }

// Contract returns the registered envelope.
func (t *Tenant) Contract() Contract { return t.contract }

// Admit consumes n bytes from the aggregate quota bucket and reports
// whether the cloud copy conforms. An unmetered tenant admits
// everything. A false return consumed nothing and was counted as a
// quota drop — the caller drops the cloud copy (the direct best-effort
// path is unaffected, exactly like per-flow policing).
func (t *Tenant) Admit(now core.Time, n int) bool {
	if t.bucket == nil {
		return true
	}
	if t.bucket.Admit(now, n) {
		return true
	}
	t.quotaDrops++
	t.quotaDropBytes += uint64(n)
	return false
}

// QuotaDrops returns the lifetime count and byte volume of cloud copies
// refused by the aggregate quota.
func (t *Tenant) QuotaDrops() (drops, bytes uint64) {
	return t.quotaDrops, t.quotaDropBytes
}

// QuotaRate returns the quota bucket's CONTRACTED rate (0 = unmetered).
// Under an aggregate pacer cut the bucket's live rate is lower; see
// Pacer.Rate.
func (t *Tenant) QuotaRate() int64 { return t.contract.Rate }

// Pacer returns the tenant's aggregate pacer (nil for unmetered
// tenants — no bucket, nothing to pace).
func (t *Tenant) Pacer() *feedback.Pacer { return t.pacer }

// NoteCostViolation counts one budget-driven forced downgrade.
func (t *Tenant) NoteCostViolation() { t.costViolations++ }

// CostViolations returns the lifetime count of budget-driven forced
// downgrades.
func (t *Tenant) CostViolations() uint64 { return t.costViolations }

// Registry holds a deployment's tenants. Iteration is ascending by
// tenant ID (deterministic enforcement and telemetry order).
type Registry struct {
	tenants map[core.TenantID]*Tenant
	ids     []core.TenantID // ascending
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[core.TenantID]*Tenant)}
}

// Register creates a tenant under the contract. The pacer config is the
// AIMD reaction of the aggregate pacer (zero value = the feedback
// plane's defaults). Errors on a reserved or duplicate ID or a negative
// rate.
func (r *Registry) Register(c Contract, pcfg feedback.PacerConfig) (*Tenant, error) {
	if c.ID == 0 {
		return nil, fmt.Errorf("tenant: ID 0 is reserved for untenanted flows")
	}
	if _, dup := r.tenants[c.ID]; dup {
		return nil, fmt.Errorf("tenant: %v already registered", c.ID)
	}
	if c.Rate < 0 {
		return nil, fmt.Errorf("tenant: %v: negative quota rate %d", c.ID, c.Rate)
	}
	if c.CostCeilingPerGB < 0 {
		return nil, fmt.Errorf("tenant: %v: negative cost ceiling %g", c.ID, c.CostCeilingPerGB)
	}
	t := &Tenant{contract: c}
	if c.Rate > 0 {
		t.bucket = load.NewBucket(c.Rate, c.Burst)
		t.pacer = feedback.NewPacer(t.bucket, pcfg)
	}
	r.tenants[c.ID] = t
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= c.ID })
	r.ids = append(r.ids, 0)
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = c.ID
	return t, nil
}

// Get returns the tenant by ID.
func (r *Registry) Get(id core.TenantID) (*Tenant, bool) {
	t, ok := r.tenants[id]
	return t, ok
}

// Len returns the number of registered tenants.
func (r *Registry) Len() int { return len(r.tenants) }

// Each calls fn for every tenant in ascending ID order.
func (r *Registry) Each(fn func(*Tenant)) {
	for _, id := range r.ids {
		fn(r.tenants[id])
	}
}
