package jqos_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"jqos"
	"jqos/internal/netem"
	"jqos/internal/telemetry"
)

// TestClosesDuringPassesKeepOneFlowList drives random registrations and
// closes, some of them made by FlowSpec.OnEvent subscribers while the
// post-recompute pass moves flows (a fault on the primary path, found by
// the link monitor) or while the tenant cost loop forces a service move.
// After every step Flows, the Snapshot's flow rows and totals, and its
// tenant rollup must equal the test's own ascending list of open flows; no
// reroute or service change may name a flow after its Close; and between
// passes every open flow is where the pass must have put it: on the
// primary path, or, pinned with RepinOnHeal, back on its registration
// path once that path is up.
func TestClosesDuringPassesKeepOneFlowList(t *testing.T) {
	var fromPass, fromCost int
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			p, c := closeDuringPasses(t, seed)
			fromPass, fromCost = fromPass+p, fromCost+c
		})
	}
	if fromPass == 0 || fromCost == 0 {
		t.Fatalf("closes from subscribers: %d during a reroute pass, %d during a forced cost move; the test needs both", fromPass, fromCost)
	}
}

// closeDuringPasses runs one random sequence and returns how many flows
// subscribers closed while handling a reroute and a forced cost move.
func closeDuringPasses(t *testing.T, seed int64) (fromPass, fromCost int) {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 200 * time.Millisecond // cost and adaptation ticks
	d, dcs, src, dst := buildDiamond(t, seed, cfg)
	d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 0.4})
	// A ceiling nothing meets: every tenant cost tick forces a move.
	if err := d.RegisterTenant(jqos.TenantContract{ID: 1, Name: "capped", CostCeilingPerGB: 1e-9}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var open []*jqos.Flow // the model: open flows, ascending ID
	closed := make(map[jqos.FlowID]bool)
	preferred := make(map[*jqos.Flow][]jqos.NodeID) // RepinOnHeal flows' registration paths
	closeFlow := func(f *jqos.Flow) {
		f.Close()
		closed[f.ID()] = true
		open = slices.DeleteFunc(open, func(o *jqos.Flow) bool { return o == f })
	}

	check := func(where string) {
		t.Helper()
		want := make([]jqos.FlowID, len(open))
		var sent uint64
		for i, f := range open {
			want[i] = f.ID()
			sent += f.Metrics().Sent
		}
		var got []jqos.FlowID
		for _, f := range d.Flows() {
			got = append(got, f.ID())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Flows() = %v, want %v", where, got, want)
		}
		snap := d.Snapshot()
		got = got[:0]
		for _, fs := range snap.Flows {
			got = append(got, fs.ID)
		}
		if !slices.Equal(got, want) || snap.Totals.Flows != len(want) {
			t.Fatalf("%s: Snapshot flows %v (Totals.Flows %d), want %v", where, got, snap.Totals.Flows, want)
		}
		ts := snap.Tenants[0]
		if ts.Flows != len(want) || ts.Sent != sent {
			t.Fatalf("%s: Snapshot tenant has %d flows, %d sent; want %d flows, %d sent", where, ts.Flows, ts.Sent, len(want), sent)
		}
	}

	var register func()
	onEvent := func(f *jqos.Flow, e telemetry.Event) {
		if e.Kind != telemetry.KindReroute && e.Kind != telemetry.KindServiceChange {
			return
		}
		if closed[e.Flow] {
			t.Errorf("%v event for flow %d after its Close", e.Kind, e.Flow)
		}
		if rng.Intn(2) != 0 || closed[e.Flow] {
			return
		}
		// Close a flow the running pass has already visited, the subject
		// itself or one it has not reached yet, and open one it must not
		// visit.
		closeFlow(open[rng.Intn(len(open))])
		if e.Kind == telemetry.KindReroute {
			fromPass++
		} else if jqos.ServiceChangeReason(e.Reason) == jqos.ReasonCostViolation {
			fromCost++
		}
		register()
		check("in a subscriber")
	}
	register = func() {
		if len(open) >= 12 {
			return
		}
		spec := jqos.FlowSpec{Src: src, Dst: dst, Budget: 70 * time.Millisecond, Tenant: 1, OnEvent: onEvent}
		if rng.Intn(3) != 0 {
			// Pinned to the primary, this flow fails over in the pass's
			// first phase and returns in its last, once the link heals.
			spec.Path, spec.RepinOnHeal = jqos.PathPolicy{Kind: jqos.PathPinned}, true
		}
		f, err := d.RegisterFlow(spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.RepinOnHeal {
			preferred[f] = f.Path()
		}
		open = append(open, f)
	}

	const horizon = 12 * time.Second
	for at := time.Duration(0); at < horizon; at += 10 * time.Millisecond {
		d.Sim().At(at, func() {
			for _, f := range d.Flows() {
				f.Send(make([]byte, 200))
			}
		})
	}
	for k := 1; k < int(horizon/(100*time.Millisecond)); k++ {
		k := k
		d.Sim().At(time.Duration(k)*100*time.Millisecond, func() {
			switch r := rng.Intn(8); {
			case k%20 == 10:
				d.Link(dcs[1], dcs[3]).Disconnect()
			case k%20 == 0:
				d.Link(dcs[1], dcs[3]).Reconnect()
			case r < 5:
				register()
			case r < 7 && len(open) > 0:
				closeFlow(open[rng.Intn(len(open))])
			case r == 7:
				// Close while ranging over Flows(), as a teardown does.
				for _, f := range d.Flows() {
					if f.ID()%2 == 1 {
						closeFlow(f)
					}
				}
			}
			check("after a step")
			primary := d.Routing().Primary(dcs[0], dcs[3])
			for _, f := range open {
				want, repin := preferred[f]
				if !repin {
					want = primary
				} else if _, up := d.Routing().PathCost(want); !up {
					continue // parked on an alternate until its path heals
				}
				if !slices.Equal(f.Path(), want) {
					t.Fatalf("flow %d is on %v, want %v", f.ID(), f.Path(), want)
				}
			}
		})
	}
	d.Run(horizon)
	t.Logf("%d flows registered, %d closed by subscribers during reroute passes, %d during forced cost moves", len(closed)+len(open), fromPass, fromCost)
	return fromPass, fromCost
}
