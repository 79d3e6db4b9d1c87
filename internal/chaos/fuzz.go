package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"jqos/internal/core"
)

// Profile bounds a fuzzed timeline.
type Profile struct {
	// Horizon is the end of the traffic/fault window. Heal-all lands
	// one second before it; random faults stop two seconds before it.
	// Default (and floor) 8 s.
	Horizon time.Duration
	// Faults is how many random fault events to inject (flaps count as
	// one event but expand to several steps). Default 5.
	Faults int
}

func (p Profile) withDefaults() Profile {
	if p.Horizon < 8*time.Second {
		p.Horizon = 8 * time.Second
	}
	if p.Faults <= 0 {
		p.Faults = 5
	}
	return p
}

// Fuzz derives a randomized fault timeline from a seed, against the
// given DCs and links (typically World.DCs / World.Links). The same
// (seed, profile, topology) produces a byte-identical Timeline — the
// generator draws from its own rand.Source and never consults the
// clock — so a failing seed is a complete reproduction recipe.
//
// Every generated timeline heals: crashed DCs get a timed heal-dc, and
// a final heal step restores every touched link one second before the
// horizon, so the post-run invariants (convergence, drained queues,
// recovered pacers) are legitimately checkable.
func Fuzz(seed int64, p Profile, dcs []core.NodeID, links [][2]core.NodeID) Scenario {
	p = p.withDefaults()
	r := rand.New(rand.NewSource(seed))
	sc := Scenario{Name: fmt.Sprintf("fuzz-%d", seed), Seed: seed}

	lo := 500 * time.Millisecond
	hi := p.Horizon - 2*time.Second
	healAt := p.Horizon - time.Second

	// touched tracks links needing the final heal, in first-touch order
	// (map iteration would scramble the timeline between runs).
	var touchedOrder [][2]core.NodeID
	touchedSet := make(map[[2]core.NodeID]bool)
	touch := func(l [2]core.NodeID) {
		if !touchedSet[l] {
			touchedSet[l] = true
			touchedOrder = append(touchedOrder, l)
		}
	}
	touchDC := func(dc core.NodeID) {
		for _, l := range links {
			if l[0] == dc || l[1] == dc {
				touch(l)
			}
		}
	}
	randAt := func() time.Duration {
		return (lo + time.Duration(r.Int63n(int64(hi-lo)))).Truncate(time.Millisecond)
	}
	randLink := func() [2]core.NodeID { return links[r.Intn(len(links))] }
	// orient returns the link's endpoints in a random order — the
	// asymmetric kinds degrade a random direction.
	orient := func(l [2]core.NodeID) (core.NodeID, core.NodeID) {
		if r.Intn(2) == 0 {
			return l[0], l[1]
		}
		return l[1], l[0]
	}

	for i := 0; i < p.Faults; i++ {
		at := randAt()
		switch roll := r.Intn(100); {
		case roll < 20: // symmetric degrade: 20–100 ms latency, ≤5% loss
			l := randLink()
			touch(l)
			sc.Steps = append(sc.Steps, Step{
				At: at, Kind: StepDegrade, A: l[0], B: l[1],
				Latency: (20 + time.Duration(r.Int63n(80))) * time.Millisecond,
				Loss:    r.Float64() * 0.05,
			})
		case roll < 32: // asymmetric degrade
			l := randLink()
			touch(l)
			a, b := orient(l)
			sc.Steps = append(sc.Steps, Step{
				At: at, Kind: StepDegradeAsym, A: a, B: b,
				Latency: (20 + time.Duration(r.Int63n(80))) * time.Millisecond,
				Loss:    r.Float64() * 0.05,
			})
		case roll < 47: // symmetric partition
			l := randLink()
			touch(l)
			sc.Steps = append(sc.Steps, Step{At: at, Kind: StepPartition, A: l[0], B: l[1]})
		case roll < 57: // asymmetric partition
			l := randLink()
			touch(l)
			a, b := orient(l)
			sc.Steps = append(sc.Steps, Step{At: at, Kind: StepPartitionAsym, A: a, B: b})
		case roll < 72: // bursty loss: 0.5–5% stationary, bursts of 2–8
			l := randLink()
			touch(l)
			sc.Steps = append(sc.Steps, Step{
				At: at, Kind: StepBurstyLoss, A: l[0], B: l[1],
				Loss:      0.005 + r.Float64()*0.045,
				MeanBurst: 2 + float64(r.Intn(7)),
			})
		case roll < 88: // flap faster than the probe hysteresis
			l := randLink()
			touch(l)
			period := (150 + time.Duration(r.Int63n(450))) * time.Millisecond
			cycles := 2 + r.Intn(3)
			for time.Duration(cycles)*period > hi-at && cycles > 1 {
				cycles--
			}
			sc.Steps = append(sc.Steps, Flap(at, l[0], l[1], period, cycles)...)
		default: // crash a DC, heal it 1–2 s later (bounded outage)
			dc := dcs[r.Intn(len(dcs))]
			touchDC(dc)
			healDC := at + time.Second + time.Duration(r.Int63n(int64(time.Second)))
			if healDC > healAt {
				healDC = healAt
			}
			sc.Steps = append(sc.Steps,
				Step{At: at, Kind: StepCrashDC, A: dc},
				Step{At: healDC, Kind: StepHealDC, A: dc})
		}
	}

	// Final heal-all: idempotent per-link restores in first-touch order.
	for _, l := range touchedOrder {
		sc.Steps = append(sc.Steps, Step{At: healAt, Kind: StepHeal, A: l[0], B: l[1]})
	}
	sc.Sort()
	return sc
}
