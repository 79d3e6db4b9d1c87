// Package chaos is the adversarial-network harness: it compiles
// declarative fault timelines (Scenario) into zero-allocation link-model
// swaps against a live jqos.Deployment (Engine), derives randomized but
// fully seeded timelines (Fuzz — same seed, byte-identical Timeline),
// and checks the system invariants that make five interlocking control
// loops trustworthy (invariants.go): routing reconverges after every
// heal, no pacer stays cut once its queues cool, the accounting
// balances, and Flow.Close leaves no receiver/registry/pin state
// behind. cmd/jqos-chaos soaks N seeded runs and reports per-run
// verdicts; the experiments registry exposes the same soak as "chaos".
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"jqos/internal/core"
)

// StepKind enumerates the fault injections a Scenario can script.
type StepKind uint8

const (
	// StepDegrade reshapes the link A↔B in both directions to Latency
	// one-way delay and Loss random loss (Link.Set semantics).
	StepDegrade StepKind = iota
	// StepDegradeAsym reshapes only the A→B direction.
	StepDegradeAsym
	// StepPartition blackholes A↔B in both directions, keeping each
	// direction's current delay process (Link.Disconnect semantics).
	StepPartition
	// StepPartitionAsym blackholes only the A→B direction.
	StepPartitionAsym
	// StepHeal restores A↔B in both directions to the shape ConnectDCs
	// recorded (Link.Reconnect semantics).
	StepHeal
	// StepHealAsym restores only the A→B direction.
	StepHealAsym
	// StepBurstyLoss switches A↔B (both directions, independent chain
	// state) to Gilbert-Elliott loss targeting stationary rate Loss and
	// mean burst length MeanBurst packets; delay is left alone.
	StepBurstyLoss
	// StepCrashDC blackholes every inter-DC link of DC A in both
	// directions — the DC drops off the overlay.
	StepCrashDC
	// StepHealDC restores every inter-DC link of DC A.
	StepHealDC
)

// String implements fmt.Stringer (the Timeline vocabulary).
func (k StepKind) String() string {
	switch k {
	case StepDegrade:
		return "degrade"
	case StepDegradeAsym:
		return "degrade-asym"
	case StepPartition:
		return "partition"
	case StepPartitionAsym:
		return "partition-asym"
	case StepHeal:
		return "heal"
	case StepHealAsym:
		return "heal-asym"
	case StepBurstyLoss:
		return "bursty-loss"
	case StepCrashDC:
		return "crash-dc"
	case StepHealDC:
		return "heal-dc"
	default:
		return fmt.Sprintf("step(%d)", uint8(k))
	}
}

// Step is one timed fault injection. Which fields matter depends on
// Kind; unused fields must be zero (Timeline prints only the meaningful
// ones, so stray values would silently vanish from the reproduction
// record).
type Step struct {
	// At is the simulated time the step applies (relative to the run
	// start; must be ≥ the simulator's clock when the engine schedules).
	At time.Duration
	// A, B name the inter-DC link (B is ignored by StepCrashDC /
	// StepHealDC, which act on every link of A).
	A, B core.NodeID
	Kind StepKind
	// Latency is the one-way delay for the degrade kinds.
	Latency time.Duration
	// Loss is the random loss rate for the degrade kinds, and the
	// target stationary loss rate for StepBurstyLoss.
	Loss float64
	// MeanBurst is StepBurstyLoss's mean loss-burst length in packets.
	MeanBurst float64
}

// describe renders one timeline line. The format is part of the
// reproduction contract: Fuzz determinism is asserted byte-for-byte
// over these lines.
func (s Step) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12v %v", s.At, s.Kind)
	switch s.Kind {
	case StepCrashDC, StepHealDC:
		fmt.Fprintf(&b, " dc%v", s.A)
	default:
		fmt.Fprintf(&b, " %v-%v", s.A, s.B)
	}
	switch s.Kind {
	case StepDegrade, StepDegradeAsym:
		fmt.Fprintf(&b, " lat=%v loss=%.4f", s.Latency, s.Loss)
	case StepBurstyLoss:
		fmt.Fprintf(&b, " rate=%.4f burst=%.1f", s.Loss, s.MeanBurst)
	}
	return b.String()
}

// Scenario is a named, ordered fault timeline.
type Scenario struct {
	Name  string
	Seed  int64 // the seed that derived it (0 for hand-written ones)
	Steps []Step
}

// Sort orders steps by time, stably (authoring order breaks ties — the
// engine applies same-timestamp steps in that order too).
func (sc *Scenario) Sort() {
	sort.SliceStable(sc.Steps, func(i, j int) bool { return sc.Steps[i].At < sc.Steps[j].At })
}

// Horizon returns the time of the last step (0 for an empty scenario).
func (sc Scenario) Horizon() time.Duration {
	var h time.Duration
	for _, s := range sc.Steps {
		if s.At > h {
			h = s.At
		}
	}
	return h
}

// Timeline renders the scenario as deterministic text — one header line
// plus one line per step. Two scenarios derived from the same seed must
// produce byte-identical timelines; a failing run's timeline is the
// whole reproduction recipe.
func (sc Scenario) Timeline() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %q seed=%d steps=%d\n", sc.Name, sc.Seed, len(sc.Steps))
	for _, s := range sc.Steps {
		b.WriteString(s.describe())
		b.WriteByte('\n')
	}
	return b.String()
}

// Flap expands into an explicit partition/heal square wave on the link
// a↔b: cycles repetitions of (partition at start+k·period, heal half a
// period later). Keeping the expansion explicit — rather than a
// stateful "flap" step — means the Timeline alone reproduces the run.
// Periods shorter than the probe fail/recover hysteresis are the
// interesting regime: the monitor sees the link half-detected in both
// directions at once.
func Flap(start time.Duration, a, b core.NodeID, period time.Duration, cycles int) []Step {
	steps := make([]Step, 0, 2*cycles)
	for k := 0; k < cycles; k++ {
		at := start + time.Duration(k)*period
		steps = append(steps,
			Step{At: at, Kind: StepPartition, A: a, B: b},
			Step{At: at + period/2, Kind: StepHeal, A: a, B: b},
		)
	}
	return steps
}
