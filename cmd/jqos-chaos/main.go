// Command jqos-chaos soaks the deployment under seeded chaos: each run
// builds the canonical 4-DC chaos world, fuzzes a fault timeline from
// its seed (run i uses -seed+i), injects it, and checks the system
// invariants — routing reconvergence after every heal, drained queues
// and recovered pacers at quiesce, balanced accounting across flows,
// links, and the control-loop trace, and zero leaked state after
// Flow.Close.
//
// Usage:
//
//	jqos-chaos -runs 100 -seed 1              # CI smoke / acceptance
//	jqos-chaos -runs 2000 -seed 1 -out art/   # nightly soak with artifacts
//	jqos-chaos -runs 1 -seed 1337 -v          # reproduce one failing seed
//
// Every failing run prints its violations and full fault timeline (the
// timeline plus the seed is a complete reproduction recipe), and with
// -out also writes the verdict — timeline, violations, and the final
// pre-teardown telemetry snapshot — to <out>/seed-<seed>.json. Exits 1
// if any run violates an invariant, 2 on harness errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"jqos/internal/chaos"
)

func main() {
	var (
		runs    = flag.Int("runs", 25, "number of seeded runs; run i uses seed+i")
		seed    = flag.Int64("seed", 1, "base seed")
		horizon = flag.Duration("horizon", 0, "per-run fault/traffic window (0 = default 8s)")
		faults  = flag.Int("faults", 0, "fault events per fuzzed timeline (0 = default 5)")
		out     = flag.String("out", "", "directory for failing runs' verdict JSON (timeline + snapshot)")
		verbose = flag.Bool("v", false, "print one verdict line per run")
	)
	flag.Parse()

	o := chaos.SoakOptions{
		Runs:    *runs,
		Seed:    *seed,
		Profile: chaos.Profile{Horizon: *horizon, Faults: *faults},
	}
	if *verbose {
		o.Log = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}

	start := time.Now()
	rep := chaos.Soak(o)
	if rep.Err != nil {
		fmt.Fprintf(os.Stderr, "jqos-chaos: harness error: %v\n", rep.Err)
		os.Exit(2)
	}

	fmt.Printf("jqos-chaos: %d runs (seeds %d..%d) in %v: %d delivered, %d reroutes, %d flow signals, %d rate cuts, %d/%d slo degrades/recovers (%d during-fault checks), %d failing runs\n",
		rep.Runs, o.Seed, o.Seed+int64(rep.Runs)-1, time.Since(start).Round(time.Millisecond),
		rep.Delivered, rep.Reroutes, rep.FlowSignals, rep.RateCuts,
		rep.SLODegrades, rep.SLORecovers, rep.SLOChecks, len(rep.Failures))

	for _, v := range rep.Failures {
		fmt.Printf("\nFAIL seed %d (run %d): %d violations\n", v.Seed, v.Run, len(v.Violations))
		for _, viol := range v.Violations {
			fmt.Printf("  %v\n", viol)
		}
		fmt.Printf("reproduce: jqos-chaos -runs 1 -seed %d -v\n%s", v.Seed, v.Timeline)
		if *out != "" {
			if err := writeVerdict(*out, v); err != nil {
				fmt.Fprintf(os.Stderr, "jqos-chaos: writing artifact: %v\n", err)
				os.Exit(2)
			}
		}
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

func writeVerdict(dir string, v chaos.Verdict) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("seed-%d.json", v.Seed))
	return os.WriteFile(name, append(data, '\n'), 0o644)
}
