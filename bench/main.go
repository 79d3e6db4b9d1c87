// Command bench is this repository's benchmark: five fixed-seed overlay
// workloads, ten end-to-end metrics, and a per-layer ledger built from the
// outside (spans around the driver's own calls, exact counts from public
// accessors, isolated drivers). See README.md.
//
//	go run ./bench                           all workloads, end-to-end + per-layer
//	go run ./bench -workload coding_mtu      one workload
//	go run ./bench -trace 0|1                end-to-end only | per-layer only
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// environment is recorded in every output document.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// document is what -out writes and -compare reads.
type document struct {
	Env       environment `json:"env"`
	Workloads []*report   `json:"workloads"`
}

func commit() string {
	// Only ask git inside a work tree: a bare checkout must not make git
	// search the directories above it.
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all five)")
		seed    = flag.Int64("seed", 1, "workload seed: simulator RNG and the driver's own placement draws")
		seconds = flag.Int("seconds", refSeconds, "target wall time of the five timed rounds at seed-state speed; the simulated work is fixed by it")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		traced  = flag.Bool("traced", false, "same as -trace 1")
		out     = flag.String("out", "", "write the full result document (and FILE.spans.jsonl for traced runs) here")
		compare = flag.Bool("compare", false, "compare two result documents: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	if *traced {
		*trace = 1
	}
	if flag.NArg() != 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	e2e, layers := *trace != 1, *trace != 0

	run := workloads
	if *name != "" {
		wl, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		run = []*workload{wl}
	}
	doc := document{Env: environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds,
	}}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d\n",
		doc.Env.NumCPU, doc.Env.GOMAXPROCS, doc.Env.GoVersion, doc.Env.Commit, *seed, *seconds)

	failed := false
	for _, wl := range run {
		rep, err := benchWorkload(wl, *seed, float64(*seconds), e2e, layers)
		doc.Workloads = append(doc.Workloads, rep)
		rep.print(e2e, layers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "FAIL:", err)
			failed = true
		}
	}
	if *out != "" {
		if err := writeDocument(*out, &doc); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	// The last line of standard output is the machine-readable result of
	// the (last) workload run.
	fmt.Println(doc.Workloads[len(doc.Workloads)-1].resultLine(layers && !e2e))
}

func writeDocument(path string, doc *document) error {
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	for _, rep := range doc.Workloads {
		if rep.spans == nil {
			continue
		}
		if err := rep.spans.writeSpans(fmt.Sprintf("%s.%s.spans.jsonl", path, rep.Workload)); err != nil {
			return err
		}
	}
	return nil
}

// resultLine is the one-line JSON object the benchmark contract asks for:
// the per-layer metrics of a -trace 1 run, the end-to-end metrics otherwise.
func (rep *report) resultLine(layerLine bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, rep.Untraced.Metrics
	if layerLine {
		defs, vals = perLayer, rep.Layers
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{vals[d.name], d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Untraced.Correct, rep.Untraced.Sent, rep.Untraced.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

func (rep *report) print(e2e, layers bool) {
	res := rep.Untraced
	fmt.Printf("\n== %s (seed %d): %s\n", rep.Workload, res.Seed, rep.Why)
	fmt.Printf("   %d packets over %.1f simulated s, %d latency samples, %d set-ups; checks %s; calib %.2f → %.2f ms\n",
		res.Sent, res.SimS, res.Samples, len(res.SetupS), passed(res.Correct), rep.CalibMs[0], rep.CalibMs[1])
	fmt.Print("   rounds:")
	for _, r := range res.Rounds {
		fmt.Printf(" %.3fs", r.WallS)
	}
	fmt.Println()
	for _, f := range res.Flows {
		fmt.Printf("   flow %2d %-10s %4d B @%4.0f/s: sent %7d delivered %7d on time %7d, max gap %8.2f ms\n",
			f.ID, f.Service, f.Payload, f.PerSecond, f.Sent, f.Delivered, f.OnTime, f.MaxGapMs)
	}
	if e2e {
		for _, d := range endToEnd {
			fmt.Printf("   %-18s %14.6g %-10s (%s is better, bound %g)\n", d.name, res.Metrics[d.name], d.unit, d.better, d.bound)
		}
	}
	if layers && rep.Layers != nil {
		fmt.Printf("   -- per layer (traced round: %d packets, spans cover %.1f %% of its wall time)\n",
			rep.Traced.Sent, 100*rep.Coverage)
		for _, d := range perLayer {
			fmt.Printf("   %-32s %14.6g %s\n", d.name, rep.Layers[d.name], d.unit)
		}
		fmt.Printf("   -- ledger: %.0f ns/pkt end to end\n", 1e9/res.Metrics["pkts_per_s"])
		fmt.Printf("   %-40s %10s %10s %10s %7s\n", "layer", "ops/pkt", "ns/op", "ns/pkt", "share")
		for _, row := range rep.Ledger {
			fmt.Printf("   %-40s %10.3f %10.1f %10.1f %6.1f%%\n", row.Layer, row.OpsPkt, row.NsOp, row.NsPkt, row.SharePct)
		}
	}
	for _, w := range rep.Warnings {
		fmt.Println("   WARNING:", w)
	}
}

func passed(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}

// sortedKeys is used wherever a map is printed.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
