package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// tiny is 1/50 of the nominal run length.
const tiny = refSeconds / 50.0

// simulated are the end-to-end metrics that do not depend on host time.
var simulated = []string{"delivered_frac", "on_time_frac", "latency_p50_ms", "latency_p99_ms", "cloud_overhead", "max_gap_ms"}

// TestWorkloadsSmoke runs every workload twice at 1/50 scale: each must
// pass its output checks, and two runs of one seed must agree — exactly on
// the bit-reproducible worlds, to 0.1 % on the other two.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		var a, b report
		if err := a.run(wl, 1, tiny, false, false); err != nil {
			t.Fatal(err)
		}
		if err := b.run(wl, 1, tiny, false, false); err != nil {
			t.Fatal(err)
		}
		ra, rb := a.Untraced, b.Untraced
		if ra.Sent == 0 || ra.Samples == 0 {
			t.Errorf("%s: sent %d packets, %d latency samples", wl.name, ra.Sent, ra.Samples)
		}
		if !ra.Check.matches(rb.Check, wl.exact) {
			t.Errorf("%s: same seed, different runs: %+v vs %+v", wl.name, ra.Check, rb.Check)
		}
		if !wl.exact {
			continue
		}
		for _, name := range simulated {
			if ra.Metrics[name] != rb.Metrics[name] {
				t.Errorf("%s: %s differs between two runs of seed 1: %v vs %v", wl.name, name, ra.Metrics[name], rb.Metrics[name])
			}
		}
		for k, v := range ra.Counts {
			if !inexact[k] && v != rb.Counts[k] {
				t.Errorf("%s: count %s differs between two runs of seed 1: %v vs %v", wl.name, k, v, rb.Counts[k])
			}
		}
	}
}

// TestTracedRun exercises the traced round, the isolated drivers and the
// ledger on the workload that also registers, closes and snapshots.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("isolated drivers take about a second")
	}
	wl, err := workloadByName("flow_churn")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := benchWorkload(wl, 2, tiny, false, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if _, ok := rep.Layers[d.name]; !ok {
			t.Errorf("per-layer metric %s was not reported", d.name)
		}
	}
	if len(rep.Layers) != len(perLayer) {
		t.Errorf("%d per-layer values reported, %d defined", len(rep.Layers), len(perLayer))
	}
	if rep.Coverage < 0.5 || rep.Coverage > 1.001 {
		t.Errorf("spans cover %.3f of the traced round", rep.Coverage)
	}
	for _, name := range []string{"jqos.register_us_p50", "jqos.close_us_p50", "telemetry.snapshot_us_p50", "netem.event_ns"} {
		if rep.Layers[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, rep.Layers[name])
		}
	}
}

// deprecated are the root package's 17 "Deprecated:" identifiers. The
// ROADMAP deletion pass removes them, so no workload may depend on one.
var deprecated = map[string]bool{
	"Register": true, "RegisterMulticast": true, "RegisterOption": true,
	"WithService": true, "WithInternetAllowed": true, "WithPathSwitch": true, "WithDuplication": true,
	"SetLinkQuality": true, "SetLinkQualityAsym": true,
	"DisconnectDCs": true, "DisconnectDCsOneWay": true, "ReconnectDCs": true, "ReconnectDCsOneWay": true,
	"LinkLoad": true, "SchedStats": true, "FeedbackStats": true, "RoutingStats": true,
}

// TestAPISurface scans the benchmark's own sources: no deprecated root
// API, no chaos harness, and jqos/internal/* named only by the two files
// that exist for that purpose.
func TestAPISurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "jqos/internal/chaos" {
				t.Errorf("%s imports %s: the benchmark owns its world and fault timeline", name, path)
			}
			if strings.HasPrefix(path, "jqos/internal/") && name != "layers.go" && name != "seams.go" {
				t.Errorf("%s imports %s: internal packages belong in layers.go or seams.go", name, path)
			}
		}
		// internal/tenant's Registry.Register(contract, pacer) shares a
		// name with the deprecated positional Deployment.Register, which
		// takes at least three arguments.
		tenantRegister := map[token.Pos]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Register" && len(n.Args) < 3 {
					tenantRegister[sel.Pos()] = true
				}
			case *ast.SelectorExpr:
				if deprecated[n.Sel.Name] && !tenantRegister[n.Pos()] {
					t.Errorf("%s uses deprecated %s", fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestBenchmarkJSON checks names and limits, and that BENCHMARK.json at
// the repository root and the tables in this package say the same thing.
func TestBenchmarkJSON(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, wl := range workloads {
		check(wl.name)
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", wl.name, len(wl.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") || d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %s: unit %q, better %q, bound %v", d.name, d.unit, d.better, d.bound)
		}
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the package %q", i, spec.Workloads[i].Name, wl.name)
		}
	}
	same := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the package %d", len(js), kind, len(defs))
		}
		for i, d := range defs {
			j := js[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || (j.Bound != nil) != bounded ||
				(bounded && *j.Bound != d.bound) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the package %+v", kind, i, j, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

// TestCompare checks the verdicts -compare gives.
func TestCompare(t *testing.T) {
	mk := func(pps float64, delivered float64) *document {
		res := &result{SetupS: []float64{1, 1, 1}, Metrics: map[string]float64{}, Counts: map[string]float64{}}
		for _, d := range endToEnd {
			res.Metrics[d.name] = 1
		}
		res.Metrics["delivered_frac"] = delivered
		for i := 0; i < rounds; i++ {
			res.Rounds = append(res.Rounds, roundStat{WallS: 1000 / pps, Packets: 1000, Mallocs: 30000})
		}
		return &document{Workloads: []*report{{Workload: "w", Untraced: res}}}
	}
	base := mk(10000, 1)
	for _, tc := range []struct {
		name string
		doc  *document
		want int
	}{
		{"identical", mk(10000, 1), 0},
		{"within bound", mk(9700, 1), 0},
		{"slower", mk(7000, 1), 1},
		{"faster", mk(12000, 1), 0},
		{"delivers less", mk(10000, 0.9995), 1},
	} {
		if got := compareDocuments(base, tc.doc); got != tc.want {
			t.Errorf("%s: compare exit code %d, want %d", tc.name, got, tc.want)
		}
	}
	other := mk(10000, 1)
	other.Env.Seed = 2
	if got := compareDocuments(base, other); got != 2 {
		t.Errorf("different seeds: compare exit code %d, want 2", got)
	}
}
