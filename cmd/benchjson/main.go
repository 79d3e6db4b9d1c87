// Command benchjson converts `go test -bench` text output into a stable
// JSON artifact and gates allocation regressions against a committed
// baseline. CI runs the hot-path benchmarks with -benchmem -count=N,
// pipes the output here, uploads the JSON as a build artifact, and fails
// the job when any benchmark's allocs/op regresses.
//
// Usage:
//
//	go test -run='^$' -bench='...' -benchmem -benchtime=100x -count=5 ./... | tee bench.txt
//	go run ./cmd/benchjson -in bench.txt -out BENCH.json -baseline BENCH_BASELINE.json
//
// Repeated runs of the same benchmark (-count) aggregate to the minimum
// ns/op (the least-noise estimate) and the maximum allocs/op (the
// conservative one). Only allocs/op is gated: it is deterministic for
// deterministic code, while ns/op varies with the runner and is recorded
// for information only. The gate allows a small slack (-slack, plus 2%)
// so allocator-accounting differences between Go toolchains do not flag
// phantom regressions — except on 0-alloc baselines, which are exact
// everywhere and gated strictly: one new allocation on an
// allocation-free hot path fails the job.
//
// A baseline benchmark the run no longer emits fails HARDER than a
// regression (exit 2, "MISSING"): the benchmark was renamed, deleted,
// or fell out of the CI -bench regex, and until the baseline and regex
// are updated together its alloc budget is silently unenforced.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	// Runs is how many repeats (-count × sub-benchmarks collapsing to
	// the same name) the aggregate covers.
	Runs int `json:"runs"`
}

func main() {
	in := flag.String("in", "", "bench output file ('-' or empty = stdin)")
	out := flag.String("out", "", "JSON artifact to write (empty = stdout)")
	baseline := flag.String("baseline", "", "baseline JSON to gate allocs/op against (empty = no gate)")
	slack := flag.Uint64("slack", 2, "absolute allocs/op slack on top of the 2% relative allowance")
	flag.Parse()

	src := os.Stdin
	if *in != "" && *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	results, err := parseBench(src)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark lines found (did the run use -benchmem?)"))
	}

	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal(err)
	}

	if *baseline == "" {
		return
	}
	base, err := readBaseline(*baseline)
	if err != nil {
		fatal(err)
	}
	regressions, missing := compare(base, results, *slack)
	for _, m := range missing {
		fmt.Fprintln(os.Stderr, "MISSING:", m)
	}
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "REGRESSION:", r)
	}
	// A baseline benchmark the run no longer emits is a HOLE in the
	// gate, not a measurement: the benchmark was renamed or deleted (or
	// the CI -bench regex no longer matches it) and its alloc budget is
	// silently unenforced. That is a configuration error — exit 2, the
	// same class as an unreadable input — so it can never be mistaken
	// for (or drowned out by) an ordinary regression.
	if len(missing) > 0 {
		fatal(fmt.Errorf("baseline %s names %d benchmark(s) this run did not emit — renamed/deleted, or the -bench regex no longer matches; update the baseline and the CI regex together", *baseline, len(missing)))
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d allocation regression(s) vs %s\n", len(regressions), *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within baseline %s\n", len(results), *baseline)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(2)
}

// parseBench extracts Benchmark lines from `go test -bench` output.
// A line looks like:
//
//	BenchmarkMeter-8   100   123.4 ns/op   0 B/op   0 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so artifacts compare across
// runner shapes. Lines without an allocs/op column (missing -benchmem)
// still record ns/op.
func parseBench(src interface{ Read([]byte) (int, error) }) (map[string]*Result, error) {
	results := make(map[string]*Result)
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var ns float64
		var allocs uint64
		var haveNs bool
		for i := 2; i < len(fields); i++ {
			switch fields[i] {
			case "ns/op":
				if v, err := strconv.ParseFloat(fields[i-1], 64); err == nil {
					ns, haveNs = v, true
				}
			case "allocs/op":
				if v, err := strconv.ParseUint(fields[i-1], 10, 64); err == nil {
					allocs = v
				}
			}
		}
		if !haveNs {
			continue
		}
		r, ok := results[name]
		if !ok {
			results[name] = &Result{NsPerOp: ns, AllocsPerOp: allocs, Runs: 1}
			continue
		}
		if ns < r.NsPerOp {
			r.NsPerOp = ns
		}
		if allocs > r.AllocsPerOp {
			r.AllocsPerOp = allocs
		}
		r.Runs++
	}
	return results, sc.Err()
}

func readBaseline(path string) (map[string]*Result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	base := make(map[string]*Result)
	if err := json.Unmarshal(blob, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

// compare gates got against base: every baseline benchmark must not
// allocate more than baseline + slack + 2%. A 0-alloc baseline gets no
// slack at all — allocation-free is a portable, exact property, and
// the slack exists only to absorb toolchain noise on already-allocating
// paths. Baseline benchmarks the run did not emit come back separately
// in missing: a vanished benchmark is a gate hole, and the caller must
// fail harder on it than on a regression, not fold it into the same
// list where a wall of regressions could bury it.
func compare(base, got map[string]*Result, slack uint64) (regressions, missing []string) {
	for name, b := range base {
		g, ok := got[name]
		if !ok {
			missing = append(missing, fmt.Sprintf("%s: named in the baseline but not emitted by this run", name))
			continue
		}
		limit := b.AllocsPerOp + slack + b.AllocsPerOp/50
		if b.AllocsPerOp == 0 {
			limit = 0
		}
		if g.AllocsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf("%s: %d allocs/op, baseline %d (limit %d)",
				name, g.AllocsPerOp, b.AllocsPerOp, limit))
		}
	}
	return regressions, missing
}
