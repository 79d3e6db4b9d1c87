package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// samples returns the repeated measurements behind one end-to-end metric
// of one run: the five rounds for the per-round host-time metrics, the
// repeated set-ups for setup_s, the single value otherwise.
func (res *result) samples(name string) []float64 {
	switch name {
	case "setup_s":
		return res.SetupS
	case "pkts_per_s", "allocs_per_pkt":
		v := make([]float64, len(res.Rounds))
		for i, r := range res.Rounds {
			if name == "pkts_per_s" {
				v[i] = float64(r.Packets) / r.WallS
			} else {
				v[i] = float64(r.Mallocs) / float64(r.Packets)
			}
		}
		return v
	}
	return []float64{res.Metrics[name]}
}

// paired divides each new sample by the old sample of the same round. The
// rounds of one run differ systematically (state grows as a deployment
// runs), so run-to-run noise shows in these ratios, not in the raw spread.
func paired(old, new []float64) []float64 {
	r := make([]float64, len(old))
	for i := range old {
		r[i] = new[i] / old[i]
	}
	return r
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(med)
}

// allBetter reports whether every new sample beats every old one.
func allBetter(old, new []float64, higher bool) bool {
	for _, o := range old {
		for _, n := range new {
			if higher && n <= o || !higher && n >= o {
				return false
			}
		}
	}
	return true
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// runCompare applies the bounds table to every (metric, workload) row of
// two result documents and returns the process exit code: 1 on a
// regression or a lower delivered_frac, 2 when the documents cannot be
// compared.
func runCompare(oldPath, newPath string) int {
	var docs [2]*document
	for i, path := range []string{oldPath, newPath} {
		doc, err := readDocument(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		docs[i] = doc
	}
	return compareDocuments(docs[0], docs[1])
}

func compareDocuments(oldDoc, newDoc *document) int {
	if oldDoc.Env.Seed != newDoc.Env.Seed || oldDoc.Env.Seconds != newDoc.Env.Seconds {
		fmt.Fprintf(os.Stderr, "compare: seed/seconds differ (%d/%d vs %d/%d): the runs did different work\n",
			oldDoc.Env.Seed, oldDoc.Env.Seconds, newDoc.Env.Seed, newDoc.Env.Seconds)
		return 2
	}
	fmt.Printf("old: %s %s   new: %s %s   seed %d, %d s\n", oldDoc.Env.Commit, oldDoc.Env.GoVersion,
		newDoc.Env.Commit, newDoc.Env.GoVersion, newDoc.Env.Seed, newDoc.Env.Seconds)
	byName := map[string]*report{}
	for _, rep := range oldDoc.Workloads {
		byName[rep.Workload] = rep
	}
	regressed, unresolved, rows := 0, 0, 0
	for _, nr := range newDoc.Workloads {
		or := byName[nr.Workload]
		if or == nil {
			continue
		}
		fmt.Printf("\n== %s\n   %-16s %12s %25s %12s %25s %8s %7s  %s\n", nr.Workload,
			"metric", "old median", "[q1, q3]", "new median", "[q1, q3]", "worse", "bound", "verdict")
		for _, d := range endToEnd {
			o, n := or.Untraced.samples(d.name), nr.Untraced.samples(d.name)
			om, nm := median(o), median(n)
			higher := d.better == "higher"
			worse := (nm - om) / math.Abs(om)
			if higher {
				worse = -worse
			}
			noise := math.Max(spread(o), spread(n))
			if d.name != "setup_s" && len(o) == len(n) && len(o) > 1 {
				noise = spread(paired(o, n))
			}
			verdict := "unchanged"
			switch {
			case worse > d.bound:
				verdict = "REGRESSED"
				regressed++
			case d.name == "delivered_frac" && nm < om*(1-reproFloor):
				verdict = "REGRESSED (delivers less)"
				regressed++
			case noise > d.bound:
				if allBetter(o, n, higher) {
					verdict = "improved"
				} else {
					verdict = "unresolved (spread exceeds bound)"
					unresolved++
				}
			case worse < -d.bound:
				verdict = "improved"
			}
			rows++
			fmt.Printf("   %-16s %12.6g %25s %12.6g %25s %+7.2f%% %6.1f%%  %s\n", d.name,
				om, quartiles(o), nm, quartiles(n), 100*worse, 100*d.bound, verdict)
		}
		differ := 0
		if wl, err := workloadByName(nr.Workload); err != nil || !wl.exact {
			continue // not bit-reproducible: its counts differ between any two runs
		}
		for _, k := range sortedKeys(nr.Untraced.Counts) {
			if nr.Untraced.Counts[k] != or.Untraced.Counts[k] && !inexact[k] {
				if differ == 0 {
					fmt.Print("   exact counts that differ:")
				}
				differ++
				fmt.Printf(" %s (%g → %g)", k, or.Untraced.Counts[k], nr.Untraced.Counts[k])
			}
		}
		if differ > 0 {
			fmt.Println()
		}
	}
	fmt.Printf("\n%d rows: %d regressed, %d unresolved\n", rows, regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

// reproFloor is how far two runs of one commit and seed can differ on the
// worlds that are not bit-reproducible; a lower delivered_frac counts only
// beyond it.
const reproFloor = 1e-4

// inexact are the entries of a run's Counts that do not repeat exactly
// for a seed even on a bit-reproducible world: they depend on wall time,
// on the allocator, or on the order simultaneous timer events fire in.
var inexact = map[string]bool{
	"netem.events_per_s": true, "jqos.round_slowdown": true, "jqos.alloc_bytes_per_pkt": true,
	"netem.events_per_pkt": true, "netem.pending_mean": true,
}

func quartiles(v []float64) string {
	if len(v) < 2 {
		return "-"
	}
	return fmt.Sprintf("[%.6g, %.6g]", quantile(v, 0.25), quantile(v, 0.75))
}
