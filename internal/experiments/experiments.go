// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment is a named, seeded function returning
// one or more figures (CDF/CCDF series plus headline notes); the
// cmd/jqos-figures binary renders them as CSV and ASCII plots. Same seed →
// identical output for every experiment but "10", which measures encoder
// throughput on the wall clock (testdata/golden holds the rest).
package experiments

import (
	"fmt"
	"sort"

	"jqos/internal/stats"
)

// Options controls an experiment run.
type Options struct {
	// Seed drives every random process; same seed → identical output
	// (fig 10 excepted: it times real encodes).
	Seed int64
	// Quick shrinks workloads for CI/tests (fewer paths, shorter calls,
	// fewer requests). Figures keep their shape but with more noise.
	Quick bool
	// SnapshotDir, when set, makes deployment-based experiments write
	// their featured run's final telemetry snapshot (indented JSON, as
	// served by telemetry.Serve's /snapshot) to <dir>/<id>.json — the
	// artifacts CI uploads alongside the figures.
	SnapshotDir string
}

// Result is one experiment's output.
type Result struct {
	Figures []stats.Figure
}

// Experiment is a registered, runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string // e.g. "7a", "8c", "cost"
	Title string
	Run   func(Options) (Result, error)
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// msOf converts a duration-valued sample to milliseconds.
func msOf(d float64) float64 { return d / 1e6 }
