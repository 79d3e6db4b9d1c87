package main

// seams.go is one of the two files allowed to name jqos/internal/*
// (layers.go is the other). It holds what the workloads cannot get from
// the root package alone: the netem models and dataset regions the root
// API takes as arguments, the link-health state test, and the handler
// interposition the traced run records spans with. An internal signature
// change therefore touches this file or layers.go, never a workload.

import (
	"time"

	"jqos"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/routing"
	"jqos/internal/telemetry"
)

// regions are the DC placements in creation order (dataset.AllRegions).
func regions() []dataset.Region { return dataset.AllRegions }

// directPath installs the best-effort Internet path src→dst: uniform
// jitter around base, Gilbert-Elliott loss with the given rate and mean
// burst length.
func directPath(d *jqos.Deployment, src, dst jqos.NodeID, base, jitter time.Duration, lossRate, meanBurst float64) {
	d.SetDirectPath(src, dst,
		netem.UniformJitter{Base: base, Jitter: jitter},
		netem.NewGilbertElliott(lossRate, meanBurst))
}

// linkLeftUp reports whether the monitor no longer considers a↔b healthy.
func linkLeftUp(d *jqos.Deployment, a, b jqos.NodeID) bool {
	h, ok := d.Link(a, b).Health()
	return ok && h.State != routing.LinkUp
}

// wrapHandlers interposes on every listed node's network handler so each
// DCNode.handle / Host.handle invocation becomes one span of the given
// kind. Timers and pumps the nodes arm stay inside the enclosing Run
// slice's self time.
func wrapHandlers(d *jqos.Deployment, ids []jqos.NodeID, kind spanKind, rec *spanRecorder) {
	nw := d.Network()
	for _, id := range ids {
		inner := nw.NodeHandler(id)
		nw.AddNode(id, func(from, to jqos.NodeID, data []byte) {
			t0 := rec.now()
			inner(from, to, data)
			rec.add(kind, t0)
		})
	}
}

// jqosSnapshot names the type Deployment.Snapshot returns, so the other
// files can pass it around without importing it.
type jqosSnapshot = telemetry.Snapshot
