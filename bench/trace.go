package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Spans are recorded from the benchmark's own files, around its calls
// into the system: the driver's Run slices, Flow.Send, RegisterFlow,
// Close and Snapshot calls, and (through wrapHandlers) every DC and host
// handler invocation. They stay in memory and are written out only after
// the run ends.

type spanKind uint8

const (
	spanRun      spanKind = iota // one Deployment.Run(tick) slice
	spanSend                     // Flow.Send
	spanDC                       // DCNode.handle, child of a Run slice
	spanHost                     // Host.handle, child of a Run slice
	spanRegister                 // Deployment.RegisterFlow
	spanClose                    // Flow.Close
	spanSnapshot                 // Deployment.Snapshot
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"run", "flow_send", "dc_handle", "host_handle", "register_flow", "flow_close", "snapshot"}

// span is one timed interval; times are ns since the recorder's base.
// parent indexes the enclosing Run slice (-1 for the driver's own
// top-level calls); id is the round.
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
	id         uint8
}

type spanRecorder struct {
	base   time.Time
	spans  []span
	curRun int32
	round  uint8
	// on gates recording: spans are kept for the timed round only, but
	// the wrapped handlers stay installed during warm-up and drain.
	on bool
}

func newSpanRecorder(capacity int) *spanRecorder {
	return &spanRecorder{base: time.Now(), spans: make([]span, 0, capacity), curRun: -1}
}

// A nil recorder is the untraced run: it reads no clock and keeps nothing,
// so the driver's call sites are the same in both runs.
func (r *spanRecorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.base))
}

// add closes a span that began at t0.
func (r *spanRecorder) add(kind spanKind, t0 int64) {
	if r == nil || !r.on {
		return
	}
	parent := int32(-1)
	if kind == spanDC || kind == spanHost {
		parent = r.curRun
	}
	r.spans = append(r.spans, span{start: t0, end: r.now(), parent: parent, kind: kind, id: r.round})
}

// beginRun opens a Run slice; handler spans recorded until endRun are
// its children.
func (r *spanRecorder) beginRun() {
	if r != nil && r.on {
		r.curRun = int32(len(r.spans))
		r.spans = append(r.spans, span{start: r.now(), parent: -1, kind: spanRun, id: r.round})
	}
}

func (r *spanRecorder) endRun() {
	if r != nil && r.curRun >= 0 {
		r.spans[r.curRun].end = r.now()
		r.curRun = -1
	}
}

// spanTotals is the per-kind aggregate of one traced round.
type spanTotals struct {
	ns    [numSpanKinds]int64
	calls [numSpanKinds]int64
	// durs keeps the individual durations of the rare driver calls
	// (register, close, snapshot) for their percentiles.
	durs [numSpanKinds][]float64
}

func (r *spanRecorder) totals() spanTotals {
	var t spanTotals
	for i := range r.spans {
		s := &r.spans[i]
		d := s.end - s.start
		t.ns[s.kind] += d
		t.calls[s.kind]++
		if s.kind >= spanRegister {
			t.durs[s.kind] = append(t.durs[s.kind], float64(d))
		}
	}
	return t
}

// runSelfNs is the Run slices' self time: their duration minus the
// handler spans inside them (timers, pumps, probers and the event heap).
func (t *spanTotals) runSelfNs() int64 {
	return t.ns[spanRun] - t.ns[spanDC] - t.ns[spanHost]
}

// writeSpans dumps the spans as JSON lines: name, start, end, parent, id.
func (r *spanRecorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for i := range r.spans {
		s := &r.spans[i]
		rec := struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			ID     uint8  `json:"id"`
		}{spanNames[s.kind], s.start, s.end, s.parent, s.id}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
