// Command jqos-stat inspects a deployment's telemetry: it pretty-prints
// the unified snapshot from a live exposition endpoint (telemetry.Serve)
// or a saved JSON file, tails the control-loop event trace, and
// validates Prometheus text exposition output.
//
// Usage:
//
//	jqos-stat -addr 127.0.0.1:8077            # fetch /snapshot, print summary
//	jqos-stat -addr 127.0.0.1:8077 -json      # re-emit the snapshot as JSON
//	jqos-stat -addr 127.0.0.1:8077 -tail      # follow /trace, one line per event
//	jqos-stat -file fairshare.json            # summarize a saved snapshot
//	jqos-stat -checkmetrics metrics.txt       # validate Prometheus text format
//	jqos-stat -demo -listen 127.0.0.1:8077    # serve a demo deployment's telemetry
//
// The -demo mode builds a small two-DC deployment with scheduling and
// congestion feedback enabled, runs a few seconds of contending traffic,
// publishes the final snapshot, and serves it — a self-contained target
// for smoke tests (CI curls /metrics and /snapshot against it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"jqos"
	"jqos/internal/netem"
	"jqos/internal/telemetry"
	"jqos/internal/worlds"
)

func main() {
	var (
		addr     = flag.String("addr", "", "live exposition endpoint (host:port) to read from")
		file     = flag.String("file", "", "saved snapshot JSON file to read instead of -addr")
		jsonOut  = flag.Bool("json", false, "emit the snapshot as indented JSON instead of a summary")
		tail     = flag.Bool("tail", false, "follow the trace endpoint, printing one line per event (requires -addr)")
		interval = flag.Duration("interval", time.Second, "poll interval for -tail")
		checkm   = flag.String("checkmetrics", "", "validate a Prometheus text exposition file and exit")
		demo     = flag.Bool("demo", false, "build a demo deployment and serve its telemetry (requires -listen)")
		listen   = flag.String("listen", "", "listen address for -demo (e.g. 127.0.0.1:8077)")
	)
	flag.Parse()

	switch {
	case *checkm != "":
		checkMetricsFile(*checkm)
	case *demo:
		runDemo(*listen)
	case *tail:
		if *addr == "" {
			fatal("jqos-stat: -tail requires -addr")
		}
		tailTrace(*addr, *interval)
	case *addr != "" || *file != "":
		snap := loadSnapshot(*addr, *file)
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				fatal("jqos-stat: encode: %v", err)
			}
			return
		}
		fmt.Print(snap.Summary())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// loadSnapshot reads a telemetry.Snapshot from a live endpoint's
// /snapshot or from a saved JSON file — the round-trip check: whatever
// the deployment serialized must decode back into the same struct.
func loadSnapshot(addr, file string) *telemetry.Snapshot {
	var r io.ReadCloser
	switch {
	case addr != "":
		resp, err := http.Get("http://" + addr + "/snapshot")
		if err != nil {
			fatal("jqos-stat: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			fatal("jqos-stat: %s/snapshot: %s", addr, resp.Status)
		}
		r = resp.Body
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			fatal("jqos-stat: %v", err)
		}
		r = f
	default:
		fatal("jqos-stat: need -addr or -file")
	}
	defer r.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		fatal("jqos-stat: decode snapshot: %v", err)
	}
	return &snap
}

// tailTrace follows /trace, printing each event once (tracked by Seq).
func tailTrace(addr string, interval time.Duration) {
	var since uint64
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/trace?since=%d", addr, since))
		if err != nil {
			fatal("jqos-stat: %v", err)
		}
		var events []telemetry.Event
		err = json.NewDecoder(resp.Body).Decode(&events)
		resp.Body.Close()
		if err != nil {
			fatal("jqos-stat: decode trace: %v", err)
		}
		for _, e := range events {
			fmt.Println(e.Describe())
			since = e.Seq
		}
		time.Sleep(interval)
	}
}

// checkMetricsFile validates Prometheus text exposition format and
// reports the sample count — the CI smoke test's /metrics parser.
func checkMetricsFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal("jqos-stat: %v", err)
	}
	defer f.Close()
	n, err := telemetry.ParseMetrics(f)
	if err != nil {
		fatal("jqos-stat: %s: %v", path, err)
	}
	fmt.Printf("%s: %d samples OK\n", path, n)
}

// runDemo builds a small contended deployment, runs it, publishes the
// final snapshot, and serves the telemetry endpoints until killed.
func runDemo(listen string) {
	if listen == "" {
		fatal("jqos-stat: -demo requires -listen")
	}
	cfg := worlds.ContendedConfig()
	cfg.Feedback.Enabled = true
	// Exercise the full observability surface: the continuous SLO engine
	// and (below, per flow) hop-level latency attribution.
	cfg.Telemetry.SLO = telemetry.SLOConfig{
		Objective:  0.9,
		FastWindow: 500 * time.Millisecond,
		SlowWindow: 2 * time.Second,
	}
	dep, dc1, dc2 := worlds.Paper(7, cfg)
	src, dst := worlds.HostPair(dep, dc1, dc2)
	dep.SetDirectPath(src, dst,
		netem.UniformJitter{Base: 50 * time.Millisecond, Jitter: 2 * time.Millisecond},
		netem.Bernoulli{P: 0.02})
	bulkSrc, bulkDst := worlds.HostPair(dep, dc1, dc2)
	dep.SetDirectPath(bulkSrc, bulkDst,
		netem.UniformJitter{Base: 50 * time.Millisecond, Jitter: 2 * time.Millisecond}, nil)

	// Two tenants so the snapshot (and its summary) carries the
	// per-tenant section the CI smoke test greps for.
	if err := dep.RegisterTenant(jqos.TenantContract{
		ID: 1, Name: "interactive-co", Rate: 256 << 10, Burst: 32 << 10,
	}); err != nil {
		fatal("jqos-stat: tenant: %v", err)
	}
	if err := dep.RegisterTenant(jqos.TenantContract{
		ID: 2, Name: "bulk-co", Rate: 512 << 10, Burst: 32 << 10,
		CostCeilingPerGB: 100,
	}); err != nil {
		fatal("jqos-stat: tenant: %v", err)
	}

	interactive, err := dep.RegisterFlow(jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 200 * time.Millisecond,
		Rate: 64 << 10, Burst: 16 << 10,
		Tenant:        1,
		TraceSampling: 0.1,
	})
	if err != nil {
		fatal("jqos-stat: register: %v", err)
	}
	bulk, err := dep.RegisterFlow(jqos.FlowSpec{
		Src: bulkSrc, Dst: bulkDst, Budget: 2 * time.Second,
		Service: jqos.ServiceCaching, ServiceFixed: true,
		Tenant: 2,
	})
	if err != nil {
		fatal("jqos-stat: register: %v", err)
	}

	payload := make([]byte, 1200)
	for i := 0; i < 3000; i++ {
		interactive.Send(payload[:200])
		bulk.Send(payload)
		dep.Run(2 * time.Millisecond)
	}
	dep.RunUntilQuiet()
	dep.Snapshot()

	srv, err := telemetry.Serve(listen, dep)
	if err != nil {
		fatal("jqos-stat: serve: %v", err)
	}
	fmt.Printf("jqos-stat demo serving on %s (metrics, snapshot, trace, debug/pprof)\n", srv.URL())
	select {} // serve until killed
}
