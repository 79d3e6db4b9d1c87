package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Source is what the exposition server reads: the most recently
// PUBLISHED snapshot (never built on demand — snapshot building walks
// simulator-owned state and must stay on the simulator goroutine) and
// the trace ring, whose own lock makes tailing safe from any goroutine.
// *jqos.Deployment implements it.
type Source interface {
	// LatestSnapshot returns the newest published snapshot, or nil when
	// none has been published yet.
	LatestSnapshot() *Snapshot
	// TraceSince returns up to max buffered trace events with Seq > seq,
	// oldest first (max ≤ 0 means all).
	TraceSince(seq uint64, max int) []Event
}

// Server is a running exposition endpoint (see Serve).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP exposition server on addr (e.g. "127.0.0.1:0")
// serving:
//
//	/metrics   Prometheus text format of the latest published snapshot
//	/snapshot  the same snapshot as indented JSON
//	/slo       the snapshot's SLO section (states, burn rates) as JSON
//	/trace     the buffered control-loop trace as JSON
//	           (?since=SEQ to tail, ?max=N to bound, 0 = all; a value
//	           that is not a non-negative integer answers 400)
//	/debug/pprof/...  the standard net/http/pprof handlers
//
// The server reads only published state, so it is safe to run while the
// simulation advances on its own goroutine. Close it with Server.Close.
func Serve(addr string, src Source) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: newMux(src), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// newMux routes Serve's endpoints to src.
func newMux(src Source) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := src.LatestSnapshot()
		if s == nil {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			fmt.Fprintln(w, "# no snapshot published yet")
			fmt.Fprintln(w, "jqos_snapshot_published 0")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = WriteMetrics(w, s)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		s := src.LatestSnapshot()
		if s == nil {
			http.Error(w, `{"error":"no snapshot published yet"}`, http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, s)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		s := src.LatestSnapshot()
		if s == nil {
			http.Error(w, `{"error":"no snapshot published yet"}`, http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, s.SLO)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		var since uint64
		var max int
		var err error
		if v := r.URL.Query().Get("since"); v != "" {
			if since, err = strconv.ParseUint(v, 10, 64); err != nil {
				http.Error(w, `{"error":"since must be a non-negative integer"}`, http.StatusBadRequest)
				return
			}
		}
		if v := r.URL.Query().Get("max"); v != "" {
			if max, err = strconv.Atoi(v); err != nil || max < 0 {
				http.Error(w, `{"error":"max must be a non-negative integer"}`, http.StatusBadRequest)
				return
			}
		}
		events := src.TraceSince(since, max)
		if events == nil {
			events = []Event{}
		}
		writeJSON(w, events)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON answers v as indented JSON. It encodes into a buffer first, so
// a value that cannot be encoded answers 500 instead of a 200 with a
// truncated body.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		msg, _ := json.Marshal(err.Error())
		http.Error(w, `{"error":`+string(msg)+`}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// Addr returns the bound listen address (resolves ":0" picks).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
