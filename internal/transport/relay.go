package transport

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"jqos/internal/cache"
	"jqos/internal/coding"
	"jqos/internal/core"
	"jqos/internal/dataplane"
	"jqos/internal/forward"
	"jqos/internal/wire"
)

// HostBinding tells a relay which DC serves an endpoint: the DC the core
// reaches it through, the spatial grouping input for coding and the
// egress decision for caching.
type HostBinding struct {
	Host core.NodeID
	DC   core.NodeID
}

// ParseBindings parses "101@2,102@2" (host@dc).
func ParseBindings(spec string) ([]HostBinding, error) {
	var out []HostBinding
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "@", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("transport: bad binding %q (want host@dc)", part)
		}
		h, err1 := strconv.ParseUint(kv[0], 10, 32)
		d, err2 := strconv.ParseUint(kv[1], 10, 32)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("transport: bad binding %q", part)
		}
		out = append(out, HostBinding{Host: core.NodeID(h), DC: core.NodeID(d)})
	}
	return out, nil
}

// RelayConfig configures a Relay.
type RelayConfig struct {
	Encoder  coding.EncoderConfig
	CacheTTL time.Duration
}

// DefaultRelayConfig returns deployment defaults.
func DefaultRelayConfig() RelayConfig {
	return RelayConfig{
		Encoder:  coding.DefaultEncoderConfig(),
		CacheTTL: 2 * time.Second,
	}
}

// Relay is a J-QoS DC node on a real socket (see the package doc). mu
// serializes the receive loop and the timer goroutine around the core;
// what the core sends meanwhile is queued in out and written to the socket
// once mu is released.
type Relay struct {
	ep *Endpoint
	mu sync.Mutex
	dp *dataplane.Core
	// pool is the core's, used under mu: datagrams read and parity are
	// drawn from it, and the core hands back each one it consumes — never
	// one in out, which it sends.
	pool  wire.Pool
	homes map[core.NodeID]core.NodeID
	out   []core.Emit // (hop, datagram) pairs awaiting the socket
	pump  *pump
}

// NewRelay builds a relay on ep with the given host bindings.
func NewRelay(ep *Endpoint, cfg RelayConfig, bindings []HostBinding) (*Relay, error) {
	r := &Relay{
		ep:    ep,
		homes: make(map[core.NodeID]core.NodeID),
		pump:  newPump(),
	}
	dp, err := dataplane.New(ep.Self, (*relayEnv)(r), cfg.Encoder, core.Time(cfg.CacheTTL), &r.pool)
	if err != nil {
		return nil, err
	}
	r.dp = dp
	for _, b := range bindings {
		r.homes[b.Host] = b.DC
	}
	ep.Handler = r.handle
	return r, nil
}

// relayEnv is Relay as the data-plane core's environment. The core calls
// it with r.mu held.
type relayEnv Relay

// Linked: a hop is reachable when the address book can name it.
func (e *relayEnv) Linked(hop core.NodeID) bool { return e.ep.Book.Lookup(hop) != nil }

func (e *relayEnv) Home(host core.NodeID) (core.NodeID, bool) {
	dc, ok := e.homes[host]
	return dc, ok
}

// PathPolicy: socket deployments declare no path policies.
func (e *relayEnv) PathPolicy(core.FlowID) uint32 { return 0 }

func (e *relayEnv) Send(hop core.NodeID, msg []byte) {
	e.out = append(e.out, core.Emit{To: hop, Msg: msg})
}

// Forwarder exposes route/group installation. Install before Start.
func (r *Relay) Forwarder() *forward.Forwarder { return r.dp.Forwarder }

// Start launches the socket loop and timer pump.
func (r *Relay) Start() {
	r.ep.Start()
	go r.pump.run(r.onTimer)
}

// Close shuts the relay down.
func (r *Relay) Close() error {
	r.pump.stop()
	return r.ep.Close()
}

// Stats returns engine counters for diagnostics.
func (r *Relay) Stats() (coding.EncoderStats, coding.RecovererStats, cache.Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dp.Encoder.Stats(), r.dp.Recoverer.Stats(), r.dp.Cache.Stats()
}

func (r *Relay) onTimer() {
	r.mu.Lock()
	r.dp.OnTimer(r.ep.Now())
	out := r.finishLocked()
	r.mu.Unlock()
	r.ep.Transmit(out)
}

// handle feeds one datagram to the core (called from the endpoint receive
// loop), in a pooled copy of the endpoint's read buffer.
func (r *Relay) handle(now core.Time, hdr *wire.Header, body, raw []byte) {
	r.mu.Lock()
	own := append(r.pool.Get(len(raw)), raw...)
	r.dp.Handle(now, hdr, own[len(raw)-len(body):], own)
	out := r.finishLocked()
	r.mu.Unlock()
	r.ep.Transmit(out)
}

// finishLocked ends one turn of the core: the timer moves to the earliest
// engine deadline and the queued sends are handed to the caller, to be
// written once the mutex is released.
func (r *Relay) finishLocked() []core.Emit {
	next, ok := r.dp.NextDeadline()
	r.pump.arm(r.ep.Now(), next, ok)
	out := r.out
	r.out = nil
	return out
}
