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
	"jqos/internal/forward"
	"jqos/internal/wire"
)

// HostBinding tells a relay which DC serves an endpoint (the spatial
// grouping input for coding and the egress decision for caching).
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
	Encoder   coding.EncoderConfig
	Recoverer coding.RecovererConfig
	CacheTTL  time.Duration
}

// DefaultRelayConfig returns deployment defaults.
func DefaultRelayConfig() RelayConfig {
	return RelayConfig{
		Encoder:   coding.DefaultEncoderConfig(),
		Recoverer: coding.DefaultRecovererConfig(),
		CacheTTL:  2 * time.Second,
	}
}

// Relay is a J-QoS DC node on a real socket: forwarding, caching, and
// CR-WAN (both DC1 and DC2 roles), mirroring the emulator's DCNode
// dispatch. A mutex serializes the receive loop and the timer goroutine
// around the single-threaded engines.
type Relay struct {
	ep      *Endpoint
	mu      sync.Mutex
	fwd     *forward.Forwarder
	cch     *cache.Store
	enc     *coding.Encoder
	rec     *coding.Recoverer
	nearest map[core.NodeID]core.NodeID
	timer   *time.Timer
	done    chan struct{}
	closed  sync.Once
	drop    uint64
}

// NewRelay builds a relay on ep with the given host bindings.
func NewRelay(ep *Endpoint, cfg RelayConfig, bindings []HostBinding) (*Relay, error) {
	enc, err := coding.NewEncoder(ep.Self, cfg.Encoder)
	if err != nil {
		return nil, err
	}
	r := &Relay{
		ep:      ep,
		fwd:     forward.New(ep.Self),
		cch:     cache.NewStore(core.Time(cfg.CacheTTL), 0),
		enc:     enc,
		rec:     coding.NewRecoverer(ep.Self, cfg.Recoverer),
		nearest: make(map[core.NodeID]core.NodeID),
		timer:   time.NewTimer(time.Hour),
		done:    make(chan struct{}),
	}
	for _, b := range bindings {
		r.nearest[b.Host] = b.DC
		if b.DC != ep.Self {
			r.fwd.SetRoute(b.Host, b.DC)
		}
	}
	ep.Handler = r.handle
	return r, nil
}

// Forwarder exposes route/group installation.
func (r *Relay) Forwarder() *forward.Forwarder { return r.fwd }

// Start launches the socket loop and timer pump.
func (r *Relay) Start() {
	r.ep.Start()
	go r.timerLoop()
}

// Close shuts the relay down.
func (r *Relay) Close() error {
	r.closed.Do(func() { close(r.done) })
	return r.ep.Close()
}

// Stats returns engine counters for diagnostics.
func (r *Relay) Stats() (coding.EncoderStats, coding.RecovererStats, cache.Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enc.Stats(), r.rec.Stats(), r.cch.Stats()
}

func (r *Relay) timerLoop() {
	for {
		select {
		case <-r.done:
			return
		case <-r.timer.C:
			r.mu.Lock()
			now := r.ep.Now()
			emits := append(r.enc.OnTimer(now), r.rec.OnTimer(now)...)
			r.rearmLocked()
			r.mu.Unlock()
			r.ep.Transmit(emits)
		}
	}
}

// rearmLocked resets the timer to the earliest engine deadline.
func (r *Relay) rearmLocked() {
	next, ok := coding.EarliestDeadline(r.enc, r.rec)
	if !ok {
		r.timer.Reset(time.Hour)
		return
	}
	d := time.Duration(next - r.ep.Now())
	if d < 0 {
		d = 0
	}
	r.timer.Reset(d)
}

// handle dispatches one datagram (called from the endpoint receive loop).
func (r *Relay) handle(now core.Time, hdr *wire.Header, body []byte) {
	raw := wire.AppendMessage(nil, hdr, body) // stable copy for relaying
	var emits []core.Emit
	r.mu.Lock()
	relay := hdr.Dst != r.ep.Self
	switch hdr.Type {
	case wire.TypeData:
		emits = r.onDataLocked(now, hdr, body, raw)
	case wire.TypeCoded:
		if relay {
			emits = r.fwd.Forward(hdr.Dst, raw)
		} else {
			var meta wire.Coded
			if shard, err := meta.Unmarshal(body); err == nil {
				emits = r.rec.OnCoded(now, hdr, &meta, shard)
			} else {
				r.drop++
			}
		}
	case wire.TypeNACK:
		if relay {
			emits = r.fwd.Forward(hdr.Dst, raw)
		} else {
			emits = r.onNACKLocked(now, hdr)
		}
	case wire.TypePull:
		if relay {
			emits = r.fwd.Forward(hdr.Dst, raw)
		} else {
			emits = r.onPullLocked(now, hdr)
		}
	case wire.TypeCoopResp:
		if relay {
			emits = r.fwd.Forward(hdr.Dst, raw)
		} else {
			var ref wire.CoopRef
			if payload, err := ref.Unmarshal(body); err == nil {
				emits = r.rec.OnCoopResp(now, hdr, &ref, payload)
			} else {
				r.drop++
			}
		}
	case wire.TypeVerifyResp:
		if relay {
			emits = r.fwd.Forward(hdr.Dst, raw)
		} else {
			emits = r.rec.OnVerifyResp(now, hdr)
		}
	default:
		if relay {
			emits = r.fwd.Forward(hdr.Dst, raw)
		} else {
			r.drop++
		}
	}
	r.rearmLocked()
	r.mu.Unlock()
	r.ep.Transmit(emits)
}

func (r *Relay) onDataLocked(now core.Time, hdr *wire.Header, payload, raw []byte) []core.Emit {
	switch hdr.Service {
	case core.ServiceCaching:
		if r.servesLocked(hdr.Dst) {
			r.cch.Put(now, hdr.ID(), payload)
			return nil
		}
		return r.fwd.Forward(hdr.Dst, raw)
	case core.ServiceCoding:
		dc2, ok := r.nearest[hdr.Dst]
		if !ok {
			r.drop++
			return nil
		}
		return r.enc.OnData(now, dc2, hdr.Dst, hdr.Flow, hdr.Seq, payload)
	default: // forwarding (and anything unknown moves along)
		return r.fwd.Forward(hdr.Dst, raw)
	}
}

func (r *Relay) servesLocked(dst core.NodeID) bool {
	if r.fwd.IsGroup(dst) {
		return true
	}
	return r.nearest[dst] == r.ep.Self
}

func (r *Relay) onNACKLocked(now core.Time, hdr *wire.Header) []core.Emit {
	if hdr.Service == core.ServiceCaching {
		if payload, ok := r.cch.Get(now, hdr.ID()); ok {
			resp := wire.Header{
				Type: wire.TypePullResp, Service: core.ServiceCaching,
				Flow: hdr.Flow, Seq: hdr.Seq, TS: now, Src: r.ep.Self, Dst: hdr.Src,
			}
			return []core.Emit{{To: hdr.Src, Msg: wire.AppendMessage(nil, &resp, payload)}}
		}
		return nil
	}
	return r.rec.OnNACK(now, hdr.Src, hdr.ID(), hdr.Flags)
}

func (r *Relay) onPullLocked(now core.Time, hdr *wire.Header) []core.Emit {
	ids := []core.PacketID{hdr.ID()}
	if hdr.Flags&wire.FlagDrain != 0 {
		ids = r.cch.DrainFlow(now, hdr.Flow, hdr.Seq)
	}
	var emits []core.Emit
	for _, id := range ids {
		payload, ok := r.cch.Get(now, id)
		if !ok {
			continue
		}
		resp := wire.Header{
			Type: wire.TypePullResp, Service: core.ServiceCaching,
			Flow: id.Flow, Seq: id.Seq, TS: now, Src: r.ep.Self, Dst: hdr.Src,
		}
		emits = append(emits, core.Emit{To: hdr.Src, Msg: wire.AppendMessage(nil, &resp, payload)})
	}
	return emits
}
