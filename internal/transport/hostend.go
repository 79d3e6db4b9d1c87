package transport

import (
	"slices"
	"sync"
	"time"

	"jqos/internal/core"
	"jqos/internal/dataplane"
	"jqos/internal/recovery"
	"jqos/internal/wire"
)

// HostEnd is an application endpoint on a real socket: it sends flows
// (duplicating copies toward DC1 per the selected service) and runs the
// dataplane.HostCore the emulated Host runs for inbound ones. mu
// serializes the receive loop and the timer goroutine around the core;
// what the core sends and delivers meanwhile is queued, and flushed once
// mu is released.
type HostEnd struct {
	ep  *Endpoint
	dc  core.NodeID
	rtt core.Time
	mu  sync.Mutex
	hc  *dataplane.HostCore
	out []core.Emit
	dlv []core.Delivery

	// OnDeliver receives every surfaced packet (may be called from the
	// receive or timer goroutine).
	OnDeliver func(core.Delivery)

	pump *pump
}

// NewHostEnd builds an endpoint host whose nearby DC is dc. rtt, the
// direct-path estimate, seeds every inbound flow's loss-detection timers;
// the service its NACKs request is the one each flow's packets carry.
func NewHostEnd(ep *Endpoint, dc core.NodeID, rtt time.Duration) *HostEnd {
	h := &HostEnd{ep: ep, dc: dc, rtt: core.Time(rtt), pump: newPump()}
	h.hc = dataplane.NewHost(ep.Self, dc, (*hostEndEnv)(h), nil)
	ep.Handler = h.handle
	return h
}

// hostEndEnv is HostEnd as its receiving core's environment. The core
// calls it with h.mu held.
type hostEndEnv HostEnd

// Flow: a socket endpoint registers no flows, so every inbound ID is held
// under the core's unsolicited cap.
func (e *hostEndEnv) Flow(core.FlowID) (dataplane.FlowState, core.Time) {
	return dataplane.FlowUnknown, e.rtt
}

func (e *hostEndEnv) Holding(core.FlowID) {}

func (e *hostEndEnv) Send(to core.NodeID, msg []byte) {
	e.out = append(e.out, core.Emit{To: to, Msg: msg})
}

func (e *hostEndEnv) Deliver(del core.Delivery) { e.dlv = append(e.dlv, del) }

// Start launches the socket loop and the timer pump.
func (h *HostEnd) Start() {
	h.ep.Start()
	go h.pump.run(h.onTimer)
}

// Close shuts the host down.
func (h *HostEnd) Close() error {
	h.pump.stop()
	return h.ep.Close()
}

// ReceiverStats sums the recovery counters of every inbound flow, those
// whose receiver has since been evicted included.
func (h *HostEnd) ReceiverStats() recovery.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hc.Stats()
}

// Dropped counts datagrams no receiver could take: undecodable bodies and
// unknown types.
func (h *HostEnd) Dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hc.Dropped()
}

// SetDropSend installs a send-side loss filter on the underlying socket —
// demos and tests use it to emulate a lossy direct path over loopback.
// Must be called before Start.
func (h *HostEnd) SetDropSend(fn func(to core.NodeID, hdr *wire.Header) bool) {
	h.ep.DropSend = fn
}

// SendData transmits one application packet: direct to dst, plus a copy to
// the DC when service uses the cloud.
func (h *HostEnd) SendData(flow core.FlowID, seq core.Seq, dst core.NodeID, service core.Service, payload []byte) {
	hdr := wire.Header{
		Type:    wire.TypeData,
		Service: service,
		Flow:    flow,
		Seq:     seq,
		TS:      h.ep.Now(),
		Src:     h.ep.Self,
		Dst:     dst,
	}
	msg := wire.AppendMessage(nil, &hdr, payload)
	_ = h.ep.Send(dst, msg)
	if service != core.ServiceInternet {
		hdr.Flags |= wire.FlagDup
		dup := wire.AppendMessage(nil, &hdr, payload)
		_ = h.ep.Send(h.dc, dup)
	}
}

func (h *HostEnd) onTimer() {
	h.mu.Lock()
	h.hc.OnTimer(h.ep.Now())
	h.finish()
}

// handle gives the core its own copy of the body: deliveries are the application's.
func (h *HostEnd) handle(now core.Time, hdr *wire.Header, body, _ []byte) {
	h.mu.Lock()
	h.hc.Handle(now, hdr, slices.Clone(body))
	h.finish()
}

// finish ends one turn of the core, entered with mu held: the timer moves
// to the earliest receiver deadline, then — with mu released — the queued
// sends go to the socket and the queued deliveries to the application.
func (h *HostEnd) finish() {
	next, ok := h.hc.NextDeadline()
	h.pump.arm(h.ep.Now(), next, ok)
	out, dlv := h.out, h.dlv
	h.out, h.dlv = nil, nil
	h.mu.Unlock()
	h.ep.Transmit(out)
	if h.OnDeliver != nil {
		for _, del := range dlv {
			h.OnDeliver(del)
		}
	}
}
