package transport

import (
	"sync"
	"time"

	"jqos/internal/core"
	"jqos/internal/recovery"
	"jqos/internal/wire"
)

// HostEnd is an application endpoint on a real socket: it sends flows
// (duplicating copies toward DC1 per the selected service) and runs the
// receiver recovery engine for inbound flows.
type HostEnd struct {
	ep  *Endpoint
	dc  core.NodeID
	mu  sync.Mutex
	rcv *recovery.Receiver

	// OnDeliver receives every surfaced packet (may be called from the
	// receive or timer goroutine).
	OnDeliver func(core.Delivery)

	pump *pump
}

// NewHostEnd builds an endpoint host whose nearby DC is dc.
func NewHostEnd(ep *Endpoint, dc core.NodeID, service core.Service, rtt time.Duration) *HostEnd {
	cfg := recovery.DefaultConfig(ep.Self, dc, core.Time(rtt))
	cfg.Service = service
	h := &HostEnd{ep: ep, dc: dc, rcv: recovery.New(cfg), pump: newPump()}
	ep.Handler = h.handle
	return h
}

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

// ReceiverStats snapshots the recovery engine counters.
func (h *HostEnd) ReceiverStats() recovery.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rcv.Stats()
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

// PullFlow drains the DC cache for a flow (mobility rendezvous).
func (h *HostEnd) PullFlow(flow core.FlowID, after core.Seq) {
	hdr := wire.Header{
		Type: wire.TypePull, Service: core.ServiceCaching, Flags: wire.FlagDrain,
		Flow: flow, Seq: after, TS: h.ep.Now(), Src: h.ep.Self, Dst: h.dc,
	}
	_ = h.ep.Send(h.dc, wire.AppendMessage(nil, &hdr, nil))
}

func (h *HostEnd) onTimer() {
	h.mu.Lock()
	res := h.rcv.OnTimer(h.ep.Now())
	h.rearmLocked()
	h.mu.Unlock()
	h.dispatch(res)
}

func (h *HostEnd) rearmLocked() {
	dl, ok := h.rcv.NextDeadline()
	h.pump.arm(h.ep.Now(), dl, ok)
}

func (h *HostEnd) dispatch(res recovery.Result) {
	h.ep.Transmit(res.Emits)
	if h.OnDeliver != nil {
		for _, del := range res.Deliveries {
			h.OnDeliver(del)
		}
	}
}

func (h *HostEnd) handle(now core.Time, hdr *wire.Header, body, _ []byte) {
	h.mu.Lock()
	var res recovery.Result
	switch hdr.Type {
	case wire.TypeData:
		res = h.rcv.OnData(now, hdr, body)
	case wire.TypeRecovered, wire.TypePullResp:
		res = h.rcv.OnRecovered(now, hdr, body)
	case wire.TypeCoded:
		var meta wire.Coded
		if shard, err := meta.Unmarshal(body); err == nil {
			res = h.rcv.OnCoded(now, hdr, &meta, shard)
		}
	case wire.TypeCoopReq:
		var ref wire.CoopRef
		if _, err := ref.Unmarshal(body); err == nil {
			res = h.rcv.OnCoopReq(now, hdr, &ref)
		}
	case wire.TypeVerify:
		res = h.rcv.OnVerify(now, hdr)
	}
	h.rearmLocked()
	h.mu.Unlock()
	h.dispatch(res)
}
