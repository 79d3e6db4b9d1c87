package jqos

import (
	"cmp"
	"slices"
	"time"

	"jqos/internal/core"
	"jqos/internal/netem"
	"jqos/internal/recovery"
	"jqos/internal/wire"
)

// Host is one emulated endpoint. It plays both roles: flows registered
// from it send packets, and a per-flow recovery engine handles everything
// that arrives — data, recovered packets, parity for local decode,
// cooperative-recovery requests, and verification probes.
type Host struct {
	d  *Deployment
	id core.NodeID
	dc core.NodeID

	receivers map[core.FlowID]*recovery.Receiver
	// byFlow lists the same receivers in ascending flow-ID order: the
	// timer walks it, so flows whose timers expire in the same instant
	// emit (and draw link jitter and loss) in a fixed order instead of
	// Go's per-range map order.
	byFlow    []flowReceiver
	onDeliver func(core.Delivery)
	drop      uint64

	// timer fires at the earliest receiver deadline; every handled
	// message re-arms it (armTimer).
	timer *netem.Timer

	// unsol lists receivers created for flow IDs the deployment never
	// allocated (forged or external packets), in least-recently-used
	// order: creating one past maxUnsolicitedReceivers evicts the front.
	// Without the cap, a sender forging fresh IDs ≥ nextFlow would grow
	// the receiver map without bound — these entries have no Flow.Close
	// to free them. Legitimately allocated flows never enter the list,
	// and an unsolicited ID that a later registration adopts leaves it
	// (dropReceiver), so mid-join laziness is untouched.
	unsol []core.FlowID
}

// maxUnsolicitedReceivers bounds per-host receiver state for flow IDs
// the deployment never allocated. Generous enough for every legitimate
// lazy-creation pattern (a burst of external flows joining at once),
// small enough that forged-ID floods stay O(1) per host.
const maxUnsolicitedReceivers = 32

type flowReceiver struct {
	flow core.FlowID
	r    *recovery.Receiver
}

func newHost(d *Deployment, id, dc core.NodeID) *Host {
	h := &Host{
		d:         d,
		id:        id,
		dc:        dc,
		receivers: make(map[core.FlowID]*recovery.Receiver),
	}
	h.timer = d.sim.NewTimer(h.onTimer)
	return h
}

// ID returns the host's node identity.
func (h *Host) ID() core.NodeID { return h.id }

// DC returns the host's nearby data center.
func (h *Host) DC() core.NodeID { return h.dc }

// SetDeliveryHandler installs a callback invoked for every packet the host
// surfaces to the application (direct or recovered).
func (h *Host) SetDeliveryHandler(fn func(core.Delivery)) { h.onDeliver = fn }

// Receiver returns the recovery engine for a flow (nil if none yet).
func (h *Host) Receiver(flow core.FlowID) *recovery.Receiver { return h.receivers[flow] }

// ensureReceiver creates the flow's recovery engine on first contact.
// Unsolicited flows (multicast members, mid-join, even forged IDs the
// deployment never allocated) get defaults derived from the deployment
// config. Closed flows — allocated IDs the deployment no longer tracks —
// get nil instead of state: a late in-flight packet must not resurrect
// a receiver that Flow.Close just freed, or churning short-lived flows
// leaks one receiver per flow. Callers drop the packet on nil.
func (h *Host) ensureReceiver(flow core.FlowID, rtt time.Duration, svc core.Service) *recovery.Receiver {
	if r, ok := h.receivers[flow]; ok {
		h.refreshUnsolicited(flow)
		return r
	}
	if _, live := h.d.flows[flow]; !live {
		if flow < h.d.nextFlow {
			return nil
		}
		// Never-allocated (forged/external) IDs keep the historic lazy
		// contract but are NOT indexed in recvHosts — they have no
		// Flow.Close to free the entry, and an attacker-corrupted Flow
		// field must not grow a deployment-wide map. An LRU cap bounds
		// them per host instead.
		if len(h.unsol) >= maxUnsolicitedReceivers {
			evict := h.unsol[0]
			h.unsol = append(h.unsol[:0], h.unsol[1:]...)
			h.removeReceiver(evict)
		}
		h.unsol = append(h.unsol, flow)
	} else {
		// Index live flows' state for teardown: Flow.Close frees
		// exactly the hosts that ever built a receiver for it.
		h.d.recvHosts[flow] = append(h.d.recvHosts[flow], h.id)
	}
	if rtt <= 0 {
		rtt = 100 * time.Millisecond
		if f, ok := h.d.flows[flow]; ok {
			if y := h.d.topo.Direct(f.src, h.id); y > 0 {
				rtt = 2 * y
			}
		}
	}
	cfg := recovery.DefaultConfig(h.id, h.dc, rtt)
	cfg.Service = svc
	r := recovery.New(cfg)
	h.receivers[flow] = r
	h.byFlow = slices.Insert(h.byFlow, h.flowIndex(flow), flowReceiver{flow, r})
	return r
}

// flowIndex is flow's position in byFlow, or where it would be inserted.
func (h *Host) flowIndex(flow core.FlowID) int {
	i, _ := slices.BinarySearchFunc(h.byFlow, flow, func(e flowReceiver, id core.FlowID) int {
		return cmp.Compare(e.flow, id)
	})
	return i
}

// removeReceiver deletes flow's engine from the map and the ordered list.
func (h *Host) removeReceiver(flow core.FlowID) {
	if _, ok := h.receivers[flow]; !ok {
		return
	}
	delete(h.receivers, flow)
	i := h.flowIndex(flow)
	h.byFlow = slices.Delete(h.byFlow, i, i+1)
}

// dropReceiver frees a closed flow's recovery engine. Armed timer events
// self-cancel: the sweep only walks receivers still listed. A
// previously-unsolicited ID leaves the LRU list too — registration
// adopting a mid-join receiver must not leave a stale entry whose later
// eviction would delete the legitimate flow's fresh state.
func (h *Host) dropReceiver(flow core.FlowID) {
	h.removeReceiver(flow)
	for i, id := range h.unsol {
		if id == flow {
			h.unsol = append(h.unsol[:i], h.unsol[i+1:]...)
			break
		}
	}
}

// refreshUnsolicited keeps the LRU honest on a receiver-map hit. A
// still-unsolicited entry moves to the LRU back (recently used). An
// entry whose ID a registration has since allocated is PROMOTED out of
// the list entirely and indexed in recvHosts — the flow is live now, so
// its receiver must be evict-proof and must be freed by Flow.Close like
// any other (the registration itself only reset receivers on its OWN
// destinations; a host that met the ID pre-allocation and serves it
// mid-join is exactly this path). A no-op for ordinary flows: the list
// is empty unless forged/external IDs exist, so the scan costs nothing
// in the common case and at most maxUnsolicitedReceivers comparisons
// otherwise.
func (h *Host) refreshUnsolicited(flow core.FlowID) {
	for i, id := range h.unsol {
		if id != flow {
			continue
		}
		if _, live := h.d.flows[flow]; live {
			h.unsol = append(h.unsol[:i], h.unsol[i+1:]...)
			h.d.recvHosts[flow] = append(h.d.recvHosts[flow], h.id)
		} else {
			copy(h.unsol[i:], h.unsol[i+1:])
			h.unsol[len(h.unsol)-1] = flow
		}
		return
	}
}

// ReceiverCount returns how many per-flow recovery engines the host
// currently holds (diagnostics; bounded-state tests read it).
func (h *Host) ReceiverCount() int { return len(h.receivers) }

// UnsolicitedReceivers returns how many of those belong to flow IDs the
// deployment never allocated — capped at maxUnsolicitedReceivers.
func (h *Host) UnsolicitedReceivers() int { return len(h.unsol) }

// Dropped counts datagrams the host could not parse.
func (h *Host) Dropped() uint64 { return h.drop }

// transmit sends emits, relaying through the host's DC when it has no
// direct link to the target (helpers answering a remote DC2, for example).
func (h *Host) transmit(emits []core.Emit) {
	for _, em := range emits {
		switch {
		case h.d.net.HasRoute(h.id, em.To):
			h.d.net.Send(h.id, em.To, em.Msg)
		case h.d.net.HasRoute(h.id, h.dc):
			h.d.net.Send(h.id, h.dc, em.Msg)
		default:
			h.drop++
		}
	}
}

// handle is the host's network receive entry point.
func (h *Host) handle(from, to core.NodeID, data []byte) {
	now := h.d.sim.Now()
	var hdr wire.Header
	body, err := wire.SplitMessage(&hdr, data)
	if err != nil {
		h.drop++
		return
	}
	var res recovery.Result
	switch hdr.Type {
	case wire.TypeData:
		svc := hdr.Service
		if svc == core.ServiceInternet {
			svc = core.ServiceCoding
		}
		r := h.ensureReceiver(hdr.Flow, 0, svc)
		if r == nil {
			return // late packet of a closed flow
		}
		res = r.OnData(now, &hdr, body)
	case wire.TypeRecovered, wire.TypePullResp:
		r := h.ensureReceiver(hdr.Flow, 0, hdr.Service)
		if r == nil {
			return
		}
		res = r.OnRecovered(now, &hdr, body)
	case wire.TypeCoded:
		var meta wire.Coded
		shard, err := meta.Unmarshal(body)
		if err != nil || len(meta.Sources) == 0 {
			h.drop++
			return
		}
		r := h.ensureReceiver(meta.Sources[0].Flow, 0, core.ServiceCoding)
		if r == nil {
			return
		}
		res = r.OnCoded(now, &hdr, &meta, shard)
	case wire.TypeCoopReq:
		var ref wire.CoopRef
		if _, err := ref.Unmarshal(body); err != nil {
			h.drop++
			return
		}
		if r, ok := h.receivers[hdr.Flow]; ok {
			res = r.OnCoopReq(now, &hdr, &ref)
		}
	case wire.TypeVerify:
		if r, ok := h.receivers[hdr.Flow]; ok {
			res = r.OnVerify(now, &hdr)
		}
	default:
		h.drop++
		return
	}
	h.process(now, res)
	h.armTimer()
}

// process transmits emits and surfaces deliveries.
func (h *Host) process(now core.Time, res recovery.Result) {
	h.transmit(res.Emits)
	for _, del := range res.Deliveries {
		if f, ok := h.d.flows[del.Packet.ID.Flow]; ok {
			f.recordDelivery(del)
		}
		if h.onDeliver != nil {
			h.onDeliver(del)
		}
	}
}

// PullFlow asks the host's DC cache for every packet of flow after seq —
// the mobility rendezvous drain (Figure 3e). Responses arrive as ordinary
// recovered deliveries.
func (h *Host) PullFlow(flow core.FlowID, after core.Seq) {
	hdr := wire.Header{
		Type:    wire.TypePull,
		Service: core.ServiceCaching,
		Flags:   wire.FlagDrain,
		Flow:    flow,
		Seq:     after,
		TS:      h.d.sim.Now(),
		Src:     h.id,
		Dst:     h.dc,
	}
	h.d.noteActivity()
	if h.ensureReceiver(flow, 0, core.ServiceCaching) == nil {
		return // closed flow: nobody left to process the responses
	}
	h.transmit([]core.Emit{{To: h.dc, Msg: wire.AppendMessage(nil, &hdr, nil)}})
	h.armTimer()
}

// armTimer (re)schedules the host's timer at the earliest receiver
// deadline; with none pending, an already armed firing stands.
func (h *Host) armTimer() {
	var min core.Time
	found := false
	for _, e := range h.byFlow {
		if dl, ok := e.r.NextDeadline(); ok && (!found || dl < min) {
			min, found = dl, true
		}
	}
	if found {
		h.timer.Reset(min)
	}
}

// onTimer runs every receiver's timers in ascending flow order. By index:
// a delivery callback may close a flow and shrink the list mid-walk; a
// receiver skipped that way is still due and fires on the re-arm below.
func (h *Host) onTimer() {
	t := h.d.sim.Now()
	for i := 0; i < len(h.byFlow); i++ {
		h.process(t, h.byFlow[i].r.OnTimer(t))
	}
	h.armTimer()
}
