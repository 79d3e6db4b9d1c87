package dataplane

import (
	"cmp"
	"slices"

	"jqos/internal/core"
	"jqos/internal/recovery"
	"jqos/internal/wire"
)

// FlowState is what a host's runtime knows of a flow ID.
type FlowState uint8

const (
	// FlowUnknown: an ID the runtime never allocated — an external or
	// mid-join flow, or a forged one. It gets a receiver lazily, held
	// under the unsolicited cap.
	FlowUnknown FlowState = iota
	// FlowLive: a registered flow. Its receiver is outside the cap and
	// stays until the runtime calls Drop.
	FlowLive
	// FlowClosed: an allocated ID the runtime no longer tracks. It gets
	// no state: a late in-flight packet must not resurrect the receiver
	// its teardown just freed, or churning short-lived flows would leak
	// one receiver per flow.
	FlowClosed
)

// HostEnv is what a HostCore needs from the runtime hosting it.
type HostEnv interface {
	// Flow classifies id and names the RTT that seeds its receiver's
	// loss-detection timers (≤ 0: the receiver's own default).
	Flow(id core.FlowID) (FlowState, core.Time)
	// Holding reports that the core now holds a live flow's receiver —
	// one no cap will ever evict, so the runtime must Drop it when the
	// flow ends.
	Holding(id core.FlowID)
	// Send puts msg on the wire toward to.
	Send(to core.NodeID, msg []byte)
	// Deliver surfaces one packet to the application.
	Deliver(del core.Delivery)
}

// MaxUnsolicited bounds per-host receiver state for flow IDs the runtime
// never allocated. Generous enough for every legitimate lazy-creation
// pattern (a burst of external flows joining at once), small enough that
// forged-ID floods stay O(1) per host.
const MaxUnsolicited = 32

// maxSpareReceivers bounds HostCore's spare list. A runtime closing a flow
// usually registers the next one soon after, so a few spares are all the
// reuse a churning host sees; an idle host pins no more.
const maxSpareReceivers = 4

// HostCore is the receiving side of one endpoint: a recovery engine per
// inbound flow handling everything that arrives — data, recovered packets,
// parity for local decode, cooperative-recovery requests and verification
// probes. Not safe for concurrent use; the host serializes its calls.
//
// A receiver the core lets go — its flow dropped, or evicted under the
// unsolicited cap — goes to a spare list of at most maxSpareReceivers, and
// the next flow's receiver is one of those, Reset, before a new one is
// built: a stream of short flows reuses one window's buffers, maps and
// codec cache instead of allocating them flow by flow.
type HostCore struct {
	self, dc core.NodeID
	env      HostEnv

	// byFlow holds the receivers in ascending flow-ID order: lookups
	// binary-search it (find), and OnTimer walks it, so flows whose timers
	// expire in the same instant emit (and draw link jitter and loss) in a
	// fixed order.
	byFlow []flowReceiver
	// unsol lists the receivers of FlowUnknown IDs in least-recently-used
	// order: creating one past MaxUnsolicited evicts the front. Without
	// the cap a sender forging fresh IDs would grow the receiver list
	// without bound — these entries have no Drop to free them. Live flows
	// never enter the list, and an unsolicited ID that a later
	// registration adopts leaves it, so mid-join laziness is untouched.
	unsol []core.FlowID

	meta wire.Coded // scratch for parsing coded messages; receivers copy what they keep
	drop uint64
	// retired sums the counters of receivers no longer held, so Stats
	// never steps back when one is evicted or dropped.
	retired recovery.Stats
	// spare lists receivers no flow holds, for Ensure to reuse.
	spare []*recovery.Receiver
	// pool is the runtime's: the receivers' NACKs, coop and verify
	// responses and the core's pulls are drawn from it.
	pool *wire.Pool
}

type flowReceiver struct {
	flow core.FlowID
	r    *recovery.Receiver
}

// NewHost builds the core of endpoint self, whose home DC is dc, on env.
// The messages it sends for a DC to consume are drawn from pool (nil
// allocates them), which the DC hands them back to.
func NewHost(self, dc core.NodeID, env HostEnv, pool *wire.Pool) *HostCore {
	return &HostCore{self: self, dc: dc, env: env, pool: pool}
}

// Home returns the DC the endpoint is attached to.
func (c *HostCore) Home() core.NodeID { return c.dc }

// Receiver returns the recovery engine for a flow (nil if none yet). It is
// the flow's only while the core holds it: after Drop or an eviction the
// same engine may serve another flow, so a caller looks it up again rather
// than keep it.
func (c *HostCore) Receiver(flow core.FlowID) *recovery.Receiver {
	if i, ok := c.find(flow); ok {
		return c.byFlow[i].r
	}
	return nil
}

// Receivers is how many per-flow engines the core holds; Unsolicited how
// many of those belong to FlowUnknown IDs — at most MaxUnsolicited.
func (c *HostCore) Receivers() int   { return len(c.byFlow) }
func (c *HostCore) Unsolicited() int { return len(c.unsol) }

// Dropped counts messages the core gave up on: bodies it could not parse
// and types no receiver handles.
func (c *HostCore) Dropped() uint64 { return c.drop }

// Stats sums the counters of every receiver the core holds or has held.
func (c *HostCore) Stats() recovery.Stats {
	sum := c.retired
	for _, e := range c.byFlow {
		sum.Add(e.r.Stats())
	}
	return sum
}

// Ensure returns flow's recovery engine, creating it on first contact
// with the given RTT seed (≤ 0: whatever env.Flow names, and if that is
// ≤ 0 too, recovery.Config's default) and service.
// Closed flows get nil; callers drop the packet.
func (c *HostCore) Ensure(flow core.FlowID, rtt core.Time, svc core.Service) *recovery.Receiver {
	if i, ok := c.find(flow); ok {
		c.refreshUnsolicited(flow)
		return c.byFlow[i].r
	}
	state, seed := c.env.Flow(flow)
	switch state {
	case FlowClosed:
		return nil
	case FlowLive:
		c.env.Holding(flow)
	default:
		if len(c.unsol) >= MaxUnsolicited {
			c.remove(c.unsol[0])
			c.unsol = slices.Delete(c.unsol, 0, 1)
		}
		c.unsol = append(c.unsol, flow)
	}
	if rtt <= 0 {
		rtt = seed
	}
	cfg := recovery.DefaultConfig(c.self, c.dc, rtt)
	cfg.Service = svc
	var r *recovery.Receiver
	if n := len(c.spare); n > 0 {
		r = c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
		r.Reset(cfg)
	} else {
		r = recovery.New(cfg)
		r.SetPool(c.pool)
	}
	// Found after any eviction above, which may have shifted the index.
	i, _ := c.find(flow)
	c.byFlow = slices.Insert(c.byFlow, i, flowReceiver{flow, r})
	return r
}

// find is flow's position in byFlow and whether it is there; when it is
// not, the position is where it would be inserted.
func (c *HostCore) find(flow core.FlowID) (int, bool) {
	return slices.BinarySearchFunc(c.byFlow, flow, func(e flowReceiver, id core.FlowID) int {
		return cmp.Compare(e.flow, id)
	})
}

// remove retires flow's engine: its counters go to retired, the engine to
// the spare list while there is room. Its last Result may still be walked
// (process): Reset leaves that alone.
func (c *HostCore) remove(flow core.FlowID) {
	if i, ok := c.find(flow); ok {
		r := c.byFlow[i].r
		c.retired.Add(r.Stats())
		c.byFlow = slices.Delete(c.byFlow, i, i+1)
		if len(c.spare) < maxSpareReceivers {
			c.spare = append(c.spare, r)
		}
	}
}

// Drop releases a flow's recovery engine for reuse. A previously-unsolicited
// ID leaves the LRU list too — a registration adopting a mid-join receiver
// must not leave a stale entry whose later eviction would delete the
// legitimate flow's fresh state.
func (c *HostCore) Drop(flow core.FlowID) {
	c.remove(flow)
	if i := slices.Index(c.unsol, flow); i >= 0 {
		c.unsol = slices.Delete(c.unsol, i, i+1)
	}
}

// refreshUnsolicited keeps the LRU honest on a receiver lookup hit. A
// still-unsolicited entry moves to the LRU back (recently used). An entry
// whose ID a registration has since allocated is PROMOTED out of the list
// entirely and reported as held — the flow is live now, so its receiver
// must be evict-proof and must be freed by the flow's teardown like any
// other (the registration itself only reset receivers on its OWN
// destinations; a host that met the ID pre-allocation and serves it
// mid-join is exactly this path). A no-op for ordinary flows: the list is
// empty unless forged/external IDs exist, so the scan costs nothing in the
// common case and at most MaxUnsolicited comparisons otherwise.
func (c *HostCore) refreshUnsolicited(flow core.FlowID) {
	i := slices.Index(c.unsol, flow)
	if i < 0 {
		return
	}
	c.unsol = slices.Delete(c.unsol, i, i+1)
	if state, _ := c.env.Flow(flow); state == FlowLive {
		c.env.Holding(flow)
	} else {
		c.unsol = append(c.unsol, flow)
	}
}

// Handle dispatches one parsed message to the receiver of the flow it
// names, then sends what the receiver emits and delivers what it
// surfaces. body is lent for the call: a data or recovered payload is
// delivered to the application as is, valid until env.Deliver returns, and
// the receiver copies what it keeps, so the caller may reuse the bytes once
// Handle returns. It reports false when no receiver ran — an undecodable
// body, an unknown type, a closed flow — so no deadline can have moved.
func (c *HostCore) Handle(now core.Time, hdr *wire.Header, body []byte) bool {
	var res recovery.Result
	switch hdr.Type {
	case wire.TypeData:
		// The receiver asks for the service the packet was sent under;
		// an Internet-only packet has none, so its losses go to coding.
		svc := hdr.Service
		if svc == core.ServiceInternet {
			svc = core.ServiceCoding
		}
		r := c.Ensure(hdr.Flow, 0, svc)
		if r == nil {
			return false // late packet of a closed flow
		}
		res = r.OnData(now, hdr, body)
	case wire.TypeRecovered, wire.TypePullResp:
		r := c.Ensure(hdr.Flow, 0, hdr.Service)
		if r == nil {
			return false
		}
		res = r.OnRecovered(now, hdr, body)
	case wire.TypeCoded:
		shard, err := c.meta.Unmarshal(body)
		if err != nil || len(c.meta.Sources) == 0 {
			c.drop++
			return false
		}
		r := c.Ensure(c.meta.Sources[0].Flow, 0, core.ServiceCoding)
		if r == nil {
			return false
		}
		res = r.OnCoded(now, hdr, &c.meta, shard)
	case wire.TypeCoopReq:
		var ref wire.CoopRef
		if _, err := ref.Unmarshal(body); err != nil {
			c.drop++
			return false
		}
		if r := c.Receiver(hdr.Flow); r != nil {
			res = r.OnCoopReq(now, hdr, &ref)
		}
	case wire.TypeVerify:
		if r := c.Receiver(hdr.Flow); r != nil {
			res = r.OnVerify(now, hdr)
		}
	default:
		c.drop++
		return false
	}
	c.process(res)
	return true
}

// Pull asks the nearby DC's cache for every packet of flow after seq — the
// mobility rendezvous drain (Figure 3e). Responses arrive as ordinary
// recovered deliveries. It reports false, sending nothing, for a closed
// flow: nobody is left to process the responses.
func (c *HostCore) Pull(now core.Time, flow core.FlowID, after core.Seq) bool {
	if c.Ensure(flow, 0, core.ServiceCaching) == nil {
		return false
	}
	hdr := wire.Header{
		Type:    wire.TypePull,
		Service: core.ServiceCaching,
		Flags:   wire.FlagDrain,
		Flow:    flow,
		Seq:     after,
		TS:      now,
		Src:     c.self,
		Dst:     c.dc,
	}
	c.env.Send(c.dc, wire.AppendMessage(c.pool.Get(wire.HeaderLen), &hdr, nil))
	return true
}

// process sends one receiver's emits, then surfaces its deliveries. res is
// that receiver's buffers, valid until the next call into it: from env.Send
// or env.Deliver a runtime may Drop the flow or Pull, not Handle or OnTimer.
func (c *HostCore) process(res recovery.Result) {
	for _, em := range res.Emits {
		c.env.Send(em.To, em.Msg)
	}
	for _, del := range res.Deliveries {
		c.env.Deliver(del)
	}
}

// NextDeadline is the earliest deadline any held receiver has pending.
func (c *HostCore) NextDeadline() (core.Time, bool) {
	var min core.Time
	found := false
	for _, e := range c.byFlow {
		if dl, ok := e.r.NextDeadline(); ok && (!found || dl < min) {
			min, found = dl, true
		}
	}
	return min, found
}

// OnTimer runs every receiver's timers in ascending flow order. By index:
// a delivery may close a flow and shrink the list mid-walk; a receiver
// skipped that way is still due, and NextDeadline says so.
func (c *HostCore) OnTimer(now core.Time) {
	for i := 0; i < len(c.byFlow); i++ {
		c.process(c.byFlow[i].r.OnTimer(now))
	}
}
