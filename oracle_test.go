package jqos_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"jqos"
	"jqos/internal/cache"
	"jqos/internal/coding"
	"jqos/internal/core"
	"jqos/internal/dataset"
	"jqos/internal/netem"
	"jqos/internal/recovery"
	"jqos/internal/transport"
	"jqos/internal/wire"
)

// The oracle world, built once in the emulator and once on loopback UDP:
// three DCs in a line (DC1 — transit — DC2), a sender behind DC1, and a
// receiver and three helpers behind DC2. Five flows leave the sender every
// tick, in this order: a coding flow and a caching flow to the receiver,
// and one coding flow to each helper (the coding flow's cross-stream batch
// mates). Flow i carries flow ID i+1 in both worlds.
const (
	flowCoded = iota
	flowCached
	flowHelper1
	flowHelper2
	flowHelper3
	oracleFlows

	oracleTicks = 48
	oraclePace  = 4 * time.Millisecond
	oracleRTT   = 100 * time.Millisecond // every receiver's RTT seed
)

// oracleService is the service each flow is fixed to.
func oracleService(flow int) core.Service {
	if flow == flowCached {
		return core.ServiceCaching
	}
	return core.ServiceCoding
}

// oracleDst is the receiving host of a flow: 0 the receiver, 1–3 a helper.
func oracleDst(flow int) int { return max(0, flow-flowHelper1+1) }

// oracleLost is the loss script: the direct-path copies that never arrive.
// Nothing is lost in the last block, so every loss is seen as a gap; and
// never the second-to-last packet of a block, whose NACK would race the
// block's parity to DC2.
var oracleLost = map[int][]core.Seq{
	flowCoded: {
		4, 20, 44, // the last packet of an in-stream block: DC2 holds the block's parity when the NACK lands, the receiver decodes locally
		6, 14, 22, 34, // earlier in a block, which is still open a tick later when the NACK lands: DC2 recovers cooperatively from the cross-stream batch
	},
	flowCached:  {5, 9, 30, 31}, // pulled from DC2's cache
	flowHelper1: {10},           // a helper's own loss, repaired with the receiver as one of ITS helpers
}

func oracleLoses(flow int, seq core.Seq) bool { return slices.Contains(oracleLost[flow], seq) }

func oraclePayload(flow int, seq core.Seq) []byte {
	return []byte(fmt.Sprintf("flow %d seq %d of the oracle stream", flow, seq))
}

// oracleEncoder: K = 4 coding flows fill one cross-stream batch per tick
// and one in-stream block per four ticks. The timeouts are out of reach,
// so batches close by filling alone and their composition cannot depend
// on a clock.
func oracleEncoder() coding.EncoderConfig {
	enc := coding.DefaultEncoderConfig()
	enc.K, enc.CrossParity = 4, 2
	enc.InBlock, enc.InParity = 4, 1
	enc.CrossTimeout, enc.InTimeout = time.Minute, time.Minute
	return enc
}

// oracleDelivery is how one packet reached its application.
type oracleDelivery struct {
	Recovered bool
	Via       core.Service
	Payload   string
}

type oraclePacket struct {
	Host int // oracleDst
	ID   core.PacketID
}

// oracleRun is everything the two worlds must agree on.
type oracleRun struct {
	Delivered map[oraclePacket]oracleDelivery
	Twice     []oraclePacket    // anything surfaced more than once
	Receivers [4]recovery.Stats // per receiving host, summed over its flows
	Encoders  [3]coding.EncoderStats
	Recovery  [3]coding.RecovererStats
	Caches    [3]cache.Stats
}

func (r *oracleRun) deliver(host int, del core.Delivery) {
	key := oraclePacket{host, del.Packet.ID}
	if _, dup := r.Delivered[key]; dup {
		r.Twice = append(r.Twice, key)
	}
	r.Delivered[key] = oracleDelivery{del.Recovered, del.Via, string(del.Packet.Payload)}
}

// comparable zeroes the counters that are NOT a function of the loss
// script, so the rest compare with ==. Each is excluded by name:
//
// Receiver: LossesSeen, TimerNACKs, IdleNACKs, RetryNACKs, GaveUp and
// VerifyReplies all count the end-of-stream probes — after the last
// packet the small timeout NACKs seq N+1, the idle timeout N+2, each is
// re-NACKed, possibly verified, and given up 4×RTT later. How many of
// those steps have happened when the counters are read depends on how
// long the run lingers after the stream: the emulator runs until quiet,
// the socket world stops on the wall clock. (Every real loss is counted
// by GapNACKs, which is compared.)
//
// Recoverer: NACKs, Verifies, PendingMatched, PendingExpired and
// Unrecoverable count the same probes arriving at DC2 (a NACK for a packet
// that never existed is parked, then expires).
//
// Cache: Misses counts the caching flow's probes; Expired and BytesHeld
// follow the TTL, which the socket world runs on the wall clock.
func (r oracleRun) comparable() oracleRun {
	for i := range r.Receivers {
		s := &r.Receivers[i]
		s.LossesSeen, s.TimerNACKs, s.IdleNACKs, s.RetryNACKs, s.GaveUp, s.VerifyReplies = 0, 0, 0, 0, 0, 0
	}
	for i := range r.Recovery {
		s := &r.Recovery[i]
		s.NACKs, s.Verifies, s.PendingMatched, s.PendingExpired, s.Unrecoverable = 0, 0, 0, 0, 0
	}
	for i := range r.Caches {
		s := &r.Caches[i]
		s.Misses, s.Expired, s.BytesHeld = 0, 0, 0
	}
	return r
}

// scriptedLoss is the loss script as a netem.LossModel: the link's n-th
// packet is lost when the script says so of the (flow, seq) that order
// puts there.
type scriptedLoss struct {
	n      int
	packet func(n int) (flow int, seq core.Seq)
}

func (s *scriptedLoss) Lose(core.Time, *rand.Rand) bool {
	flow, seq := s.packet(s.n)
	s.n++
	return oracleLoses(flow, seq)
}

// runOracleEmulator runs the world in the emulator, on the latencies of a
// loopback interface (a direct path slower than the overlay, both far
// below the 4 ms tick): every race between two messages — parity against
// the NACK that asks for it, a recovery against the retry timer — then
// has the winner it has on real sockets.
func runOracleEmulator(t *testing.T) oracleRun {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.Encoder = oracleEncoder()
	d := jqos.NewDeploymentWithConfig(1, cfg)
	dcs := [3]jqos.NodeID{
		d.AddDC("dc1", dataset.RegionUSEast),
		d.AddDC("transit", dataset.RegionUSWest),
		d.AddDC("dc2", dataset.RegionEU),
	}
	d.ConnectDCs(dcs[0], dcs[1], 200*time.Microsecond)
	d.ConnectDCs(dcs[1], dcs[2], 200*time.Microsecond)
	src := d.AddHost(dcs[0], 100*time.Microsecond)
	run := oracleRun{Delivered: map[oraclePacket]oracleDelivery{}}
	var dsts [4]jqos.NodeID
	for h := range dsts {
		h := h
		dsts[h] = d.AddHost(dcs[2], 100*time.Microsecond)
		d.Host(dsts[h]).SetDeliveryHandler(func(del core.Delivery) { run.deliver(h, del) })
		script := &scriptedLoss{packet: func(n int) (int, core.Seq) { return flowHelper1 + h - 1, core.Seq(n + 1) }}
		if h == 0 { // the receiver's link carries two flows, alternating
			script.packet = func(n int) (int, core.Seq) { return n % 2, core.Seq(n/2 + 1) }
		}
		d.SetDirectPath(src, dsts[h], netem.FixedDelay(time.Millisecond), script)
		// The RTT seed is the socket world's, not twice the 1 ms path.
		d.Topology().SetDirect(src, dsts[h], oracleRTT/2)
	}
	var flows [oracleFlows]*jqos.Flow
	for i := range flows {
		f, err := d.RegisterFlow(fixedSpec(src, dsts[oracleDst(i)], time.Second, oracleService(i)))
		if err != nil {
			t.Fatal(err)
		}
		if f.ID() != core.FlowID(i+1) {
			t.Fatalf("flow %d registered as ID %d, the socket world uses %d", i, f.ID(), i+1)
		}
		flows[i] = f
	}
	for k := 0; k < oracleTicks; k++ {
		seq := core.Seq(k + 1)
		d.Sim().At(time.Duration(k)*oraclePace, func() {
			for i, f := range flows {
				if got := f.Send(oraclePayload(i, seq)); got != seq {
					t.Errorf("flow %d sent seq %d at tick %d", i, got, seq)
				}
			}
		})
	}
	d.RunUntilQuiet()

	for i, f := range flows {
		run.Receivers[oracleDst(i)].Add(d.Host(dsts[oracleDst(i)]).Receiver(f.ID()).Stats())
	}
	for i, dc := range dcs {
		n := d.DC(dc)
		run.Encoders[i], run.Recovery[i], run.Caches[i] = n.Encoder().Stats(), n.Recoverer().Stats(), n.Cache().Stats()
	}
	return run
}

// runOracleSocket runs the world on loopback UDP: three transport.Relays
// and five transport.HostEnds in this process, the loss script a DropSend
// filter on the sender's socket. clean is false when the wall clock
// misbehaved — a sender tick overshot by most of the 25 ms small timeout,
// or a receiver's timer fired for a packet that was merely late
// (LateArrivals: neither world reorders a flow). Everything downstream of
// such a spurious NACK is an artefact of the stall, not of the wiring.
func runOracleSocket(t *testing.T) (run oracleRun, clean bool) {
	const (
		dc1, transit, dc2 core.NodeID = 1, 2, 3
		sender            core.NodeID = 101
		firstDst          core.NodeID = 201 // receiver, then the helpers
	)
	// DC1 knows the sender and the transit relay only; what it sends
	// toward DC2 and the hosts behind it must follow its routes.
	book, book1 := transport.NewAddrBook(), transport.NewAddrBook()
	var closers []func() error
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	mk := func(id core.NodeID, own *transport.AddrBook) *transport.Endpoint {
		ep, err := transport.NewEndpoint(id, "127.0.0.1:0", own)
		if err != nil {
			t.Fatal(err)
		}
		book.Set(id, ep.LocalAddr())
		if id == sender || id == transit || id == dc1 {
			book1.Set(id, ep.LocalAddr())
		}
		return ep
	}
	bindings := []transport.HostBinding{{Host: sender, DC: dc1}}
	for h := 0; h < 4; h++ {
		bindings = append(bindings, transport.HostBinding{Host: firstDst + core.NodeID(h), DC: dc2})
	}
	cfg := transport.RelayConfig{Encoder: oracleEncoder(), CacheTTL: jqos.DefaultConfig().CacheTTL}
	var relays [3]*transport.Relay
	for i, id := range []core.NodeID{dc1, transit, dc2} {
		own := book
		if id == dc1 {
			own = book1
		}
		r, err := transport.NewRelay(mk(id, own), cfg, bindings)
		if err != nil {
			t.Fatal(err)
		}
		closers = append(closers, r.Close)
		relays[i] = r
	}
	relays[0].Forwarder().SetRoute(dc2, transit)
	for h := 0; h < 4; h++ {
		relays[0].Forwarder().SetRoute(firstDst+core.NodeID(h), transit)
	}

	var mu sync.Mutex
	run = oracleRun{Delivered: map[oraclePacket]oracleDelivery{}}
	var ends [4]*transport.HostEnd
	for h := range ends {
		h := h
		ends[h] = transport.NewHostEnd(mk(firstDst+core.NodeID(h), book), dc2, oracleRTT)
		ends[h].OnDeliver = func(del core.Delivery) {
			mu.Lock()
			run.deliver(h, del)
			mu.Unlock()
		}
		closers = append(closers, ends[h].Close)
	}
	send := transport.NewHostEnd(mk(sender, book), dc1, oracleRTT)
	send.SetDropSend(func(to core.NodeID, hdr *wire.Header) bool {
		return to >= firstDst && hdr.Type == wire.TypeData && oracleLoses(int(hdr.Flow)-1, hdr.Seq)
	})
	closers = append(closers, send.Close)
	for _, r := range relays {
		r.Start()
	}
	for _, e := range ends {
		e.Start()
	}
	send.Start()

	var worstTick time.Duration
	last := time.Now()
	for k := 0; k < oracleTicks; k++ {
		seq := core.Seq(k + 1)
		for i := 0; i < oracleFlows; i++ {
			send.SendData(core.FlowID(i+1), seq, firstDst+core.NodeID(oracleDst(i)), oracleService(i), oraclePayload(i, seq))
		}
		time.Sleep(oraclePace)
		now := time.Now()
		worstTick, last = max(worstTick, now.Sub(last)), now
	}
	// Done when every packet has been delivered; then a moment for the
	// stragglers nobody waits for (the third helper's response to a
	// recovery two already completed).
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(run.Delivered)
		mu.Unlock()
		if n >= oracleTicks*oracleFlows {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			var missing []oraclePacket
			for i := 0; i < oracleFlows; i++ {
				for seq := core.Seq(1); seq <= oracleTicks; seq++ {
					key := oraclePacket{oracleDst(i), core.PacketID{Flow: core.FlowID(i + 1), Seq: seq}}
					if _, ok := run.Delivered[key]; !ok {
						missing = append(missing, key)
					}
				}
			}
			t.Fatalf("socket world delivered %d of %d packets; never arrived: %+v", n, oracleTicks*oracleFlows, missing)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)

	clean = worstTick < 20*time.Millisecond
	for h, e := range ends {
		run.Receivers[h] = e.ReceiverStats()
		clean = clean && run.Receivers[h].LateArrivals == 0
	}
	for i, r := range relays {
		run.Encoders[i], run.Recovery[i], run.Caches[i] = r.Stats()
	}
	mu.Lock()
	defer mu.Unlock()
	return run, clean
}

// TestEmulatorMatchesLoopbackUDP is the whole-flow differential oracle:
// the emulated Host/DCNode and the socket HostEnd/Relay drive the same two
// sans-IO cores, so the same world under the same loss script must deliver
// the same packets the same way and leave the same counters in every
// engine — whatever the figures simulate is what the relay binaries do.
func TestEmulatorMatchesLoopbackUDP(t *testing.T) {
	emu := runOracleEmulator(t)

	// The emulated run is what the script says it should be: everything
	// delivered once, lost packets recovered by the flow's service, the
	// rest direct — and all three repair paths were taken.
	for i := 0; i < oracleFlows; i++ {
		for seq := core.Seq(1); seq <= oracleTicks; seq++ {
			want := oracleDelivery{Payload: string(oraclePayload(i, seq))}
			if oracleLoses(i, seq) {
				want.Recovered, want.Via = true, oracleService(i)
			}
			key := oraclePacket{oracleDst(i), core.PacketID{Flow: core.FlowID(i + 1), Seq: seq}}
			if got := emu.Delivered[key]; got != want {
				t.Errorf("emulator: %+v delivered as %+v, the script says %+v", key, got, want)
			}
		}
	}
	if len(emu.Delivered) != oracleTicks*oracleFlows || len(emu.Twice) != 0 {
		t.Errorf("emulator: %d distinct deliveries, %v surfaced twice", len(emu.Delivered), emu.Twice)
	}
	if got := emu.Receivers[0].InStreamLocal; got != 3 {
		t.Errorf("emulator: %d in-stream decodes at the receiver, the script loses 3 block-last packets", got)
	}
	if got := emu.Recovery[2].CoopRecovered; got != 5 {
		t.Errorf("emulator: %d cooperative recoveries at DC2, the script loses 5 mid-block packets", got)
	}
	if got := emu.Caches[2].Hits; got != 4 {
		t.Errorf("emulator: %d cache hits at DC2, the script loses 4 cached packets", got)
	}
	if t.Failed() {
		t.FailNow()
	}

	var udp oracleRun
	for attempt := 1; ; attempt++ {
		var clean bool
		if udp, clean = runOracleSocket(t); clean {
			break
		}
		if attempt == 5 {
			t.Skip("five socket runs in a row hit a scheduling stall near the 25 ms small timeout: this machine is too busy to hold a wall-clock world to the emulator")
		}
		t.Logf("socket run %d hit a scheduling stall; repeating it", attempt)
	}
	if !reflect.DeepEqual(emu.Delivered, udp.Delivered) {
		for key, want := range emu.Delivered {
			if got, ok := udp.Delivered[key]; !ok || got != want {
				t.Errorf("%+v: emulator delivered %+v, sockets %+v (delivered: %v)", key, want, got, ok)
			}
		}
	}
	if len(udp.Twice) != 0 {
		t.Errorf("sockets surfaced %v twice", udp.Twice)
	}
	e, u := emu.comparable(), udp.comparable()
	for h := range e.Receivers {
		if e.Receivers[h] != u.Receivers[h] {
			t.Errorf("receiving host %d: recovery.Stats differ\n emulator %+v\n sockets  %+v", h, e.Receivers[h], u.Receivers[h])
		}
	}
	for i, name := range []string{"DC1", "transit", "DC2"} {
		if e.Encoders[i] != u.Encoders[i] {
			t.Errorf("%s: EncoderStats differ\n emulator %+v\n sockets  %+v", name, e.Encoders[i], u.Encoders[i])
		}
		if e.Recovery[i] != u.Recovery[i] {
			t.Errorf("%s: RecovererStats differ\n emulator %+v\n sockets  %+v", name, e.Recovery[i], u.Recovery[i])
		}
		if e.Caches[i] != u.Caches[i] {
			t.Errorf("%s: cache.Stats differ\n emulator %+v\n sockets  %+v", name, e.Caches[i], u.Caches[i])
		}
	}
}
