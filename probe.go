package jqos

import (
	"jqos/internal/core"
	"jqos/internal/netem"
	"jqos/internal/routing"
	"jqos/internal/wire"
)

// prober drives the link-health monitor for one inter-DC link: it sends a
// TypeProbe one hop over the link at the monitor's adaptive cadence
// (Config.Monitor.ProbeInterval while healthy, 25 ms while the link is
// suspicious) and times it out if no TypeProbeAck returns. Outcomes feed
// routing.Monitor, whose fail/degrade/recover verdicts make the
// controller recompute and re-push routes. A healthy link's death is
// first noticed when its next healthy-pace probe times out — up to one
// ProbeInterval plus the 200 ms timeout floor after the fact — and only
// then do the fast rounds deliver the remaining strikes.
//
// Every (re)schedule supersedes any still-pending round, so a probe
// timeout can kick the prober onto the fast cadence immediately instead
// of waiting out a healthy-pace interval.
//
// Probers park themselves after two intervals without application sends so
// an idle deployment's event heap drains; Flow.Send and the Link handle's
// fault injectors wake them again. They drive a netem.Timer directly, not
// a netem.Ticker, because three things here are not the ticker's rule:
// the parking round sends nothing, the interval changes per round, and
// the burst credit is a debt only quiet rounds pay down — traffic neither
// clears it nor spends it.
type prober struct {
	d     *Deployment
	a, b  core.NodeID // probes travel a→b, acks b→a
	seq   uint64
	timer *netem.Timer // next round; unarmed = parked
	// quiet counts consecutive rounds without application sends; a boost
	// drives it negative by the burst credit.
	quiet int
	mark  uint64 // d.activity at the last round
}

// startProber begins probing the link a↔b (no-op when probing is
// disabled). base is the link's configured one-way latency.
func (d *Deployment) startProber(a, b core.NodeID, base core.Time) {
	if d.cfg.Monitor.ProbeInterval <= 0 {
		return
	}
	d.mon.Track(a, b, base)
	p := &prober{d: d, a: a, b: b}
	p.timer = d.sim.NewTimer(p.round)
	d.probers = append(d.probers, p)
	p.schedule(d.cfg.Monitor.ProbeInterval)
}

// schedule queues the next round after the given delay, cancelling any
// round already pending (latest schedule wins).
func (p *prober) schedule(after core.Time) { p.timer.Reset(p.d.sim.Now() + after) }

// interval is the current adaptive probe period for this prober's link.
func (p *prober) interval() core.Time {
	return p.d.mon.ProbeIntervalFor(p.a, p.b)
}

// round sends one probe and reschedules itself.
func (p *prober) round() {
	d := p.d
	if act := d.activity; act == p.mark {
		p.quiet++
	} else {
		p.mark = act
		// Fresh traffic clears accumulated idleness but never an
		// outstanding burst credit — a failure injected just before the
		// last application send must still run its full detection.
		if p.quiet > 0 {
			p.quiet = 0
		}
	}
	if p.quiet >= 2 {
		return // parked: the timer stays unarmed
	}
	now := d.sim.Now()
	p.seq++
	seq := p.seq
	hdr := wire.Header{
		Type: wire.TypeProbe,
		Seq:  core.Seq(seq),
		TS:   now,
		Src:  p.a,
		Dst:  p.b,
	}
	d.mon.ProbeSent(p.a, p.b, seq, now)
	d.sendControl(p.a, p.b, wire.AppendMessage(d.pool.Get(wire.HeaderLen), &hdr, nil))
	// The timeout adapts to the measured RTT so a slowed-but-alive link
	// keeps answering in time instead of reading as lossy forever. A
	// timeout that leaves the link suspicious kicks the prober onto the
	// fast cadence right away — waiting out the healthy-pace round already
	// scheduled would stretch detection back to ProbeInterval granularity.
	d.sim.After(d.mon.CurrentTimeout(p.a, p.b), func() {
		d.mon.ProbeTimedOut(p.a, p.b, seq)
		p.kick()
	})
	p.schedule(p.interval())
}

// kick reschedules the next round at the link's current adaptive interval
// (called after a timeout so a freshly suspicious link starts fast rounds
// immediately). Parked probers restart with full burst credit.
func (p *prober) kick() {
	if !p.d.mon.Suspicious(p.a, p.b) {
		return
	}
	if !p.timer.Armed() {
		p.boost()
		return
	}
	p.schedule(p.interval())
}

// burstCredit is the idle allowance that takes a link all the way through
// failure detection or recovery (the monitor's strike and answer counts
// plus slack) even if no application traffic accompanies it.
const burstCredit = routing.DetectionRounds + 2

// boost grants a prober the full detection burst, restarting it if parked.
func (p *prober) boost() {
	p.quiet = -burstCredit
	p.timer.Arm(p.interval())
}

// boostProbers gives every prober — parked or running — enough credit to
// finish a detection: Link.Disconnect and Link.Set call it so a
// failure injected just as application traffic stops (or while the
// deployment is idle) is still observed rather than parked over.
func (d *Deployment) boostProbers() {
	for _, p := range d.probers {
		p.boost()
	}
	d.wakeLoadReporter()
}

// wakeProbers boosts every prober if any has parked (a scan of a few
// bools per send when none has).
func (d *Deployment) wakeProbers() {
	for _, p := range d.probers {
		if !p.timer.Armed() {
			d.boostProbers()
			return
		}
	}
}

// noteActivity records an application send and keeps the probers, the
// load reporter, and the SLO sweeper running.
func (d *Deployment) noteActivity() {
	d.activity++
	d.wakeProbers()
	d.wakeLoadReporter()
	d.tel.sloSweeper.Wake()
}

// sendControl transmits a control-plane message (probe, ack or congestion
// signal). Control traffic rides the same emulated links as data but is
// not billable cloud egress: it leaves by the network directly, never
// through the DC's billed exit (DCNode.send). A message with no route, or
// one the link refuses, goes back to the pool.
func (d *Deployment) sendControl(from, to core.NodeID, msg []byte) {
	if !d.net.HasRoute(from, to) || !d.net.Send(from, to, msg) {
		d.pool.Put(msg)
	}
}

// onProbe answers a link probe at the receiving DC: echo Seq and TS back
// to the sender over the reverse link.
func (n *DCNode) onProbe(hdr *wire.Header) {
	ack := wire.Header{
		Type: wire.TypeProbeAck,
		Seq:  hdr.Seq,
		TS:   hdr.TS,
		Src:  n.id,
		Dst:  hdr.Src,
	}
	n.d.sendControl(n.id, hdr.Src, wire.AppendMessage(n.d.pool.Get(wire.HeaderLen), &ack, nil))
}

// onProbeAck feeds a returned probe into the monitor.
func (n *DCNode) onProbeAck(now core.Time, hdr *wire.Header) {
	n.d.mon.ProbeAcked(n.id, hdr.Src, uint64(hdr.Seq), now)
}
