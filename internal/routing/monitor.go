package routing

import (
	"time"

	"jqos/internal/core"
)

// The link-health state machine's tuning. A healthy link is probed once per
// probe interval (the deployment's one setting); its first missed probe —
// noticed up to one interval plus probeTimeout after the link died — makes
// it suspicious, and only the remaining failAfter−1 strikes run at the
// fast cadence.
const (
	// probeTimeout is the floor for declaring a healthy link's probe
	// lost; the effective timeout is max(floor, 3× the link's base RTT,
	// 3× the measured RTT).
	probeTimeout = 200 * time.Millisecond
	// fastProbeInterval / fastProbeTimeout are the probe period and the
	// timeout floor of a SUSPICIOUS link — down, degraded, mid loss
	// streak, or still carrying window loss above clearLoss.
	fastProbeInterval = 25 * time.Millisecond
	fastProbeTimeout  = 25 * time.Millisecond
	// failAfter consecutive probe losses mark the link down;
	// recoverAfter consecutive answers bring a down link back up.
	failAfter    = 3
	recoverAfter = 3
	// degradeLoss / clearLoss bound the windowed probe-loss fraction for
	// the degraded state. RTT shifts do not change health state — they
	// re-price the link via refreshFraction, so a link that legitimately
	// got slower converges to its new cost instead of sticking in a
	// degraded state it can never clear.
	degradeLoss = 0.25
	clearLoss   = 0.10
	// lossWindow is the probe-outcome window size for the loss estimate.
	lossWindow = 16
	// ewmaAlpha weights the newest RTT sample (typed: 1−ewmaAlpha must
	// round as float64 arithmetic does).
	ewmaAlpha float64 = 0.3
	// refreshFraction re-prices a link when the RTT estimate deviates
	// from the advertised cost by more than this fraction (keeps routed
	// latencies honest without reacting to jitter).
	refreshFraction = 0.25
)

// DetectionRounds is how many probe rounds take a link through failure
// detection and recovery: what a runtime lets idle probers run after a fault.
const DetectionRounds = failAfter + recoverAfter

// Health is a read-only snapshot of one link's monitor state.
type Health struct {
	State      LinkState
	RTT        core.Time // EWMA round-trip estimate (0 until first answer)
	Loss       float64   // probe-loss fraction over the window
	ProbesSent uint64
	ProbesLost uint64
}

// linkHealth is the per-link estimator + state machine.
type linkHealth struct {
	a, b        core.NodeID
	base        core.Time // configured one-way latency
	state       LinkState
	ewmaRTT     core.Time
	window      [lossWindow]bool // ring of recent outcomes (true = lost)
	windowAt    int
	windowFill  int
	consecLoss  int
	consecOK    int
	outstanding map[uint64]core.Time // in-flight probe seq → sent-at
	timedOut    map[uint64]core.Time // counted-lost probes, kept so a late answer can still teach RTT
	sent, lost  uint64
	advertised  core.Time // cost last pushed to the controller (0 = base)
}

func (h *linkHealth) lossFrac() float64 {
	if h.windowFill == 0 {
		return 0
	}
	lost := 0
	for i := 0; i < h.windowFill; i++ {
		if h.window[i] {
			lost++
		}
	}
	return float64(lost) / float64(h.windowFill)
}

func (h *linkHealth) record(lost bool) {
	h.window[h.windowAt] = lost
	h.windowAt = (h.windowAt + 1) % lossWindow
	if h.windowFill < lossWindow {
		h.windowFill++
	}
}

// Monitor tracks probe outcomes per inter-DC link and reports health
// transitions to the controller. It is sans-IO: the hosting runtime sends
// the probes, times them out, and calls ProbeSent / ProbeAcked /
// ProbeTimedOut.
type Monitor struct {
	c             *Controller
	probeInterval time.Duration
	links         map[[2]core.NodeID]*linkHealth
}

// NewMonitor creates a monitor feeding verdicts into c. probeInterval is
// the probe period of a healthy link.
func NewMonitor(c *Controller, probeInterval time.Duration) *Monitor {
	return &Monitor{c: c, probeInterval: probeInterval, links: make(map[[2]core.NodeID]*linkHealth)}
}

// Track starts monitoring the link a↔b with configured one-way latency
// base. Re-tracking re-bases the estimators.
func (m *Monitor) Track(a, b core.NodeID, base core.Time) {
	k := linkKey(a, b)
	m.links[k] = &linkHealth{
		a: k[0], b: k[1], base: base,
		outstanding: make(map[uint64]core.Time),
		timedOut:    make(map[uint64]core.Time),
	}
}

// CurrentTimeout returns the effective probe timeout for the link a↔b:
// the floor, 3× the configured RTT, or 3× the measured RTT estimate —
// whichever is largest. Adapting to the estimate matters: a link that
// legitimately slowed past the static timeout would otherwise read as
// lossy forever (late answers re-teach the estimate, which stretches the
// timeout back over the real RTT). Suspicious links swap the probeTimeout
// floor for fastProbeTimeout: once a link is under suspicion the
// RTT-derived terms carry the timeout, not the conservative healthy-path
// floor.
func (m *Monitor) CurrentTimeout(a, b core.NodeID) core.Time {
	t := probeTimeout
	if h, ok := m.links[linkKey(a, b)]; ok {
		if h.suspicious() {
			t = fastProbeTimeout
		}
		if c := 3 * 2 * h.base; c > t {
			t = c
		}
		if c := 3 * h.ewmaRTT; c > t {
			t = c
		}
	}
	return t
}

// suspicious reports whether this link deserves the fast probe cadence:
// anything short of a clean bill of health — not Up, a loss streak in
// progress, or window loss still above the degrade-clear threshold.
func (h *linkHealth) suspicious() bool {
	return h.state != LinkUp || h.consecLoss > 0 || h.lossFrac() >= clearLoss
}

// Suspicious reports whether the link a↔b is currently probing (or should
// probe) at the fast cadence. Untracked links are never suspicious.
func (m *Monitor) Suspicious(a, b core.NodeID) bool {
	h, ok := m.links[linkKey(a, b)]
	return ok && h.suspicious()
}

// ProbeIntervalFor returns the probe period the hosting runtime should use
// for the link a↔b right now: fastProbeInterval while the link is
// suspicious, the healthy-link interval otherwise.
func (m *Monitor) ProbeIntervalFor(a, b core.NodeID) time.Duration {
	if m.Suspicious(a, b) {
		return fastProbeInterval
	}
	return m.probeInterval
}

// Health returns the current snapshot for a link.
func (m *Monitor) Health(a, b core.NodeID) (Health, bool) {
	h, ok := m.links[linkKey(a, b)]
	if !ok {
		return Health{}, false
	}
	return Health{State: h.state, RTT: h.ewmaRTT, Loss: h.lossFrac(),
		ProbesSent: h.sent, ProbesLost: h.lost}, true
}

// ProbeSent records an in-flight probe.
func (m *Monitor) ProbeSent(a, b core.NodeID, seq uint64, now core.Time) {
	h, ok := m.links[linkKey(a, b)]
	if !ok {
		return
	}
	h.outstanding[seq] = now
	h.sent++
	// Prune stale timed-out entries whose answers never came.
	for s := range h.timedOut {
		if s+64 < seq {
			delete(h.timedOut, s)
		}
	}
}

// ProbeAcked records an answered probe and re-evaluates link health. An
// answer that arrives after its timeout stays counted as a loss (it WAS
// too late) but still teaches the RTT estimator — which stretches
// CurrentTimeout over the link's real RTT so subsequent probes succeed.
func (m *Monitor) ProbeAcked(a, b core.NodeID, seq uint64, now core.Time) {
	h, ok := m.links[linkKey(a, b)]
	if !ok {
		return
	}
	sentAt, out := h.outstanding[seq]
	if !out {
		if lateSent, late := h.timedOut[seq]; late {
			delete(h.timedOut, seq)
			h.learnRTT(now - lateSent)
			m.evaluate(h)
		}
		return
	}
	delete(h.outstanding, seq)
	h.learnRTT(now - sentAt)
	h.record(false)
	h.consecLoss = 0
	h.consecOK++
	m.evaluate(h)
}

func (h *linkHealth) learnRTT(rtt core.Time) {
	if h.ewmaRTT == 0 {
		h.ewmaRTT = rtt
		return
	}
	h.ewmaRTT = core.Time(ewmaAlpha*float64(rtt) + (1-ewmaAlpha)*float64(h.ewmaRTT))
}

// ProbeTimedOut records a lost probe (no-op if it was answered in time)
// and re-evaluates link health.
func (m *Monitor) ProbeTimedOut(a, b core.NodeID, seq uint64) {
	h, ok := m.links[linkKey(a, b)]
	if !ok {
		return
	}
	sentAt, out := h.outstanding[seq]
	if !out {
		return
	}
	delete(h.outstanding, seq)
	h.timedOut[seq] = sentAt
	h.lost++
	h.record(true)
	h.consecOK = 0
	h.consecLoss++
	m.evaluate(h)
}

// evaluate runs the fail / degrade / recover state machine and pushes the
// verdict (state + effective one-way cost) into the controller. Probe
// loss drives the health state; RTT drift re-prices the link (a link that
// merely got slower stays healthy at its new, honest cost).
func (m *Monitor) evaluate(h *linkHealth) {
	loss := h.lossFrac()
	switch h.state {
	case LinkDown:
		if h.consecOK >= recoverAfter {
			h.state = LinkUp
			// Fresh estimates: the outage polluted the window.
			h.window = [lossWindow]bool{}
			m.push(h, LinkUp, h.refreshedCost())
		}
	case LinkUp, LinkDegraded:
		if h.consecLoss >= failAfter {
			h.state = LinkDown
			m.push(h, LinkDown, 0)
			return
		}
		lossHigh := h.windowFill >= lossWindow/2 && loss >= degradeLoss
		if h.state == LinkUp && lossHigh {
			h.state = LinkDegraded
			m.push(h, LinkDegraded, h.degradedCost(loss))
			return
		}
		if h.state == LinkDegraded {
			if loss <= clearLoss {
				h.state = LinkUp
				m.push(h, LinkUp, h.refreshedCost())
				return
			}
			// Still degraded: keep the advertised cost roughly current,
			// but only re-push when it moved materially (damping).
			if c := h.degradedCost(loss); m.deviates(h, c) {
				m.push(h, LinkDegraded, c)
			}
			return
		}
		// Healthy link: re-price when the measured latency drifts well
		// past the advertised cost (e.g. after SetLinkQuality slowed the
		// link — routes shift to the now-cheaper alternates).
		if h.ewmaRTT > 0 {
			if est := h.ewmaRTT / 2; m.deviates(h, est) {
				m.push(h, LinkUp, est)
			}
		}
	}
}

// refreshedCost is the cost to advertise when a link returns to healthy:
// the measured estimate if it deviates materially from the configured
// base, 0 (= base) otherwise.
func (h *linkHealth) refreshedCost() core.Time {
	if h.ewmaRTT == 0 || h.base == 0 {
		return 0
	}
	est := h.ewmaRTT / 2
	dev := float64(est-h.base) / float64(h.base)
	if dev < 0 {
		dev = -dev
	}
	if dev > refreshFraction {
		return est
	}
	return 0
}

// push records the advertised cost and forwards the verdict.
func (m *Monitor) push(h *linkHealth, state LinkState, est core.Time) {
	h.advertised = est
	m.c.SetLinkHealth(h.a, h.b, state, est)
}

// deviates reports whether cost differs from the currently advertised cost
// by more than refreshFraction — the recompute damping threshold.
func (m *Monitor) deviates(h *linkHealth, cost core.Time) bool {
	cur := h.advertised
	if cur == 0 {
		cur = h.base
	}
	if cur == 0 {
		return cost != 0
	}
	dev := float64(cost-cur) / float64(cur)
	if dev < 0 {
		dev = -dev
	}
	return dev > refreshFraction
}

// degradedCost converts the RTT/loss estimates into an effective one-way
// path cost: measured latency inflated by expected retransmission burden,
// never below the configured base and capped at 10× base.
func (h *linkHealth) degradedCost(loss float64) core.Time {
	est := h.ewmaRTT / 2
	if est < h.base {
		est = h.base
	}
	if loss > 0.9 {
		loss = 0.9
	}
	est = core.Time(float64(est) / (1 - loss))
	if limit := 10 * h.base; h.base > 0 && est > limit {
		est = limit
	}
	return est
}
