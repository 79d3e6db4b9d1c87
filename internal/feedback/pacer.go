package feedback

import (
	"jqos/internal/core"
	"jqos/internal/load"
)

// PacerConfig tunes the AIMD reaction of a Rate-contracted flow or a
// quota-metered tenant to congestion signals. The zero value takes the
// defaults below.
type PacerConfig struct {
	// Floor is the fraction of the contract rate the multiplicative cut
	// never goes below — a paced flow keeps a trickle so recovery has a
	// base to grow from. Default 0.125 (one eighth of the contract).
	Floor float64
	// Backoff is the multiplicative factor applied per Hot signal
	// (0 < Backoff < 1). Default 0.5 — the classic halving.
	Backoff float64
	// Recover is the additive step per recovery tick, as a fraction of
	// the contract rate. Default 0.1.
	Recover float64
}

// Pacer defaults.
const (
	defaultPacerFloor   = 0.125
	defaultPacerBackoff = 0.5
	defaultPacerRecover = 0.1
)

func (c PacerConfig) withDefaults() PacerConfig {
	if c.Floor <= 0 || c.Floor > 1 {
		c.Floor = defaultPacerFloor
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		c.Backoff = defaultPacerBackoff
	}
	if c.Recover <= 0 || c.Recover > 1 {
		c.Recover = defaultPacerRecover
	}
	return c
}

// Pacer applies AIMD rate control to an admission token bucket — a flow's
// contract bucket or a tenant's shared quota bucket — with ONE state per
// congested (link, class) bottleneck. A Hot signal cuts that bottleneck's
// rate multiplicatively toward the floor and freezes it; once the queue
// cools, periodic Ticks recover it additively, and a state back at the
// contract is dropped — steady state carries no memory of healed
// congestion. The applied rate is the MINIMUM across live states (a sender
// crossing two hot links paces to the tighter one) with the contract as
// the ceiling. Per-bottleneck states compose where N lumped pacers over
// one bucket would fight (one's additive recovery raising the rate
// another's Hot freeze is holding down): each link's congestion owns
// exactly one rate, and the bucket follows the tightest.
//
// A flow passes the zero LinkClass on every signal, so its pacer holds one
// state for its whole path; a tenant's runtime passes the signal's own key,
// ONCE per tenant per delivered signal, however many member flows heard it.
// The pacer owns only the bucket's RATE; its burst depth and token balance
// are untouched, so pacing composes with policing admission.
type Pacer struct {
	bucket *load.Bucket
	cfg    PacerConfig // resolved (withDefaults applied)
	base   int64       // contract rate (ceiling)
	floor  int64
	step   int64
	cur    int64 // applied rate = min over states, capped at base

	// states in signal-arrival order — deterministic under the
	// simulator, linear-scanned (a sender's working set of congested
	// bottlenecks is small).
	states []aimd

	cuts       uint64
	recoveries uint64
}

// aimd is one bottleneck's state: the rate this link-class alone would
// allow. hot pauses additive recovery between a Hot signal and the next
// cooler one: growing while the queue is still past the high watermark
// would fight the cut.
type aimd struct {
	key  LinkClass
	rate int64
	hot  bool
}

// NewPacer wraps an admission bucket. The bucket's current rate is taken
// as the contract (the AIMD ceiling).
func NewPacer(bucket *load.Bucket, cfg PacerConfig) *Pacer {
	p := &Pacer{bucket: bucket, cfg: cfg.withDefaults(), cur: bucket.Rate()}
	p.rebase(p.cur)
	return p
}

// rebase derives the floor and recovery step from a contract rate.
func (p *Pacer) rebase(contract int64) {
	p.base = contract
	p.floor = int64(float64(contract) * p.cfg.Floor)
	if p.floor < 1 {
		p.floor = 1
	}
	p.step = int64(float64(contract) * p.cfg.Recover)
	if p.step < 1 {
		p.step = 1
	}
}

// SetContract re-bases the AIMD ceiling when the honorable envelope
// changes mid-flight — a service-class move resizes the class share a
// flow's contract was validated against. Floor and recovery step
// re-derive from the new contract and every state clamps into
// [floor, contract] (the bucket follows when the applied rate moves); the
// frozen/hot states are untouched. Widening the contract of an unthrottled
// pacer does not jump the bucket to it: the old rate becomes a state under
// the zero key (the one a flow signals with) and Ticks grow it into the new
// ceiling.
func (p *Pacer) SetContract(now core.Time, contract int64) {
	if contract <= 0 || contract == p.base {
		return
	}
	if len(p.states) == 0 && contract > p.base {
		p.states = append(p.states, aimd{rate: p.base})
	}
	p.rebase(contract)
	for i := range p.states {
		st := &p.states[i]
		st.rate = max(min(st.rate, contract), p.floor)
	}
	p.apply(now)
}

// OnSignal applies one congestion signal for the bottleneck key, returning
// whether the applied rate was cut. Hot cuts that bottleneck's state
// multiplicatively toward the floor (creating it at the contract rate on
// first sight) and freezes its recovery. Warm and Clear signals do not
// change the rate directly — they unfreeze the additive recovery that Tick
// performs.
func (p *Pacer) OnSignal(now core.Time, key LinkClass, st State) bool {
	i := 0
	for i < len(p.states) && p.states[i].key != key {
		i++
	}
	if st != Hot {
		if i < len(p.states) {
			p.states[i].hot = false
		}
		return false
	}
	if i == len(p.states) {
		p.states = append(p.states, aimd{key: key, rate: p.base})
	}
	s := &p.states[i]
	s.hot = true
	next := max(int64(float64(s.rate)*p.cfg.Backoff), p.floor)
	if next == s.rate {
		return false
	}
	s.rate = next
	p.cuts++
	before := p.cur
	p.apply(now)
	return p.cur < before
}

// Unfreeze clears every state's hot-freeze without touching rates. The
// hosting runtime calls it when a (path, class) subscription changes or a
// tenant's member closes: a frozen state described a queue whose cooling
// transition may never be delivered to this pacer again, so leaving the
// freeze in place would wedge it at its cut rate forever on an uncongested
// new path. A still-congested queue re-freezes (and re-cuts) on its next
// Hot signal.
func (p *Pacer) Unfreeze() {
	for i := range p.states {
		p.states[i].hot = false
	}
}

// Tick is one additive-recovery step across every unfrozen state below the
// contract; a state that reaches it is dropped. Returns whether anything
// recovered (the caller keeps ticking while Throttled reports true).
func (p *Pacer) Tick(now core.Time) bool {
	changed := false
	w := 0
	for _, st := range p.states {
		if !st.hot {
			if st.rate < p.base {
				st.rate += p.step
				changed = true
			}
			if st.rate >= p.base {
				continue // fully recovered: forget the bottleneck
			}
		}
		p.states[w] = st
		w++
	}
	p.states = p.states[:w]
	if !changed {
		return false
	}
	p.recoveries++
	p.apply(now)
	return true
}

// apply recomputes the applied rate (min across states, ceiling base)
// and pushes it to the bucket when it moved.
func (p *Pacer) apply(now core.Time) {
	cur := p.base
	for i := range p.states {
		cur = min(cur, p.states[i].rate)
	}
	if cur != p.cur {
		p.cur = cur
		p.bucket.SetRate(now, cur)
	}
}

// Rate returns the applied pacing rate in bytes/second.
func (p *Pacer) Rate() int64 { return p.cur }

// Contract returns the contracted (ceiling) rate in bytes/second.
func (p *Pacer) Contract() int64 { return p.base }

// Throttled reports whether any bottleneck currently holds the sender
// below its contract.
func (p *Pacer) Throttled() bool { return p.cur < p.base }

// HotLinks returns how many tracked bottlenecks are currently frozen
// Hot.
func (p *Pacer) HotLinks() int {
	n := 0
	for i := range p.states {
		if p.states[i].hot {
			n++
		}
	}
	return n
}

// Cuts returns the lifetime count of multiplicative cuts.
func (p *Pacer) Cuts() uint64 { return p.cuts }

// Recoveries returns the lifetime count of additive recovery ticks that
// moved a rate.
func (p *Pacer) Recoveries() uint64 { return p.recoveries }
