package load

import "jqos/internal/core"

// Bucket is a token bucket policing one flow's admission contract: it
// refills at rate bytes/second up to burst bytes of depth. Admit is
// allocation-free; callers drive it with the hosting runtime's virtual
// clock.
type Bucket struct {
	rate   float64 // bytes per second
	burst  float64
	tokens float64
	last   core.Time
}

// NewBucket creates a full bucket. rate must be positive (a contract of
// zero admits nothing and should be expressed by not policing at all);
// burst <= 0 defaults to a quarter second of rate, floored at one
// 1500-byte MTU. Note the classic token-bucket property: a packet larger
// than the burst depth can NEVER conform — Admit refuses it forever — so
// callers must size burst to at least their largest packet.
func NewBucket(rate, burst int64) *Bucket {
	if rate <= 0 {
		panic("load: token bucket needs a positive rate")
	}
	if burst <= 0 {
		burst = rate / 4
		if burst < 1500 {
			burst = 1500
		}
	}
	return &Bucket{rate: float64(rate), burst: float64(burst), tokens: float64(burst)}
}

// Rate returns the contracted refill rate in bytes/second.
func (b *Bucket) Rate() int64 { return int64(b.rate) }

// SetRate re-bases the refill rate in bytes/second, settling tokens
// accumulated so far at the OLD rate first, so a rate change never
// retroactively re-prices elapsed time. The burst depth is unchanged —
// a pacer throttles how fast the bucket refills, not how large a
// conformant burst may be. rate must be positive, like NewBucket's.
func (b *Bucket) SetRate(now core.Time, rate int64) {
	if rate <= 0 {
		panic("load: token bucket needs a positive rate")
	}
	b.refill(now)
	b.rate = float64(rate)
}

// Burst returns the bucket depth in bytes.
func (b *Bucket) Burst() int64 { return int64(b.burst) }

// Tokens returns the tokens available at now (diagnostics).
func (b *Bucket) Tokens(now core.Time) float64 {
	b.refill(now)
	return b.tokens
}

func (b *Bucket) refill(now core.Time) {
	if now <= b.last {
		return
	}
	b.tokens += seconds(now-b.last) * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// Admit consumes n tokens if available and reports whether the packet
// conforms to the contract. A false return consumes nothing — the caller
// drops the packet's cloud copy (policing mode).
func (b *Bucket) Admit(now core.Time, n int) bool {
	b.refill(now)
	if b.tokens < float64(n) {
		return false
	}
	b.tokens -= float64(n)
	return true
}
