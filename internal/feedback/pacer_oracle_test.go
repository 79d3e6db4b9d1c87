package feedback

import (
	"math/rand"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/load"
)

// lumpedPacer is the reference model: the one-state AIMD pacer every flow
// ran before Pacer kept a state per bottleneck — one rate, one hot flag, no
// keys. A flow signals its Pacer with a constant key (the zero LinkClass),
// and under a constant key the two must be the same machine.
type lumpedPacer struct {
	bucket *load.Bucket
	cfg    PacerConfig
	base   int64
	floor  int64
	step   int64
	cur    int64
	hot    bool

	cuts       uint64
	recoveries uint64
}

func newLumpedPacer(bucket *load.Bucket, cfg PacerConfig) *lumpedPacer {
	p := &lumpedPacer{bucket: bucket, cfg: cfg.withDefaults(), cur: bucket.Rate()}
	p.rebase(p.cur)
	return p
}

func (p *lumpedPacer) rebase(contract int64) {
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

func (p *lumpedPacer) SetContract(now core.Time, contract int64) {
	if contract <= 0 || contract == p.base {
		return
	}
	p.rebase(contract)
	cur := p.cur
	if cur > contract {
		cur = contract
	}
	if cur < p.floor {
		cur = p.floor
	}
	if cur != p.cur {
		p.cur = cur
		p.bucket.SetRate(now, cur)
	}
}

func (p *lumpedPacer) OnSignal(now core.Time, st State) bool {
	if st != Hot {
		p.hot = false
		return false
	}
	p.hot = true
	next := int64(float64(p.cur) * p.cfg.Backoff)
	if next < p.floor {
		next = p.floor
	}
	if next == p.cur {
		return false
	}
	p.cur = next
	p.cuts++
	p.bucket.SetRate(now, next)
	return true
}

func (p *lumpedPacer) Unfreeze() { p.hot = false }

func (p *lumpedPacer) Tick(now core.Time) bool {
	if p.hot || p.cur >= p.base {
		return false
	}
	next := p.cur + p.step
	if next > p.base {
		next = p.base
	}
	p.cur = next
	p.recoveries++
	p.bucket.SetRate(now, next)
	return true
}

func (p *lumpedPacer) Throttled() bool { return p.cur < p.base }

// TestPacerMatchesLumpedModel drives the per-bottleneck Pacer with a
// constant key and the one-state model through the same random sequences
// of Hot/Warm/Clear signals, Ticks, SetContracts and Unfreezes, and
// requires the same return value from every call and the same rate,
// Throttled, cuts, recoveries and bucket state (rate, burst, tokens and
// last settle time) after every step. Contracts go down to 1 B/s and floors up to 1.0, where
// floor == contract and a Hot signal freezes without cutting.
func TestPacerMatchesLumpedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	contracts := []int64{1, 2, 7, 1000, 600_000, 1 << 30}
	for trial := 0; trial < 400; trial++ {
		cfg := PacerConfig{}
		if trial%2 == 1 {
			cfg = PacerConfig{Floor: rng.Float64() * 1.1, Backoff: rng.Float64(), Recover: rng.Float64()}
		}
		rate := contracts[rng.Intn(len(contracts))]
		sb, mb := load.NewBucket(rate, 0), load.NewBucket(rate, 0)
		subject, model := NewPacer(sb, cfg), newLumpedPacer(mb, cfg)
		now := core.Time(0)
		for step := 0; step < 200; step++ {
			now += core.Time(rng.Intn(300)) * time.Millisecond
			var got, want bool
			op := rng.Intn(10)
			switch {
			case op < 3:
				got, want = subject.OnSignal(now, LinkClass{}, Hot), model.OnSignal(now, Hot)
			case op < 5:
				st := []State{Warm, Clear}[rng.Intn(2)]
				got, want = subject.OnSignal(now, LinkClass{}, st), model.OnSignal(now, st)
			case op < 8:
				got, want = subject.Tick(now), model.Tick(now)
			case op < 9:
				c := contracts[rng.Intn(len(contracts))] + int64(rng.Intn(3)) - 1 // 0 is ignored
				subject.SetContract(now, c)
				model.SetContract(now, c)
			default:
				subject.Unfreeze()
				model.Unfreeze()
			}
			if got != want ||
				subject.Rate() != model.cur || subject.Contract() != model.base ||
				subject.Throttled() != model.Throttled() ||
				subject.Cuts() != model.cuts || subject.Recoveries() != model.recoveries ||
				*sb != *mb {
				t.Fatalf("trial %d step %d (op %d): returned %v want %v; rate %d/%d contract %d/%d throttled %v/%v cuts %d/%d recoveries %d/%d bucket %+v/%+v",
					trial, step, op, got, want, subject.Rate(), model.cur, subject.Contract(), model.base,
					subject.Throttled(), model.Throttled(), subject.Cuts(), model.cuts,
					subject.Recoveries(), model.recoveries, *sb, *mb)
			}
			if len(subject.states) > 1 {
				t.Fatalf("trial %d step %d: %d states under one key", trial, step, len(subject.states))
			}
		}
	}
}
