package tcpsim

import (
	"math/rand"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/netem"
	"jqos/internal/stats"
)

// runOne executes a single exchange and returns its result.
func runOne(t *testing.T, seed int64, mutate func(*Config)) Result {
	t.Helper()
	sim := netem.NewSimulator(seed)
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	var got Result
	fired := 0
	conn := New(sim, cfg, func(r Result) { got = r; fired++ })
	conn.Start()
	sim.Run()
	if fired != 1 {
		t.Fatalf("onDone fired %d times", fired)
	}
	return got
}

// runMany collects FCTs (in ms) over n independent connections.
func runMany(t *testing.T, n int, seed int64, mutate func(*Config)) *stats.Sample {
	t.Helper()
	s := stats.NewSample(n)
	for i := 0; i < n; i++ {
		r := runOne(t, seed+int64(i)*7919, mutate)
		s.Add(float64(r.FCT) / float64(time.Millisecond))
	}
	return s
}

func TestLosslessFCT(t *testing.T) {
	r := runOne(t, 1, nil)
	if !r.Completed {
		t.Fatal("lossless exchange did not complete")
	}
	// Handshake (1.5 RTT to first data send) + 2–3 slow-start rounds for
	// 35 segments at initcwnd 10: FCT lands in (0.5s, 1.5s).
	if r.FCT < 500*time.Millisecond || r.FCT > 1500*time.Millisecond {
		t.Errorf("FCT = %v", r.FCT)
	}
	if r.Timeouts != 0 || r.Retransmits != 0 || r.Recovered != 0 {
		t.Errorf("spurious recovery on lossless path: %+v", r)
	}
}

func TestDeterminism(t *testing.T) {
	mutate := func(c *Config) { c.DataLoss = netem.NewGoogleBurst() }
	a := runOne(t, 42, mutate)
	b := runOne(t, 42, mutate)
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestLossCausesTimeoutsAndTail(t *testing.T) {
	// Harsh loss, no recovery: some connections must hit RTO backoff.
	heavy := func(c *Config) {
		c.DataLoss = &netem.GoogleBurst{PFirst: 0.05, PNext: 0.5}
		c.AckLoss = &netem.GoogleBurst{PFirst: 0.05, PNext: 0.5}
	}
	sample := runMany(t, 100, 10, heavy)
	clean := runMany(t, 100, 10, nil)
	if sample.Quantile(0.99) <= clean.Quantile(0.99) {
		t.Errorf("lossy p99 %vms not above lossless %vms",
			sample.Quantile(0.99), clean.Quantile(0.99))
	}
	anyTimeouts := false
	for i := 0; i < 50; i++ {
		if r := runOne(t, 1000+int64(i), heavy); r.Timeouts > 0 {
			anyTimeouts = true
			break
		}
	}
	if !anyTimeouts {
		t.Error("no RTO events under heavy loss")
	}
}

func TestCRWANShimCutsTail(t *testing.T) {
	lossy := func(c *Config) {
		c.DataLoss = netem.NewGoogleBurst()
		c.AckLoss = netem.NewGoogleBurst()
	}
	withJQ := func(c *Config) {
		lossy(c)
		c.Shim = DefaultCRWAN()
	}
	internet := runMany(t, 300, 20, lossy)
	jq := runMany(t, 300, 20, withJQ)
	// The medians stay close (losses are rare)…
	if ratio := jq.Median() / internet.Median(); ratio > 1.2 {
		t.Errorf("J-QoS median inflated: %v vs %v", jq.Median(), internet.Median())
	}
	// …but the tail shrinks dramatically (Fig 9b).
	pI, pJ := internet.Quantile(0.99), jq.Quantile(0.99)
	if pJ >= pI {
		t.Errorf("p99: internet %vms vs jqos %vms — no tail reduction", pI, pJ)
	}
	maxI, maxJ := internet.Max(), jq.Max()
	if maxJ >= maxI {
		t.Errorf("max FCT: internet %vms vs jqos %vms", maxI, maxJ)
	}
}

func TestCRWANRecoversSegments(t *testing.T) {
	r := runOne(t, 77, func(c *Config) {
		c.DataLoss = netem.Bernoulli{P: 0.2}
		c.Shim = CRWAN{Detect: 25 * time.Millisecond, Repair: 60 * time.Millisecond, PRecover: 1}
	})
	if !r.Completed || r.Recovered == 0 {
		t.Errorf("result: %+v", r)
	}
	if r.Timeouts > 1 {
		t.Errorf("timeouts = %d with full recovery", r.Timeouts)
	}
}

func TestSelectiveDupProtectsHandshake(t *testing.T) {
	// Lose every SYN-ACK candidate: without duplication the handshake
	// needs timer retries; with SYN-ACK duplication it never stalls.
	mutate := func(dup bool) func(*Config) {
		return func(c *Config) {
			c.DataLoss = netem.Bernoulli{P: 1} // kills SYN-ACK + data
			if dup {
				c.Shim = SelectiveDup{
					Kinds: map[SegmentKind]bool{KindSYNACK: true, KindData: true},
					Extra: 6 * time.Millisecond,
				}
			}
			c.GiveUp = 5 * time.Second
		}
	}
	without := runOne(t, 5, mutate(false))
	if without.Completed {
		t.Error("completed through a fully dead path without recovery")
	}
	with := runOne(t, 5, mutate(true))
	if !with.Completed {
		t.Fatalf("duplication did not save the exchange: %+v", with)
	}
	if with.FCT > 2*time.Second {
		t.Errorf("FCT with dup = %v", with.FCT)
	}
}

func TestSelectiveDupOnlySYNACK(t *testing.T) {
	// Duplicating only SYN-ACKs leaves data losses to TCP.
	r := runOne(t, 6, func(c *Config) {
		c.DataLoss = netem.Bernoulli{P: 0.1}
		c.Shim = SelectiveDup{Kinds: map[SegmentKind]bool{KindSYNACK: true}, Extra: 6 * time.Millisecond}
	})
	if !r.Completed {
		t.Fatal("did not complete")
	}
	if r.Retransmits == 0 {
		t.Error("data losses should still cost TCP retransmissions")
	}
}

func TestGiveUpHorizon(t *testing.T) {
	r := runOne(t, 7, func(c *Config) {
		c.DataLoss = netem.Bernoulli{P: 1}
		c.AckLoss = netem.Bernoulli{P: 1}
		c.GiveUp = 3 * time.Second
	})
	if r.Completed {
		t.Error("completed through dead path")
	}
	if r.FCT != 3*time.Second {
		t.Errorf("give-up FCT = %v", r.FCT)
	}
}

// dataLog drops every segment sent from `from` on and records when each
// was sent.
type dataLog struct {
	from core.Time
	sent []core.Time
}

func (l *dataLog) Lose(now core.Time, _ *rand.Rand) bool {
	if now < l.from {
		return false
	}
	l.sent = append(l.sent, now)
	return true
}

// TestRTOBackoffCapped blackholes the data direction once the handshake is
// done, so the server's retransmission timer doubles until MaxRTO caps it:
// after the first window, each RTO resends one segment, and no gap between
// resends may exceed MaxRTO.
func TestRTOBackoffCapped(t *testing.T) {
	cfg := DefaultConfig()
	log := &dataLog{from: 2 * cfg.OneWay} // after the SYN-ACK, before the first window
	r := runOne(t, 1, func(c *Config) {
		c.DataLoss = log
		c.GiveUp = 2 * time.Minute
	})
	if r.Completed {
		t.Fatal("completed through a dead data path")
	}
	resends := log.sent[cfg.InitCwnd-1:] // the window's last segment, then one per RTO
	capped := 0
	for i := 1; i < len(resends); i++ {
		gap := resends[i] - resends[i-1]
		if gap > cfg.MaxRTO {
			t.Fatalf("resend %d came %v after the last, past MaxRTO %v", i, gap, cfg.MaxRTO)
		}
		if gap == cfg.MaxRTO {
			capped++
		}
	}
	if capped < 3 {
		t.Errorf("backoff reached MaxRTO %d times in %d resends, want ≥3", capped, len(resends)-1)
	}
}

func TestSegmentKindStrings(t *testing.T) {
	for _, k := range []SegmentKind{KindSYN, KindSYNACK, KindRequest, KindData, KindACK} {
		if k.String() == "segment?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if SegmentKind(99).String() != "segment?" {
		t.Error("unknown kind string")
	}
}

func TestTotalSegmentsRounding(t *testing.T) {
	sim := netem.NewSimulator(1)
	cfg := DefaultConfig()
	cfg.RespBytes = 1 // one tiny segment
	c := New(sim, cfg, nil)
	if c.totalSegs != 1 {
		t.Errorf("totalSegs = %d", c.totalSegs)
	}
	cfg.RespBytes = 1461
	if c := New(sim, cfg, nil); c.totalSegs != 2 {
		t.Errorf("totalSegs = %d", c.totalSegs)
	}
}

func TestRTTEstimator(t *testing.T) {
	sim := netem.NewSimulator(1)
	c := New(sim, DefaultConfig(), nil)
	c.updateRTT(200 * time.Millisecond)
	if c.srtt != 200*time.Millisecond {
		t.Errorf("initial srtt = %v", c.srtt)
	}
	if c.rto < c.cfg.MinRTO {
		t.Errorf("rto below floor: %v", c.rto)
	}
	c.updateRTT(100 * time.Millisecond)
	if c.srtt >= 200*time.Millisecond || c.srtt <= 100*time.Millisecond {
		t.Errorf("smoothed srtt = %v", c.srtt)
	}
}

func BenchmarkExchange(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := netem.NewSimulator(int64(i))
		cfg := DefaultConfig()
		cfg.DataLoss = netem.NewGoogleBurst()
		conn := New(sim, cfg, nil)
		conn.Start()
		sim.RunUntil(core.Time(cfg.GiveUp))
	}
}
