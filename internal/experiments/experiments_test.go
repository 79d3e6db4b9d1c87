package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/stats"
	"jqos/internal/tcpsim"
)

// yAt linearly interpolates a series sorted by X at x, clamping outside
// its range to the boundary Y values.
func yAt(s stats.Series, x float64) float64 {
	pts := s.Points
	if len(pts) == 0 {
		return 0
	}
	if x <= pts[0].X {
		return pts[0].Y
	}
	if x >= pts[len(pts)-1].X {
		return pts[len(pts)-1].Y
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].X >= x })
	a, b := pts[i-1], pts[i]
	if b.X == a.X {
		return b.Y
	}
	return a.Y + (x-a.X)/(b.X-a.X)*(b.Y-a.Y)
}

// xAtY returns the smallest x at which a CDF series reaches y, or its
// last x if it never does.
func xAtY(s stats.Series, y float64) float64 {
	for _, p := range s.Points {
		if p.Y >= y {
			return p.X
		}
	}
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].X
}

func tcpsimNoRecovery() tcpsim.Recovery { return tcpsim.NoRecovery{} }
func tcpsimCRWAN() tcpsim.Recovery      { return tcpsim.DefaultCRWAN() }

func TestRegistryComplete(t *testing.T) {
	want := []string{"10", "7a", "7b", "7c", "7d", "8a", "8b", "8c", "8d", "8e",
		"9a", "9b", "backpressure", "chaos", "congestion", "cost", "fairshare", "k20", "mobile", "reroute", "tenancy"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := Find("8a"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown experiment found")
	}
}

// TestAllExperimentsQuick runs every experiment in quick mode and checks
// structural health: non-empty figures with sane series and notes.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes a few seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(Options{Seed: 7, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Figures) == 0 {
				t.Fatal("no figures")
			}
			for _, fig := range res.Figures {
				if fig.ID == "" || fig.Title == "" {
					t.Errorf("figure missing metadata: %+v", fig.ID)
				}
				if len(fig.Series) == 0 {
					t.Error("figure has no series")
				}
				for _, s := range fig.Series {
					if len(s.Points) == 0 {
						t.Errorf("series %q empty", s.Name)
					}
				}
				if len(fig.Notes) == 0 {
					t.Error("figure has no headline notes")
				}
				var buf bytes.Buffer
				if err := fig.WriteCSV(&buf); err != nil {
					t.Errorf("CSV: %v", err)
				}
				if out := fig.ASCII(60, 12); !strings.Contains(out, fig.ID) {
					t.Errorf("ASCII render broken for %s", fig.ID)
				}
			}
		})
	}
}

func TestFig7aShape(t *testing.T) {
	res, err := runFig7a(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	series := map[string]int{}
	for i, s := range fig.Series {
		series[s.Name] = i
	}
	cache := fig.Series[series["Cache"]]
	coding := fig.Series[series["Coding"]]
	internet := fig.Series[series["Internet"]]
	// Paper headline: 95% of paths ≤150 ms for cache and coding.
	if x := xAtY(cache, 0.95); x > 160 {
		t.Errorf("cache p95 = %.0f ms", x)
	}
	if x := xAtY(coding, 0.95); x > 175 {
		t.Errorf("coding p95 = %.0f ms", x)
	}
	// Internet has a heavier tail than forwarding.
	fwd := fig.Series[series["Fwd"]]
	if xAtY(internet, 0.99) <= xAtY(fwd, 0.99) {
		t.Error("internet tail not heavier than forwarding")
	}
}

func TestFig7bShape(t *testing.T) {
	res, err := runFig7b(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	caching, coding := fig.Series[0], fig.Series[1]
	// Caching recovers strictly faster than coding; both mostly ≤0.5 RTT.
	if yAt(caching, 0.25) <= yAt(coding, 0.25) {
		t.Error("caching not faster than coding at 0.25 RTT")
	}
	if y := yAt(caching, 0.5); y < 0.85 {
		t.Errorf("caching within 0.5 RTT = %.2f", y)
	}
}

func TestFig8aHeadline(t *testing.T) {
	outs := runFig8Deployment(3, fig8Defaults(true))
	lost, rec := 0, 0
	for _, po := range outs {
		lost += po.directLost
		rec += po.recoveredInT
	}
	if lost == 0 {
		t.Fatal("no losses simulated")
	}
	// Quick mode rarely samples outages, so recovery is near-complete
	// minus shared-fate access losses; anything below 60% means the
	// recovery machinery regressed.
	if rate := float64(rec) / float64(lost); rate < 0.6 {
		t.Errorf("recovery rate = %.2f (%d/%d)", rate, rec, lost)
	}
}

func TestFig9aOrdering(t *testing.T) {
	res, err := runFig9a(Options{Seed: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	// Compare the mass of bad frames (PSNR ≤ 30 dB): the outage freezes
	// a block of frames on the Internet curve, while forwarding and
	// CR-WAN ride it out.
	bad := map[string]float64{}
	for _, s := range fig.Series {
		bad[s.Name] = yAt(s, 30)
	}
	if bad["Internet"] < 0.08 {
		t.Errorf("Internet bad-frame mass %.2f — outage invisible", bad["Internet"])
	}
	if bad["Fwd"] > bad["Internet"]/3 {
		t.Errorf("Fwd bad-frame mass %.2f vs Internet %.2f", bad["Fwd"], bad["Internet"])
	}
	// Quick mode's short outage keeps more boundary noise; demand a
	// clear improvement rather than the full-scale near-elimination.
	if bad["CR-WAN"] > bad["Internet"]*0.7 {
		t.Errorf("CR-WAN bad-frame mass %.2f vs Internet %.2f", bad["CR-WAN"], bad["Internet"])
	}
	// The reference: without the outage, the Internet path alone renders
	// every frame, so the bad frames above are the outage's.
	clean := runVideoScenario(2, videoScenario{name: "clean", service: core.ServiceInternet}, true)
	if clean.goodFrames != 1 {
		t.Errorf("clean Internet path good frames %.3f, want 1", clean.goodFrames)
	}
}

func TestFig9bTailReduction(t *testing.T) {
	internet := runTCPBatch(5, 400, tcpsimNoRecovery())
	crwan := runTCPBatch(5, 400, tcpsimCRWAN())
	if crwan.Quantile(0.995) >= internet.Quantile(0.995) {
		t.Errorf("no tail reduction: internet p99.5 %.2fs vs crwan %.2fs",
			internet.Quantile(0.995), crwan.Quantile(0.995))
	}
	// The ablation: duplicating SYN-ACKs alone cuts some of the tail,
	// duplicating every segment cuts more.
	dup := func(kinds ...tcpsim.SegmentKind) tcpsim.Recovery {
		d := tcpsim.SelectiveDup{Kinds: map[tcpsim.SegmentKind]bool{}, Extra: 6 * time.Millisecond}
		for _, k := range kinds {
			d.Kinds[k] = true
		}
		return d
	}
	synack := runTCPBatch(5, 400, dup(tcpsim.KindSYNACK))
	full := runTCPBatch(5, 400, dup(tcpsim.KindSYN, tcpsim.KindSYNACK, tcpsim.KindRequest, tcpsim.KindData, tcpsim.KindACK))
	if i, s, f := internet.Quantile(0.995), synack.Quantile(0.995), full.Quantile(0.995); !(i > s && s > f) {
		t.Errorf("p99.5: internet %.2fs, SYN-ACK-only %.2fs, full duplication %.2fs — want strictly falling", i, s, f)
	}
}

// TestFairshareHeadline asserts the experiment's acceptance contract:
// under 2× bulk saturation of a single shared link, the interactive
// class meets its delivery budget with the DRR scheduler on and misses
// it with the legacy FIFO.
func TestFairshareHeadline(t *testing.T) {
	res, err := runFairshare(Options{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	if len(fig.Series) != 2 {
		t.Fatalf("fairshare has %d series, want 2", len(fig.Series))
	}
	// Series 0 is the scheduled run, series 1 the FIFO run; compare
	// mean-latency tails: the FIFO run's last bucket must be far past
	// the 100 ms budget, the scheduled run's under it.
	wfq, fifo := fig.Series[0], fig.Series[1]
	wfqLast := wfq.Points[len(wfq.Points)-1].Y
	fifoLast := fifo.Points[len(fifo.Points)-1].Y
	if wfqLast > 100 {
		t.Errorf("scheduled run's late-bucket latency %.1f ms blows the 100 ms budget", wfqLast)
	}
	if fifoLast < 200 {
		t.Errorf("FIFO run's late-bucket latency %.1f ms — contention invisible", fifoLast)
	}
}

// TestBackpressureHeadline asserts the feedback acceptance contract on
// the shared saturated link: with congestion feedback the interactive
// flow meets ≥95% of its budget and its class's egress drops fall at
// least 10× versus the scheduler-only run.
func TestBackpressureHeadline(t *testing.T) {
	res, err := runBackpressure(Options{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	notes := strings.Join(res.Figures[0].Notes, "\n")
	var onTime, sent, onDrops uint64
	var offOnTime, offSent, offDrops uint64
	var worst float64
	var admDrops, pacedKB uint64
	if _, err := fmt.Sscanf(findNote(t, notes, "feedback ON"),
		"feedback ON:  interactive %d/%d on time (worst %f ms); forwarding-class egress drops %d; greedy admission drops %d; %d kB paced under cuts",
		&onTime, &sent, &worst, &onDrops, &admDrops, &pacedKB); err != nil {
		t.Fatalf("ON note malformed: %v\n%s", err, notes)
	}
	if _, err := fmt.Sscanf(findNote(t, notes, "feedback OFF"),
		"feedback OFF: interactive %d/%d on time (worst %f ms); forwarding-class egress drops %d",
		&offOnTime, &offSent, &worst, &offDrops); err != nil {
		t.Fatalf("OFF note malformed: %v\n%s", err, notes)
	}
	if sent == 0 || offSent == 0 {
		t.Fatal("no interactive traffic")
	}
	if frac := float64(onTime) / float64(sent); frac < 0.95 {
		t.Errorf("feedback run on-time fraction %.2f (%d/%d), want ≥0.95", frac, onTime, sent)
	}
	if offDrops == 0 {
		t.Fatal("scheduler-only run saw no forwarding-class drops — contention invisible")
	}
	if onDrops*10 > offDrops {
		t.Errorf("class drops %d with feedback vs %d without — not a 10× reduction", onDrops, offDrops)
	}
	// The pressure moved to the ingress: the greedy flows were paced and
	// their excess died as admission drops, not egress drops.
	if admDrops == 0 || pacedKB == 0 {
		t.Errorf("no pacing visible: admission drops %d, paced %d kB", admDrops, pacedKB)
	}
}

// findNote returns the first note line containing marker.
func findNote(t *testing.T, notes, marker string) string {
	t.Helper()
	for _, line := range strings.Split(notes, "\n") {
		if strings.Contains(line, marker) {
			return line
		}
	}
	t.Fatalf("no note contains %q:\n%s", marker, notes)
	return ""
}

func TestCostHeadline(t *testing.T) {
	res, err := runCost(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Figures[0].Notes, "\n")
	if !strings.Contains(joined, "16x") {
		t.Errorf("cost ratio missing from notes:\n%s", joined)
	}
}

func TestK20Recovery(t *testing.T) {
	res, err := runK20(Options{Seed: 4, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	notes := strings.Join(res.Figures[0].Notes, "\n")
	if !strings.Contains(notes, "recovered") {
		t.Errorf("k20 notes: %s", notes)
	}
	// Recovery percentage lives in the single bar point.
	rate := res.Figures[0].Series[0].Points[0].Y
	if rate < 85 {
		t.Errorf("k=20 recovery = %.0f%%, want >85%%", rate)
	}
}
