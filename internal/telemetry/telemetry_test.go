package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram("lat_ms", "ms", 10, 20, 40)
	for _, v := range []float64{1, 9, 10, 11, 25, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	// Buckets are ≤10, ≤20, ≤40, +Inf.
	want := []uint64{3, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Sum != 156 {
		t.Fatalf("sum = %v, want 156", s.Sum)
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no-bounds":         func() { NewHistogram("x", "") },
		"unordered-bounds":  func() { NewHistogram("x", "", 10, 10) },
		"descending-bounds": func() { NewHistogram("x", "", 20, 10) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestRingRecordAndSince(t *testing.T) {
	r := NewRing(4)
	var seqs []uint64
	for i := 0; i < 3; i++ {
		seqs = append(seqs, r.Record(Event{Kind: KindReroute, Flow: 1, V1: int64(i)}))
	}
	if seqs[0] != 1 || seqs[2] != 3 {
		t.Fatalf("seqs = %v, want 1..3", seqs)
	}
	all := r.Events(nil)
	if len(all) != 3 || all[0].V1 != 0 || all[2].V1 != 2 {
		t.Fatalf("events = %+v", all)
	}
	// Reading does not consume.
	if again := r.Events(nil); len(again) != 3 {
		t.Fatalf("second read = %d events, want 3", len(again))
	}
	since := r.Since(nil, seqs[1], 0)
	if len(since) != 1 || since[0].Seq != seqs[2] {
		t.Fatalf("since = %+v", since)
	}
	if capped := r.Since(nil, 0, 2); len(capped) != 2 {
		t.Fatalf("max=2 returned %d events", len(capped))
	}
}

// TestRingSinceBoundsAppendedEvents: max bounds the events one call
// appends, whatever dst already holds.
func TestRingSinceBoundsAppendedEvents(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindReroute, V1: int64(i)})
	}
	for _, tc := range []struct {
		name      string
		dst       int
		seq       uint64
		max, want int
	}{
		{"empty dst", 0, 0, 3, 3},
		{"dst shorter than max", 2, 0, 3, 3},
		{"dst as long as max", 3, 0, 3, 3},
		{"dst longer than max", 7, 1, 2, 2},
		{"max beyond what is new", 4, 3, 5, 2},
		{"max 0 means all", 6, 0, 0, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := make([]Event, tc.dst)
			got := r.Since(dst, tc.seq, tc.max)
			if n := len(got) - tc.dst; n != tc.want {
				t.Fatalf("Since appended %d events, want %d", n, tc.want)
			}
			if tc.want > 0 && got[tc.dst].Seq != tc.seq+1 {
				t.Fatalf("first appended seq = %d, want %d", got[tc.dst].Seq, tc.seq+1)
			}
		})
	}
}

func TestRingOverwrite(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindEgressDrop, V1: int64(i)})
	}
	st := r.Stats()
	if st.Recorded != 5 || st.Dropped != 2 || st.Buffered != 3 || st.Capacity != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByKind[KindEgressDrop] != 5 {
		t.Fatalf("ByKind = %v", st.ByKind)
	}
	// The oldest two events were overwritten; V1 2..4 remain in order.
	ev := r.Events(nil)
	if len(ev) != 3 || ev[0].V1 != 2 || ev[2].V1 != 4 {
		t.Fatalf("events after wrap = %+v", ev)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatalf("seq gap after wrap: %+v", ev)
		}
	}
}

func TestRingConcurrentRecord(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(Event{Kind: KindPacerCut})
				r.Since(nil, 0, 8)
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Recorded != 4000 {
		t.Fatalf("recorded = %d, want 4000", st.Recorded)
	}
}

func TestEventDescribeCoversAllKinds(t *testing.T) {
	for k := 0; k < NumKinds; k++ {
		e := Event{Kind: Kind(k), Flow: 3, At: time.Second}
		if d := e.Describe(); d == "" || strings.Contains(d, "kind(") {
			t.Fatalf("kind %v has no Describe arm: %q", Kind(k), d)
		}
		if Kind(k).String() == "" || strings.HasPrefix(Kind(k).String(), "kind(") {
			t.Fatalf("kind %d has no String arm", k)
		}
	}
}

// testSnapshot builds a small but fully populated snapshot.
func testSnapshot() *Snapshot {
	h := NewHistogram("app_lat_ms", "ms", 10, 20)
	h.Observe(5)
	h.Observe(50)

	s := &Snapshot{
		At: 3 * time.Second,
		Links: []LinkSnapshot{{
			A: 1, B: 2, Capacity: 1_000_000, Utilization: 0.5,
			AB: DirSnapshot{Bytes: 1000, Packets: 2, ClassBytes: [NumClasses]uint64{0, 0, 400, 600}},
		}},
		Queues: []QueueSnapshot{{From: 1, To: 2, Rounds: 9}},
		Flows: []FlowSnapshot{{
			ID: 1, Service: 3, ServiceName: "forwarding", Sent: 10, Delivered: 8, OnTime: 8,
		}},
		Totals:     Totals{Flows: 1, Sent: 10, Delivered: 8, OnTime: 8, EgressBytes: 1000},
		Counters:   []CounterSnapshot{{Name: "app_ticks_total", Value: 7}},
		Histograms: []HistogramSnapshot{h.Snapshot()},
	}
	s.Queues[0].PerClass[3] = ClassQueueSnapshot{EnqueuedPackets: 5, DequeuedPackets: 4, DroppedPackets: 1}
	s.Trace.Recorded = 4
	s.Trace.ByKind[KindReroute] = 4

	// Continuous SLO engine and hop-level attribution surfaces.
	s.SLO = SLOSnapshot{
		Enabled: true, Objective: 0.95,
		FastWin: time.Second, SlowWin: 5 * time.Second,
		Degrades: 2, Recovers: 1,
		Flows:   []SLOEntry{{Flow: 1, Class: 3, State: SLOAtRisk, StateName: "at-risk", BurnFast: 2.5, BurnSlow: 1.0}},
		Classes: []SLOEntry{{Class: 3, State: SLOMet, StateName: "met"}},
		Tenants: []SLOEntry{{Tenant: 4, Class: 3, State: SLOViolated, StateName: "violated", BurnFast: 6, BurnSlow: 5}},
	}
	var prof SpendProfile
	lateRec := HopRecord{
		Flow: 1, Seq: 9, SentAt: time.Second, DeliveredAt: 2 * time.Second,
		Total: time.Second, Budget: 100 * time.Millisecond, Via: 3, Sampled: true,
	}
	lateRec.Comp[SpanQueue] = 900 * time.Millisecond
	lateRec.Comp[SpanPropagation] = 100 * time.Millisecond
	prof.observe(&lateRec)
	s.Attribution = AttributionSnapshot{
		Enabled: true, Traced: 3, Finished: 1, Dropped: 1, Pending: 1, LateDeliveries: 1,
		Flows: []FlowSpendSnapshot{{Flow: 1, Profile: prof}},
		Queues: []QueueSpendSnapshot{{
			Key:   QueueKey{From: 1, To: 2, Class: 3},
			Spend: QueueSpend{Samples: 1, Late: 1, WaitNs: int64(900 * time.Millisecond), LateWaitNs: int64(900 * time.Millisecond)},
		}},
		Reservoir: []HopRecord{lateRec},
	}
	return s
}

func TestWriteMetricsParses(t *testing.T) {
	var b strings.Builder
	if err := WriteMetrics(&b, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	n, err := ParseMetrics(strings.NewReader(out))
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, out)
	}
	if n < 20 {
		t.Fatalf("only %d samples", n)
	}
	for _, want := range []string{
		"jqos_flows 1\n",
		`jqos_link_bytes_total{from="1",to="2",class="forwarding"} 600`,
		`jqos_queue_dropped_packets_total{from="1",to="2",class="forwarding"} 1`,
		`jqos_trace_events_total{kind="reroute"} 4`,
		"app_ticks_total 7\n",
		`app_lat_ms_bucket{le="+Inf"} 2`,
		"app_lat_ms_count 2\n",
		"jqos_slo_objective 0.95\n",
		"jqos_slo_degrades_total 2\n",
		`jqos_slo_state{flow="1"} 1`,
		`jqos_slo_state{tenant="4"} 2`,
		`jqos_slo_burn_rate{flow="1",window="fast"} 2.5`,
		"jqos_attribution_traced_total 3\n",
		"jqos_attribution_late_deliveries_total 1\n",
		`jqos_attribution_spend_ns_total{flow="1",component="queue"} 900000000`,
		`jqos_attribution_queue_wait_ns_total{from="1",to="2",class="forwarding"} 900000000`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: a second render is byte-identical.
	var b2 strings.Builder
	if err := WriteMetrics(&b2, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Fatal("WriteMetrics output is not deterministic")
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"empty":        "",
		"comment-only": "# HELP x y\n",
		"bad-name":     "9bad 1\n",
		"no-value":     "jqos_flows\n",
		"bad-value":    "jqos_flows x\n",
		"open-brace":   "jqos_flows{a=\"1\" 1\n",
		"unquoted":     "jqos_flows{a=1} 1\n",
	} {
		if _, err := ParseMetrics(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := testSnapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("snapshot does not round-trip through JSON:\n%s\nvs\n%s", data, data2)
	}
}

func TestSummaryMentionsEverySurface(t *testing.T) {
	sum := testSnapshot().Summary()
	for _, want := range []string{"1 flows", "link", "queue", "flow 1", "routing:", "trace:", "slo:", "attribution:"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

// fakeSource serves a fixed snapshot and ring.
type fakeSource struct {
	snap *Snapshot
	ring *Ring
}

func (f *fakeSource) LatestSnapshot() *Snapshot { return f.snap }
func (f *fakeSource) TraceSince(seq uint64, max int) []Event {
	return f.ring.Since(nil, seq, max)
}

func TestServeEndpoints(t *testing.T) {
	ring := NewRing(8)
	for i := 0; i < 3; i++ {
		ring.Record(Event{Kind: KindPacerCut, Flow: 1, V1: int64(i)})
	}
	src := &fakeSource{snap: testSnapshot(), ring: ring}
	srv, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	if n, err := ParseMetrics(strings.NewReader(string(get("/metrics")))); err != nil || n == 0 {
		t.Fatalf("/metrics: %d samples, %v", n, err)
	}
	var snap Snapshot
	if err := json.Unmarshal(get("/snapshot"), &snap); err != nil {
		t.Fatalf("/snapshot: %v", err)
	}
	if snap.Totals.Flows != 1 {
		t.Fatalf("/snapshot totals = %+v", snap.Totals)
	}
	var events []Event
	if err := json.Unmarshal(get("/trace?since=1&max=1"), &events); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(events) != 1 || events[0].Seq != 2 {
		t.Fatalf("/trace?since=1&max=1 = %+v", events)
	}

	// The SLO section has its own endpoint.
	var slo SLOSnapshot
	if err := json.Unmarshal(get("/slo"), &slo); err != nil {
		t.Fatalf("/slo: %v", err)
	}
	if !slo.Enabled || slo.Degrades != 2 || len(slo.Flows) != 1 {
		t.Fatalf("/slo = %+v", slo)
	}

	// No snapshot published yet: /metrics degrades, /snapshot and /slo 503.
	empty := &fakeSource{ring: NewRing(1)}
	srv2, err := Serve("127.0.0.1:0", empty)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for _, path := range []string{"/snapshot", "/slo"} {
		resp, err := http.Get(srv2.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s without publish = %s, want 503", path, resp.Status)
		}
	}
}

// TestServeTracePagination drives /trace?since&max through its edges:
// a cursor at the head, a cursor that aged out of the ring, max=0 (all),
// and a max larger than what is buffered.
func TestServeTracePagination(t *testing.T) {
	ring := NewRing(4)
	var head uint64
	for i := 0; i < 7; i++ { // seqs 1..7; ring keeps 4..7
		head = ring.Record(Event{Kind: KindReroute, V1: int64(i)})
	}
	src := &fakeSource{snap: testSnapshot(), ring: ring}
	srv, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fetch := func(query string) []Event {
		t.Helper()
		resp, err := http.Get(srv.URL() + "/trace" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /trace%s: %s", query, resp.Status)
		}
		var events []Event
		if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
			t.Fatalf("/trace%s: %v", query, err)
		}
		return events
	}

	// Cursor at the newest event: empty JSON array, not null.
	if ev := fetch(fmt.Sprintf("?since=%d", head)); len(ev) != 0 {
		t.Fatalf("since=head returned %d events", len(ev))
	}
	// Cursor beyond the head behaves the same.
	if ev := fetch(fmt.Sprintf("?since=%d", head+100)); len(ev) != 0 {
		t.Fatalf("since>head returned %d events", len(ev))
	}
	// A cursor that aged out of the ring resumes from the oldest
	// buffered event (overwritten events are gone, not an error).
	ev := fetch("?since=1")
	if len(ev) != 4 || ev[0].Seq != 4 || ev[3].Seq != 7 {
		t.Fatalf("since=1 after overwrite = %+v", ev)
	}
	// max=0 means everything buffered; so does an oversized max.
	if ev := fetch("?max=0"); len(ev) != 4 {
		t.Fatalf("max=0 returned %d events", len(ev))
	}
	if ev := fetch("?max=100"); len(ev) != 4 {
		t.Fatalf("max=100 returned %d events", len(ev))
	}
	// max bounds a tail read; the page picks up where the cursor left off.
	page := fetch("?since=4&max=2")
	if len(page) != 2 || page[0].Seq != 5 || page[1].Seq != 6 {
		t.Fatalf("since=4&max=2 = %+v", page)
	}
	next := fetch(fmt.Sprintf("?since=%d&max=2", page[1].Seq))
	if len(next) != 1 || next[0].Seq != 7 {
		t.Fatalf("second page = %+v", next)
	}
}

// TestServeUnencodableSnapshot: a snapshot JSON cannot encode (a NaN burn
// rate) answers 500 on /snapshot and /slo, not a 200 with a truncated
// body.
func TestServeUnencodableSnapshot(t *testing.T) {
	snap := testSnapshot()
	snap.SLO.Flows[0].BurnFast = math.NaN()
	mux := newMux(&fakeSource{snap: snap, ring: NewRing(1)})
	for _, path := range []string{"/snapshot", "/slo"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("GET %s = %d, want 500 (body %q)", path, rec.Code, rec.Body.String())
		}
		if body := rec.Body.String(); !strings.Contains(body, "NaN") || !json.Valid([]byte(body)) {
			t.Errorf("GET %s body %q: want a JSON error naming the NaN", path, body)
		}
	}
}

// TestServeTraceRejectsMalformedQuery: a since or max that is not a
// non-negative integer answers 400 instead of falling back to the whole
// ring.
func TestServeTraceRejectsMalformedQuery(t *testing.T) {
	ring := NewRing(4)
	for i := 0; i < 3; i++ {
		ring.Record(Event{Kind: KindReroute, V1: int64(i)})
	}
	mux := newMux(&fakeSource{snap: testSnapshot(), ring: ring})
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"", http.StatusOK},
		{"?since=1&max=1", http.StatusOK},
		{"?max=0", http.StatusOK},
		{"?since=abc", http.StatusBadRequest},
		{"?since=-1", http.StatusBadRequest},
		{"?since=1.5", http.StatusBadRequest},
		{"?max=-5", http.StatusBadRequest},
		{"?max=ten", http.StatusBadRequest},
		{"?since=1&max=x", http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/trace"+tc.query, nil))
		if rec.Code != tc.code {
			t.Errorf("GET /trace%s = %d, want %d (body %q)", tc.query, rec.Code, tc.code, rec.Body.String())
		}
	}
}
