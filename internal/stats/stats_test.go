package stats

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// addAll records each of vs in s.
func addAll(s *Sample, vs ...float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

func TestSampleBasics(t *testing.T) {
	s := NewSample(4)
	addAll(s, 3, 1, 2, 4)
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := s.Max(); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Max() != 0 {
		t.Error("empty sample should report zeros")
	}
	if got := s.FractionBelow(10); got != 0 {
		t.Errorf("FractionBelow on empty = %v, want 0", got)
	}
	if cdf := s.CDF("e"); len(cdf.Points) != 0 {
		t.Errorf("CDF on empty has %d points", len(cdf.Points))
	}
}

func TestSampleRejectsNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(NaN) did not panic")
		}
	}()
	var s Sample
	s.Add(math.NaN())
}

func TestQuantileInterpolation(t *testing.T) {
	var s Sample
	addAll(&s, 0, 10)
	cases := []struct{ q, want float64 }{
		{0, 0}, {0.25, 2.5}, {0.5, 5}, {0.75, 7.5}, {1, 10},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileSingleValue(t *testing.T) {
	var s Sample
	s.Add(7)
	if got := s.Quantile(0.9); got != 7 {
		t.Errorf("Quantile(0.9) = %v, want 7", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	var s Sample
	s.Add(1)
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			s.Quantile(q)
		}()
	}
}

func TestQuantileOrderedProperty(t *testing.T) {
	// Property: quantiles are monotone in q and bounded by min/max.
	f := func(vals []float64, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && a >= s.Quantile(0) && b <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionBelow(t *testing.T) {
	var s Sample
	addAll(&s, 1, 2, 2, 3)
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := s.FractionBelow(c.x); got != c.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFDistinctAndMonotone(t *testing.T) {
	var s Sample
	addAll(&s, 5, 1, 5, 2, 2, 9)
	cdf := s.CDF("x")
	if len(cdf.Points) != 4 { // distinct values: 1 2 5 9
		t.Fatalf("CDF has %d points, want 4", len(cdf.Points))
	}
	if !sort.SliceIsSorted(cdf.Points, func(i, j int) bool { return cdf.Points[i].X < cdf.Points[j].X }) {
		t.Error("CDF x values not sorted")
	}
	last := cdf.Points[len(cdf.Points)-1]
	if last.Y != 1 {
		t.Errorf("final CDF y = %v, want 1", last.Y)
	}
	// y at x=2 must count both 2s and the 1: 3/6.
	if got := cdf.Points[1]; got.X != 2 || got.Y != 0.5 {
		t.Errorf("point[1] = %+v, want {2 0.5}", got)
	}
}

func TestCCDF(t *testing.T) {
	var s Sample
	addAll(&s, 1, 2, 3, 4)
	ccdf := s.CCDF("x")
	if got := ccdf.Points[len(ccdf.Points)-1].Y; got != 0 {
		t.Errorf("final CCDF y = %v, want 0", got)
	}
	if got := ccdf.Points[0].Y; got != 0.75 {
		t.Errorf("first CCDF y = %v, want 0.75", got)
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{ID: "t", XLabel: "x,ms", YLabel: "cdf"}
	f.AddSeries(Series{Name: "a", Points: []Point{{1, 0.5}, {2, 1}}})
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "series,\"x,ms\",cdf\na,1,0.5\na,2,1\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestFigureASCII(t *testing.T) {
	f := Figure{ID: "fig", Title: "demo", XLabel: "ms", YLabel: "cdf"}
	var s Sample
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	f.AddSeries(s.CDF("line"))
	f.AddNote("p95=%.0f", s.Quantile(0.95))
	out := f.ASCII(40, 10)
	for _, want := range []string{"fig — demo", "[*] line", "note: p95=94"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureASCIIEmpty(t *testing.T) {
	f := Figure{ID: "e", Title: "empty"}
	if out := f.ASCII(40, 10); !strings.Contains(out, "empty figure") {
		t.Errorf("empty figure render: %q", out)
	}
}

func TestFigureASCIILogX(t *testing.T) {
	f := Figure{ID: "l", Title: "log", LogX: true, XLabel: "pct"}
	f.AddSeries(Series{Name: "s", Points: []Point{{10, 0.1}, {100, 0.5}, {10000, 1}}})
	out := f.ASCII(40, 8)
	if !strings.Contains(out, "(log)") {
		t.Errorf("log axis label missing:\n%s", out)
	}
}

func TestSummaryAgainstKnownDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Sample
	for i := 0; i < 100000; i++ {
		s.Add(rng.Float64())
	}
	if med, p95 := s.Median(), s.Quantile(0.95); math.Abs(med-0.5) > 0.01 || math.Abs(p95-0.95) > 0.01 {
		t.Errorf("uniform sample: median %v, p95 %v", med, p95)
	}
}

// TestSampleMatchesFullSort is the differential oracle for the incremental
// sort: over random interleavings of Add and reads, every answer — and the
// storage order itself — is bit-equal to sorting the whole history on each
// read.
func TestSampleMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// model is what Sample stored before this change: sorted by the last
	// read, arrivals appended after.
	var s Sample
	var model []float64
	sortModel := func() { sort.Float64s(model) }
	same := func(step int, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: %s = %v (%#x), full sort gives %v (%#x)", step, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	reads := 0
	for step := 0; step < 30000; step++ {
		if step%6000 == 0 { // five histories, so the model's sorts stay short
			s, model = Sample{}, nil
		}
		if step%6000 == 2999 { // once in each, more new values than old
			for i := len(model) + 10; i > 0; i-- {
				v := rng.NormFloat64()
				s.Add(v)
				model = append(model, v)
			}
		}
		switch r := rng.Intn(40); {
		case r < 30:
			v := math.Round(rng.ExpFloat64()*50) / 4 // quarter-steps: duplicates are common
			// Never -0: ±0 compare equal, so no sort fixes their order.
			if rng.Intn(10) == 0 && v != 0 {
				v = -v
			}
			s.Add(v)
			model = append(model, v)
			continue
		case len(model) == 0:
			continue
		case r < 32:
			q := rng.Float64()
			got := s.Quantile(q)
			sortModel()
			pos := q * float64(len(model)-1)
			lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
			want := model[lo]
			if lo != hi {
				frac := pos - float64(lo)
				want = model[lo]*(1-frac) + model[hi]*frac
			}
			same(step, "Quantile", got, want)
		case r < 34:
			got := s.Values()
			sortModel()
			if len(got) != len(model) {
				t.Fatalf("step %d: %d values, want %d", step, len(got), len(model))
			}
			for i := range got {
				same(step, "Values()[i]", got[i], model[i])
			}
		case r < 35:
			got := s.Quantile(0)
			sortModel()
			same(step, "Quantile(0)", got, model[0])
		case r < 36:
			got := s.Max()
			sortModel()
			same(step, "Max", got, model[len(model)-1])
		case r < 38:
			// No read: the storage order the last read left must match.
			for i := range model {
				same(step, "data[i]", s.data[i], model[i])
			}
			continue
		default:
			x := model[rng.Intn(len(model))]
			got := s.FractionBelow(x)
			sortModel()
			n := sort.SearchFloat64s(model, math.Nextafter(x, math.Inf(1)))
			same(step, "FractionBelow", got, float64(n)/float64(len(model)))
		}
		reads++
		if s.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(model))
		}
	}
	if reads < 2000 {
		t.Errorf("only %d sorting reads", reads)
	}
}
