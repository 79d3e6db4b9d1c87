package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Point is one (x, y) pair in a plotted series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points, typically one CDF line in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a point.
func (s *Series) Append(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt linearly interpolates the series at x. Points must be sorted by X.
// X values outside the series range clamp to the boundary Y values.
func (s *Series) YAt(x float64) float64 {
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
	frac := (x - a.X) / (b.X - a.X)
	return a.Y + frac*(b.Y-a.Y)
}

// XAtY returns the smallest x at which the series reaches y (useful for
// reading "95% of paths are below …" off a CDF). Points must be sorted and
// Y monotonically non-decreasing. Returns the final X if y is never reached.
func (s *Series) XAtY(y float64) float64 {
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

// Figure is a titled collection of series with axis labels — one paper
// figure. It renders to CSV (for external plotting) and ASCII (for the
// terminal harness).
type Figure struct {
	ID     string // e.g. "fig7a"
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	Series []Series
	// Notes carries headline observations printed under the plot and
	// recorded in EXPERIMENTS.md (e.g. "95% of paths ≤ 150 ms").
	Notes []string
}

// AddSeries appends a series to the figure.
func (f *Figure) AddSeries(s Series) { f.Series = append(f.Series, s) }

// AddNote appends a formatted headline note.
func (f *Figure) AddNote(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// WriteCSV emits the figure as long-form CSV: series,x,y — one row per
// point, with a header row. Long form keeps ragged series simple.
func (f *Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "series,%s,%s\n", csvEscape(f.XLabel), csvEscape(f.YLabel)); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", csvEscape(s.Name), p.X, p.Y); err != nil {
				return err
			}
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

var plotMarks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// ASCII renders the figure as a fixed-size character plot with axes,
// legend, and notes. Width and height are the plot-area dimensions in
// characters; sensible minimums are enforced.
func (f *Figure) ASCII(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, p := range s.Points {
			x := p.X
			if f.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	if math.IsInf(minX, 1) { // no points at all
		b.WriteString("(empty figure)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		mark := plotMarks[si%len(plotMarks)]
		for _, p := range s.Points {
			x := p.X
			if f.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			col := int((x - minX) / (maxX - minX) * float64(width-1))
			row := int((p.Y - minY) / (maxY - minY) * float64(height-1))
			grid[height-1-row][col] = mark
		}
	}
	for i, row := range grid {
		yTop := maxY - (maxY-minY)*float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%8.3g |%s|\n", yTop, string(row))
	}
	xl, xr := minX, maxX
	if f.LogX {
		xl, xr = math.Pow(10, minX), math.Pow(10, maxX)
	}
	fmt.Fprintf(&b, "%8s  %-*.4g%*.4g\n", "", width/2, xl, width-width/2, xr)
	axis := f.XLabel
	if f.LogX {
		axis += " (log)"
	}
	fmt.Fprintf(&b, "%8s  x: %s   y: %s\n", "", axis, f.YLabel)
	for si, s := range f.Series {
		fmt.Fprintf(&b, "%8s  [%c] %s\n", "", plotMarks[si%len(plotMarks)], s.Name)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "%8s  note: %s\n", "", n)
	}
	return b.String()
}
