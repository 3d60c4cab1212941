package asciiplot

import (
	"math"
	"strings"
	"testing"
)

func render(t *testing.T, cfg Config, series ...Series) string {
	t.Helper()
	var sb strings.Builder
	if err := Render(&sb, cfg, series...); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestBasicPlacement(t *testing.T) {
	// A 3-point diagonal on a tiny canvas: corners must be hit.
	out := render(t, Config{Width: 11, Height: 5},
		Series{Name: "diag", X: []float64{0, 5, 10}, Y: []float64{0, 5, 10}})
	lines := strings.Split(out, "\n")
	// Row 0 is y=10 (top): marker at last column of the plot area.
	top := lines[0]
	if !strings.HasSuffix(top, "*") {
		t.Fatalf("top row misses the (10,10) point: %q", top)
	}
	// Bottom plot row is y=0: marker right after the axis bar.
	bottom := lines[4]
	if !strings.Contains(bottom, "|*") {
		t.Fatalf("bottom row misses the (0,0) point: %q", bottom)
	}
	// Middle row has the midpoint.
	if !strings.Contains(lines[2], "*") {
		t.Fatalf("middle row misses (5,5): %q", lines[2])
	}
}

func TestAxisLabels(t *testing.T) {
	out := render(t, Config{Width: 20, Height: 5, Title: "T", XLabel: "nodes", YLabel: "P"},
		Series{Name: "s", X: []float64{1, 100}, Y: []float64{0.5, 0.99}})
	for _, want := range []string{"T", "nodes", "P", "0.99", "0.50", "100", "* s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMultipleSeriesMarkers(t *testing.T) {
	out := render(t, Config{Width: 20, Height: 5},
		Series{Name: "a", X: []float64{0, 1}, Y: []float64{0, 0}},
		Series{Name: "b", X: []float64{0, 1}, Y: []float64{1, 1}})
	if !strings.Contains(out, "* a") || !strings.Contains(out, "+ b") {
		t.Fatalf("legend wrong:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("markers missing:\n%s", out)
	}
}

func TestLogXAxis(t *testing.T) {
	out := render(t, Config{Width: 21, Height: 5, LogX: true},
		Series{Name: "mad", X: []float64{10, 1000, 100000}, Y: []float64{3, 2, 1}})
	if !strings.Contains(out, "10^1") || !strings.Contains(out, "10^5") {
		t.Fatalf("log ticks missing:\n%s", out)
	}
	// 1000 is the geometric midpoint: its marker must land mid-plot.
	lines := strings.Split(out, "\n")
	mid := lines[2]
	idx := strings.IndexRune(mid, '*')
	if idx < 0 {
		t.Fatalf("midpoint missing:\n%s", out)
	}
	bar := strings.IndexRune(mid, '|')
	col := idx - bar - 1
	if col < 8 || col > 12 {
		t.Fatalf("log midpoint at column %d of 21, want ~10:\n%s", col, out)
	}
}

func TestFixedYRangeClipping(t *testing.T) {
	out := render(t, Config{Width: 12, Height: 4, YMin: 0, YMax: 1},
		Series{Name: "s", X: []float64{0, 1, 2}, Y: []float64{0.5, 5, -3}})
	// Out-of-range points are dropped, not clamped into the frame.
	count := strings.Count(out, "*")
	if count != 1+1 { // one plotted point + one legend marker
		t.Fatalf("plotted %d markers, want 1 (plus legend):\n%s", count-1, out)
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	if err := Render(&sb, Config{}); err == nil {
		t.Error("no series accepted")
	}
	if err := Render(&sb, Config{}, Series{X: []float64{1}, Y: []float64{1, 2}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := Render(&sb, Config{Width: 2, Height: 2}, Series{X: []float64{1}, Y: []float64{1}}); err == nil {
		t.Error("tiny canvas accepted")
	}
	if err := Render(&sb, Config{LogX: true}, Series{X: []float64{0}, Y: []float64{1}}); err == nil {
		t.Error("nonpositive x on log axis accepted")
	}
	if err := Render(&sb, Config{}, Series{X: []float64{math.NaN()}, Y: []float64{1}}); err == nil {
		t.Error("all-NaN series accepted")
	}
	if err := Render(&sb, Config{YMin: 1, YMax: 1}, Series{X: []float64{1}, Y: []float64{1}}); err == nil {
		t.Error("degenerate fixed y range accepted")
	}
}

func TestConstantSeries(t *testing.T) {
	// Degenerate ranges (single point, constant y) must still render.
	out := render(t, Config{Width: 10, Height: 4},
		Series{Name: "c", X: []float64{5}, Y: []float64{2}})
	if !strings.Contains(out, "*") {
		t.Fatalf("single point not plotted:\n%s", out)
	}
}

func TestNaNPointsSkipped(t *testing.T) {
	out := render(t, Config{Width: 12, Height: 4},
		Series{Name: "s", X: []float64{0, 1, 2}, Y: []float64{1, math.NaN(), 3}})
	count := strings.Count(out, "*") - 1 // minus legend
	if count != 2 {
		t.Fatalf("plotted %d points, want 2:\n%s", count, out)
	}
}

// Every plot row, labelled or not, puts its axis bar in the column of
// the x axis's corner.
func TestAxisBarOneColumn(t *testing.T) {
	out := render(t, Config{Width: 20, Height: 7, YLabel: "P"},
		Series{Name: "s", X: []float64{1, 100}, Y: []float64{0.5, 0.99}})
	lines := strings.Split(out, "\n")
	col := strings.IndexByte(lines[8], '+') // below the y label and 7 rows
	for r, line := range lines[1:8] {
		if got := strings.IndexByte(line, '|'); got != col {
			t.Errorf("row %d's bar at column %d, the x axis's corner at %d:\n%s", r, got, col, out)
		}
	}
}
