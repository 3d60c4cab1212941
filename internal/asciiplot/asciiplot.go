// Package asciiplot renders line charts as plain text, so the cmd/
// tools can reproduce the paper's figures — not just their data — in a
// terminal. It supports multiple series, automatic axis scaling, and a
// logarithmic x-axis (Figure 3 plots iterations on log10).
package asciiplot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one curve.
type Series struct {
	Name string
	X, Y []float64
}

// Config controls the rendering.
type Config struct {
	// Title is printed above the plot.
	Title string
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
	// Width and Height are the plot area in character cells
	// (default 72×20).
	Width, Height int
	// LogX plots x on a log10 scale (all x must be positive).
	LogX bool
	// YMin/YMax fix the y range; when both are zero the range is
	// derived from the data.
	YMin, YMax float64
}

// markers assigns one rune per series, cycling if there are many.
var markers = []rune{'*', '+', 'o', 'x', '#', '@', '%', '&', '~'}

// Render draws the chart to w.
func Render(w io.Writer, cfg Config, series ...Series) error {
	if len(series) == 0 {
		return fmt.Errorf("asciiplot: no series")
	}
	if cfg.Width <= 0 {
		cfg.Width = 72
	}
	if cfg.Height <= 0 {
		cfg.Height = 20
	}
	if cfg.Width < 8 || cfg.Height < 4 {
		return fmt.Errorf("asciiplot: plot area %dx%d too small", cfg.Width, cfg.Height)
	}

	// Determine ranges.
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("asciiplot: series %q has %d x values and %d y values",
				s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			if cfg.LogX && x <= 0 {
				return fmt.Errorf("asciiplot: log x-axis requires positive x, have %v", x)
			}
			points++
			xMin, xMax = math.Min(xMin, x), math.Max(xMax, x)
			yMin, yMax = math.Min(yMin, y), math.Max(yMax, y)
		}
	}
	if points == 0 {
		return fmt.Errorf("asciiplot: no finite points")
	}
	if cfg.YMin != 0 || cfg.YMax != 0 {
		yMin, yMax = cfg.YMin, cfg.YMax
		if !(yMax > yMin) {
			return fmt.Errorf("asciiplot: fixed y range [%v,%v] invalid", yMin, yMax)
		}
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	if xMax == xMin {
		xMax = xMin + 1
	}

	xPos := func(x float64) int {
		var frac float64
		if cfg.LogX {
			frac = (math.Log10(x) - math.Log10(xMin)) / (math.Log10(xMax) - math.Log10(xMin))
		} else {
			frac = (x - xMin) / (xMax - xMin)
		}
		col := int(math.Round(frac * float64(cfg.Width-1)))
		if col < 0 {
			col = 0
		}
		if col >= cfg.Width {
			col = cfg.Width - 1
		}
		return col
	}
	yPos := func(y float64) int {
		frac := (y - yMin) / (yMax - yMin)
		row := int(math.Round((1 - frac) * float64(cfg.Height-1)))
		if row < 0 {
			row = 0
		}
		if row >= cfg.Height {
			row = cfg.Height - 1
		}
		return row
	}

	// Paint the grid.
	grid := make([][]rune, cfg.Height)
	for r := range grid {
		grid[r] = make([]rune, cfg.Width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			if y < yMin || y > yMax {
				continue
			}
			grid[yPos(y)][xPos(x)] = m
		}
	}

	// Emit.
	if cfg.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", cfg.Title); err != nil {
			return err
		}
	}
	if cfg.YLabel != "" {
		fmt.Fprintf(w, "%s\n", cfg.YLabel)
	}
	const gutter = 7
	for r, row := range grid {
		label := ""
		switch r {
		case 0:
			label = axisLabel(yMax)
		case cfg.Height - 1:
			label = axisLabel(yMin)
		case (cfg.Height - 1) / 2:
			label = axisLabel((yMin + yMax) / 2)
		}
		fmt.Fprintf(w, "%*s |%s\n", gutter, label, string(row))
	}
	fmt.Fprintf(w, "%*s +%s\n", gutter, "", strings.Repeat("-", cfg.Width))
	lo, hi := axisLabel(xMin), axisLabel(xMax)
	if cfg.LogX {
		lo = fmt.Sprintf("10^%.0f", math.Log10(xMin))
		hi = fmt.Sprintf("10^%.0f", math.Log10(xMax))
	}
	pad := cfg.Width - len(lo) - len(hi)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(w, "%*s %s%s%s\n", gutter, "", lo, strings.Repeat(" ", pad), hi)
	if cfg.XLabel != "" {
		fmt.Fprintf(w, "%*s %s\n", gutter, "", center(cfg.XLabel, cfg.Width))
	}
	// Legend.
	var legend []string
	for si, s := range series {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("series %d", si+1)
		}
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], name))
	}
	fmt.Fprintf(w, "%*s %s\n", gutter, "", strings.Join(legend, "   "))
	return nil
}

func axisLabel(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 10000 || av < 0.001:
		return fmt.Sprintf("%.1e", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func center(s string, width int) string {
	if len(s) >= width {
		return s
	}
	left := (width - len(s)) / 2
	return strings.Repeat(" ", left) + s
}
