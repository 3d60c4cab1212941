// Command drscost regenerates the paper's Figure 1: the response time
// of a full DRS link-check round versus cluster size, for several
// probe-bandwidth budgets on a 100 Mb/s network.
//
// Usage:
//
//	drscost [-rate bits] [-frame bytes] [-budgets list] [-min n] [-max n]
//	        [-step n] [-workers w] [-plot]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"drsnet/internal/costmodel"
	"drsnet/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("drscost", flag.ContinueOnError)
	flags.SetOutput(stderr)
	rate := flags.Float64("rate", costmodel.DefaultLinkRate, "link rate in bits/s")
	frame := flags.Int("frame", costmodel.DefaultFrameBytes, "probe frame size on the wire (bytes)")
	budgets := flags.String("budgets", "5,10,15,25", "bandwidth budgets in percent, comma separated")
	minN := flags.Int("min", 2, "smallest cluster size")
	maxN := flags.Int("max", 128, "largest cluster size")
	step := flags.Int("step", 2, "cluster size step")
	workers := flags.Int("workers", 0, "sweep worker goroutines (0 = all CPUs); output is identical for every count")
	plot := flags.Bool("plot", false, "render the figure as an ASCII chart instead of a table")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	params := costmodel.Params{LinkRate: *rate, FrameBytes: *frame}
	var buds []float64
	for _, tok := range strings.Split(*budgets, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			fmt.Fprintf(stderr, "drscost: bad budget %q: %v\n", tok, err)
			return 1
		}
		buds = append(buds, v/100)
	}

	res, err := experiments.Figure1Workers(params, buds, *minN, *maxN, *step, *workers)
	if err != nil {
		fmt.Fprintf(stderr, "drscost: %v\n", err)
		return 1
	}
	write := res.WriteTable
	if *plot {
		write = res.WritePlot
	}
	if err := write(stdout); err != nil {
		fmt.Fprintf(stderr, "drscost: %v\n", err)
		return 1
	}

	// The paper's headline, recomputed for the chosen parameters.
	for _, b := range buds {
		n, err := params.MaxNodes(b, 1.0)
		if err != nil {
			continue
		}
		fmt.Fprintf(stdout, "# budget %4.0f%%: up to %d hosts checked in < 1 s\n", b*100, n)
	}
	return 0
}
