// Package experiments implements one generator per table/figure of the
// paper's evaluation, shared by the cmd/ tools and the benchmark
// harness. Each generator returns structured results and can render
// the same rows/series the paper reports.
//
// Index (see DESIGN.md):
//
//	E1  Figure 1  — proactive probing cost (costmodel)
//	E2  Figure 2  — P[Success] vs N for fixed f (survival)
//	E2a thresholds — first N with P[S] > 0.99 for f = 2, 3, 4
//	E3  Figure 3  — Monte Carlo convergence to Equation 1 (montecarlo)
//	E4  13% stat  — fleet failure log (failure)
//	E5  recovery  — proactive vs reactive repair latency (core, routing,
//	               netsim, tcpmodel)
package experiments

import (
	"fmt"
	"io"
	"math/big"

	"drsnet/internal/costmodel"
	"drsnet/internal/failure"
	"drsnet/internal/montecarlo"
	"drsnet/internal/parallel"
	"drsnet/internal/survival"
)

// ---------------------------------------------------------------
// E1: Figure 1 — Response Time vs Number of Nodes.

// Figure1Result holds one cost curve per bandwidth budget.
type Figure1Result struct {
	Params  costmodel.Params
	Budgets []float64
	Nodes   []int
	// Times[b][i] is the round time for Budgets[b] at Nodes[i].
	Times [][]float64
}

// Figure1Workers computes the Figure 1 curves for node counts
// nMin..nMax in steps of step, on the parallel sweep engine: every
// (budget, node) cell is an independent evaluation written into its
// own slot, so the result is bit-identical for every worker count
// (0 = GOMAXPROCS).
func Figure1Workers(params costmodel.Params, budgets []float64, nMin, nMax, step, workers int) (*Figure1Result, error) {
	if step <= 0 {
		return nil, fmt.Errorf("experiments: step must be positive")
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("experiments: no budgets")
	}
	res := &Figure1Result{Params: params, Budgets: budgets}
	for n := nMin; n <= nMax; n += step {
		res.Nodes = append(res.Nodes, n)
	}
	res.Times = make([][]float64, len(budgets))
	for b := range budgets {
		res.Times[b] = make([]float64, len(res.Nodes))
	}
	cells := len(budgets) * len(res.Nodes)
	err := parallel.ForEach(nil, workers, cells, func(i int) error {
		b, j := i/len(res.Nodes), i%len(res.Nodes)
		rt, err := params.ResponseTime(res.Nodes[j], budgets[b])
		if err != nil {
			return err
		}
		res.Times[b][j] = rt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// WriteTable renders the curves as the paper's figure data.
func (r *Figure1Result) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# Figure 1: response time (s) vs number of nodes, %.0f Mb/s network\n",
		r.Params.LinkRate/1e6); err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s", "nodes")
	for _, b := range r.Budgets {
		fmt.Fprintf(w, " %9.0f%%", b*100)
	}
	fmt.Fprintln(w)
	for i, n := range r.Nodes {
		fmt.Fprintf(w, "%6d", n)
		for b := range r.Budgets {
			fmt.Fprintf(w, " %10.4f", r.Times[b][i])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ---------------------------------------------------------------
// E2: Figure 2 — convergence of P[Success] to 1.

// Figure2Result holds one analytic survivability curve per failure
// count.
type Figure2Result struct {
	Failures []int
	NMax     int
	// P[fi][n-(Failures[fi]+1)] = P[Success](n, Failures[fi]).
	P [][]float64
}

// Figure2Workers computes P[Success] for every f in failures and every
// f < N ≤ nMax (the paper plots f < N < 64) on the parallel sweep
// engine. The sweep is sharded over every (f, N) point — not per curve, so short curves do
// not serialize behind long ones — and every point is an independent
// exact evaluation written into its own slot: the result is
// bit-identical for every worker count (0 = GOMAXPROCS).
func Figure2Workers(failures []int, nMax, workers int) (*Figure2Result, error) {
	if len(failures) == 0 {
		return nil, fmt.Errorf("experiments: no failure counts")
	}
	res := &Figure2Result{Failures: failures, NMax: nMax}
	// Flatten the ragged (f, N) grid into one work list.
	type cell struct{ fi, n int }
	var cells []cell
	for fi, f := range failures {
		if f < 1 || f+1 > nMax {
			return nil, fmt.Errorf("experiments: f=%d has no N in range (nMax=%d)", f, nMax)
		}
		res.P = append(res.P, make([]float64, nMax-f))
		for n := f + 1; n <= nMax; n++ {
			cells = append(cells, cell{fi, n})
		}
	}
	_ = parallel.ForEach(nil, workers, len(cells), func(i int) error {
		c := cells[i]
		f := failures[c.fi]
		res.P[c.fi][c.n-(f+1)] = survival.PSuccessFloat(c.n, f)
		return nil
	})
	return res, nil
}

// WriteTable renders the curves.
func (r *Figure2Result) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# Figure 2: P[Success] vs nodes (Equation 1)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s", "nodes")
	for _, f := range r.Failures {
		fmt.Fprintf(w, " %8df", f)
	}
	fmt.Fprintln(w)
	for n := 3; n <= r.NMax; n++ {
		fmt.Fprintf(w, "%6d", n)
		for fi, f := range r.Failures {
			if n <= f {
				fmt.Fprintf(w, " %9s", "-")
				continue
			}
			fmt.Fprintf(w, " %9.5f", r.P[fi][n-(f+1)])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ThresholdRow is one E2a result.
type ThresholdRow struct {
	F     int
	N     int
	P     float64
	Found bool
}

// ThresholdsWorkers computes, for each f, the first N ≤ nMax at which
// P[Success] exceeds target. The paper reports 18, 32 and 45 for
// f = 2, 3, 4 at target 0.99. It runs on the parallel sweep engine:
// each failure count's scan is independent, so rows solve concurrently and
// land in input order (0 = GOMAXPROCS). Results are bit-identical for
// every worker count.
func ThresholdsWorkers(failures []int, target float64, nMax, workers int) ([]ThresholdRow, error) {
	rat := new(big.Rat)
	if rat.SetFloat64(target) == nil {
		return nil, fmt.Errorf("experiments: bad target %v", target)
	}
	rows, err := parallel.Map(nil, workers, len(failures), func(i int) (ThresholdRow, error) {
		f := failures[i]
		n, err := survival.Threshold(f, rat, 2, nMax)
		if err != nil {
			// Not found within range — a data row, not a sweep failure.
			return ThresholdRow{F: f}, nil
		}
		return ThresholdRow{F: f, N: n, P: survival.PSuccessFloat(n, f), Found: true}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WriteThresholds renders E2a.
func WriteThresholds(w io.Writer, rows []ThresholdRow, target float64) error {
	if _, err := fmt.Fprintf(w, "# First N with P[Success] > %.2f\n", target); err != nil {
		return err
	}
	fmt.Fprintf(w, "%4s %6s %10s\n", "f", "N", "P[S](N,f)")
	for _, r := range rows {
		if !r.Found {
			fmt.Fprintf(w, "%4d %6s %10s\n", r.F, "-", "-")
			continue
		}
		fmt.Fprintf(w, "%4d %6d %10.5f\n", r.F, r.N, r.P)
	}
	return nil
}

// ---------------------------------------------------------------
// E3: Figure 3 — convergence of the simulation to Equation 1.

// Figure3Result wraps the Monte Carlo convergence study.
type Figure3Result struct {
	Config montecarlo.ConvergenceConfig
	Series []montecarlo.ConvergenceSeries
}

// Figure3 runs the convergence study.
func Figure3(cfg montecarlo.ConvergenceConfig) (*Figure3Result, error) {
	series, err := montecarlo.Convergence(cfg)
	if err != nil {
		return nil, err
	}
	return &Figure3Result{Config: cfg, Series: series}, nil
}

// Figure3Defaults returns the paper's configuration: f = 2..10,
// f < N < 64, iterations on a log10 ladder.
func Figure3Defaults() montecarlo.ConvergenceConfig {
	return montecarlo.ConvergenceConfig{
		Failures:   []int{2, 3, 4, 5, 6, 7, 8, 9, 10},
		NMax:       63,
		Iterations: []int64{10, 100, 1000, 10000, 100000},
		Seed:       1,
	}
}

// WriteTable renders the mean-absolute-deviation curves (the paper's
// y-axis) against the iteration ladder (log10 x-axis).
func (r *Figure3Result) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# Figure 3: mean |simulated - analytic| over f<N<%d vs iterations\n",
		r.Config.NMax+1); err != nil {
		return err
	}
	fmt.Fprintf(w, "%10s", "iters")
	for _, s := range r.Series {
		fmt.Fprintf(w, " %9df", s.F)
	}
	fmt.Fprintln(w)
	for i, iters := range r.Config.Iterations {
		fmt.Fprintf(w, "%10d", iters)
		for _, s := range r.Series {
			fmt.Fprintf(w, " %10.6f", s.MAD[i])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ---------------------------------------------------------------
// E4: the 13% motivating statistic.

// Fleet generates the fleet failure log and returns its summary.
func Fleet(cfg failure.FleetConfig) (*failure.FleetLog, failure.FleetSummary, error) {
	log, err := failure.GenerateFleetLog(cfg)
	if err != nil {
		return nil, failure.FleetSummary{}, err
	}
	return log, log.Summary(), nil
}

// WriteFleet renders the summary.
func WriteFleet(w io.Writer, log *failure.FleetLog) error {
	s := log.Summary()
	if _, err := fmt.Fprintf(w, "# Fleet failure log: %d servers, %d days, seed %d\n",
		log.Config.Servers, log.Config.Days, log.Config.Seed); err != nil {
		return err
	}
	fmt.Fprintf(w, "total hardware failures: %d\n", s.Total)
	for cat, count := range s.ByCategory {
		if count == 0 {
			continue
		}
		tag := ""
		if failure.Category(cat).IsNetwork() {
			tag = "  [network]"
		}
		fmt.Fprintf(w, "  %-8s %4d (%5.1f%%)%s\n",
			failure.Category(cat), count, 100*float64(count)/float64(s.Total), tag)
	}
	fmt.Fprintf(w, "network-related fraction: %.1f%% (paper: 13%%)\n", 100*s.NetworkFraction)
	return nil
}
