// Package report generates the full reproduction report: every table,
// figure and ablation of the paper regenerated in one pass and written
// as a single Markdown document with embedded ASCII charts. This is
// the "one command reproduces the paper" entry point behind
// cmd/drsreport.
package report

import (
	"fmt"
	"io"
	"time"

	"drsnet/internal/availability"
	"drsnet/internal/costmodel"
	"drsnet/internal/experiments"
	"drsnet/internal/failure"
	"drsnet/internal/montecarlo"
	"drsnet/internal/runtime"
	"drsnet/internal/survival"
	"drsnet/internal/topology"
)

// Config scales the report generation.
type Config struct {
	// Quick shrinks the Monte Carlo iteration ladders so the whole
	// report generates in seconds (for tests and smoke runs); the
	// full report uses the paper's ranges.
	Quick bool
	// Seed drives every stochastic experiment.
	Seed uint64
}

// Generate writes the complete report to w.
func Generate(w io.Writer, cfg Config) error {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	sections := []func(io.Writer, Config) error{
		header,
		sectionFigure1,
		sectionFigure2,
		sectionFigure3,
		sectionFleet,
		sectionRecovery,
		sectionFlow,
		sectionCoverage,
		sectionOverhead,
		sectionRails,
		sectionAvailability,
	}
	for _, s := range sections {
		if err := s(w, cfg); err != nil {
			return err
		}
	}
	return nil
}

func header(w io.Writer, cfg Config) error {
	mode := "full"
	if cfg.Quick {
		mode = "quick"
	}
	_, err := fmt.Fprintf(w, `# DRS reproduction report

Regenerated from scratch by this repository (%s mode, seed %d).
Paper: Chowdhury, Frieder, Luse, Wan — "Network Survivability Simulation
of a Commercially Deployed Dynamic Routing System Protocol",
IPDPS 2000 Workshops.

`, mode, cfg.Seed)
	return err
}

func codeBlock(w io.Writer, render func(io.Writer) error) error {
	if _, err := fmt.Fprintln(w, "```"); err != nil {
		return err
	}
	if err := render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "```")
	return err
}

func sectionFigure1(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "## Figure 1 — proactive probing cost")
	fmt.Fprintln(w)
	step := 2
	if cfg.Quick {
		step = 8
	}
	res, err := experiments.Figure1Workers(costmodel.Defaults(), costmodel.FigureBudgets, 2, 128, step, 0)
	if err != nil {
		return err
	}
	if err := codeBlock(w, res.WritePlot); err != nil {
		return err
	}
	params := costmodel.Defaults()
	rt, err := params.ResponseTime(90, 0.10)
	if err != nil {
		return err
	}
	maxN, err := params.MaxNodes(0.10, 1.0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nPaper: \"ninety hosts are supported in less than 1 second with only\n")
	fmt.Fprintf(w, "10%% of the bandwidth usage.\" Measured: 90 hosts take %.3f s at 10%%;\n", rt)
	fmt.Fprintf(w, "the 1-second ceiling at 10%% is %d hosts.\n\n", maxN)
	return nil
}

func sectionFigure2(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "## Figure 2 — P[Success] converges to 1 (Equation 1)")
	fmt.Fprintln(w)
	fs := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	if cfg.Quick {
		fs = []int{2, 4, 10}
	}
	res, err := experiments.Figure2Workers(fs, 63, 0)
	if err != nil {
		return err
	}
	if err := codeBlock(w, res.WritePlot); err != nil {
		return err
	}
	rows, err := experiments.ThresholdsWorkers([]int{2, 3, 4}, 0.99, 200, 0)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := codeBlock(w, func(w io.Writer) error {
		return experiments.WriteThresholds(w, rows, 0.99)
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nPaper: thresholds at 18, 32 and 45 nodes — reproduced exactly.\n\n")
	return nil
}

func sectionFigure3(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "## Figure 3 — simulation converges to the model")
	fmt.Fprintln(w)
	mc := experiments.Figure3Defaults()
	mc.Seed = cfg.Seed
	if cfg.Quick {
		mc.Failures = []int{2, 6, 10}
		mc.NMax = 24
		mc.Iterations = []int64{10, 100, 1000, 10000}
	}
	res, err := experiments.Figure3(mc)
	if err != nil {
		return err
	}
	if err := codeBlock(w, res.WritePlot); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := codeBlock(w, res.WriteTable); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func sectionFleet(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "## The 13% statistic — fleet failure log")
	fmt.Fprintln(w)
	fc := failure.DefaultFleetConfig()
	fc.Seed = cfg.Seed
	log, _, err := experiments.Fleet(fc)
	if err != nil {
		return err
	}
	if err := codeBlock(w, func(w io.Writer) error {
		return experiments.WriteFleet(w, log)
	}); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func sectionRecovery(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "## Recovery — proactive vs reactive vs static")
	fmt.Fprintln(w)
	for _, sc := range []experiments.Scenario{
		experiments.ScenarioNIC, experiments.ScenarioBackplane, experiments.ScenarioCrossRail,
	} {
		base := experiments.DefaultRecoveryConfig(runtime.ProtoDRS, sc)
		base.Seed = cfg.Seed
		if cfg.Quick {
			base.Duration = 25 * time.Second
		}
		results, err := experiments.CompareRecovery(base)
		if err != nil {
			return err
		}
		if err := codeBlock(w, func(w io.Writer) error {
			return experiments.WriteRecovery(w, results)
		}); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func sectionFlow(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "## Connection level — \"applications are unaware\"")
	fmt.Fprintln(w)
	base := experiments.DefaultFlowRecoveryConfig(runtime.ProtoDRS, experiments.ScenarioNIC)
	base.Seed = cfg.Seed
	if cfg.Quick {
		base.Duration = 30 * time.Second
	}
	results, err := experiments.CompareFlowRecovery(base)
	if err != nil {
		return err
	}
	if err := codeBlock(w, func(w io.Writer) error {
		return experiments.WriteFlowRecovery(w, results)
	}); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func sectionCoverage(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "## Fault coverage — every 1- and 2-fault scenario, simulated")
	fmt.Fprintln(w)
	ccfg := experiments.DefaultCoverageConfig()
	ccfg.Seed = cfg.Seed
	if cfg.Quick {
		ccfg.Nodes = 5
	}
	res, err := experiments.FaultCoverage(ccfg)
	if err != nil {
		return err
	}
	if err := codeBlock(w, func(w io.Writer) error {
		return experiments.WriteCoverage(w, res)
	}); err != nil {
		return err
	}
	coverageVerdict(w, res)
	return nil
}

// coverageVerdict writes the sentence under the coverage table. It
// claims a clean match only when no scenario disagreed with the
// analytic predicate; otherwise it gives the count, and the table above
// already names the first disagreeing scenario.
func coverageVerdict(w io.Writer, res *experiments.CoverageResult) {
	if res.Total.Inconsistent == 0 {
		fmt.Fprintf(w, "\nEvery scenario's simulated outcome matched the analytic predicate\n")
		fmt.Fprintf(w, "(%d scenarios, 0 inconsistencies).\n\n", res.Total.Scenarios)
		return
	}
	fmt.Fprintf(w, "\n%d of %d scenarios' simulated outcomes disagreed with the analytic predicate\n",
		res.Total.Inconsistent, res.Total.Scenarios)
	fmt.Fprintf(w, "(first shown above).\n\n")
}

func sectionOverhead(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "## Empirical probe overhead vs the cost model")
	fmt.Fprintln(w)
	return codeBlock(w, func(w io.Writer) error {
		for _, switched := range []bool{false, true} {
			name := "hub   "
			if switched {
				name = "switch"
			}
			measured, predicted, err := experiments.ProbeOverhead(10, time.Second, 10*time.Second, switched)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s  measured %.4f%%   predicted %.4f%%\n",
				name, 100*measured, 100*predicted)
		}
		return nil
	})
}

func sectionRails(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "\n## Redundancy ablation — what the second network buys")
	fmt.Fprintln(w)
	iters := int64(200000)
	fs := []int{2, 3, 4}
	if cfg.Quick {
		iters = 20000
		fs = []int{2}
	}
	res, err := experiments.RailsComparison(12, []int{1, 2, 3}, fs, iters, cfg.Seed)
	if err != nil {
		return err
	}
	if err := codeBlock(w, res.WriteTable); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func sectionAvailability(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "## Availability — the time-based view")
	fmt.Fprintln(w)
	if err := codeBlock(w, func(w io.Writer) error {
		fmt.Fprintf(w, "%8s %12s %12s %8s %16s\n", "q", "pair", "all-pairs", "nines", "downtime/yr")
		for _, q := range []float64{0.001, 0.01, 0.05} {
			pair, err := availability.PSuccessIID(12, q)
			if err != nil {
				return err
			}
			all, err := availability.AllPairsIID(12, q)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%8.3f %12.6f %12.6f %8d %16v\n",
				q, pair, all, availability.Nines(pair),
				availability.DowntimePerYear(1-pair).Round(time.Minute))
		}
		return nil
	}); err != nil {
		return err
	}

	acfg := experiments.DefaultAvailabilityConfig()
	acfg.Seed = cfg.Seed
	if cfg.Quick {
		acfg.Horizon = 30 * time.Minute
	}
	res, err := experiments.MeasureAvailability(acfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := codeBlock(w, func(w io.Writer) error {
		return experiments.WriteAvailability(w, res)
	}); err != nil {
		return err
	}

	// Cross-check one cell of the availability surface by simulation.
	est, ci, err := availability.EstimateIID(12, 0.05, false, mcIters(cfg), cfg.Seed)
	if err != nil {
		return err
	}
	analytic, err := availability.PSuccessIID(12, 0.05)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nIID cross-check at q=0.05, N=12: analytic %.5f, simulated %.5f (±%.5f).\n",
		analytic, est, ci)
	return nil
}

func mcIters(cfg Config) int64 {
	if cfg.Quick {
		return 20000
	}
	return 500000
}

// Headline verifies, programmatically, the four numbers the paper
// leads with; it returns an error if any fails to reproduce. The
// report tool runs it as a final self-check.
func Headline() error {
	for _, tc := range []struct{ f, want int }{{2, 18}, {3, 32}, {4, 45}} {
		n, err := survival.ThresholdFloat(tc.f, 0.99, 2, 200)
		if err != nil {
			return err
		}
		if n != tc.want {
			return fmt.Errorf("report: threshold f=%d reproduced as %d, paper says %d", tc.f, n, tc.want)
		}
	}
	rt, err := costmodel.Defaults().ResponseTime(90, 0.10)
	if err != nil {
		return err
	}
	if rt >= 1 {
		return fmt.Errorf("report: 90 hosts at 10%% take %.3fs, paper says < 1s", rt)
	}
	// Monte Carlo at 10k iterations within 0.01 of Equation 1.
	est, err := montecarlo.Estimate(montecarlo.Config{
		Cluster:    topology.Dual(18),
		Failures:   2,
		Iterations: 10000,
		Seed:       1,
	})
	if err != nil {
		return err
	}
	if diff := est.P - survival.PSuccessFloat(18, 2); diff > 0.01 || diff < -0.01 {
		return fmt.Errorf("report: Monte Carlo off by %v at 10k iterations", diff)
	}
	return nil
}
