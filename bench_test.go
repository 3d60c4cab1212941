// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index), plus the
// ablations the design calls out. Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark times the full generator for its artifact; the cmd/
// tools print the corresponding rows, and EXPERIMENTS.md records
// paper-vs-measured values.
package drsnet

import (
	"io"
	"testing"
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

// BenchmarkFigure1ProbeCost regenerates E1: the Figure 1 cost curves
// (response time vs nodes at 5/10/15/25% budgets).
func BenchmarkFigure1ProbeCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(costmodel.Defaults(), costmodel.FigureBudgets, 2, 128, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteTable(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Analytic regenerates E2: all nine P[Success] curves
// of Figure 2 (f = 2..10, f < N < 64) in exact arithmetic, at each
// worker count of the scaling ladder. survival.ResetCaches() inside
// the loop keeps every iteration cold, so the sub-benchmarks measure
// parallel scaling of the real computation rather than memo hits —
// speedup shows on multi-core hardware, not on a single-CPU runner.
func BenchmarkFigure2Analytic(b *testing.B) {
	fs := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				survival.ResetCaches()
				res, err := experiments.Figure2Workers(fs, 63, workers)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.WriteTable(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure2Memoized is the same sweep warm: after the first
// run every Equation 1 term is served from the combinatorics memo.
func BenchmarkFigure2Memoized(b *testing.B) {
	fs := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	survival.ResetCaches()
	if _, err := experiments.Figure2(fs, 63); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(fs, 63); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Thresholds regenerates E2a: the first N with
// P[Success] > 0.99 for f = 2, 3, 4 (paper: 18, 32, 45).
func BenchmarkFigure2Thresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Thresholds([]int{2, 3, 4}, 0.99, 100)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Found {
				b.Fatal("threshold missing")
			}
		}
	}
}

// BenchmarkFigure3Convergence regenerates E3 at a reduced ladder (the
// full 1e5-iteration sweep runs via cmd/drsconverge); it still covers
// every f of the paper across the full f < N < 64 range.
func BenchmarkFigure3Convergence(b *testing.B) {
	cfg := experiments.Figure3Defaults()
	cfg.Iterations = []int64{10, 100, 1000}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		if _, err := experiments.Figure3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetFailureLog regenerates E4: the one-year 100-server
// hardware failure log behind the 13% statistic.
func BenchmarkFleetFailureLog(b *testing.B) {
	cfg := failure.DefaultFleetConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		log, err := failure.GenerateFleetLog(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if log.Summary().Total == 0 {
			b.Fatal("empty log")
		}
	}
}

// BenchmarkProactiveVsReactive regenerates E5: the packet-level
// recovery comparison on the single-NIC scenario.
func BenchmarkProactiveVsReactive(b *testing.B) {
	base := experiments.DefaultRecoveryConfig(runtime.ProtoDRS, experiments.ScenarioNIC)
	for i := 0; i < b.N; i++ {
		results, err := experiments.CompareRecovery(base)
		if err != nil {
			b.Fatal(err)
		}
		if !results[0].Recovered {
			b.Fatal("DRS failed to recover")
		}
	}
}

// BenchmarkFaultCoverage times the exhaustive fault-coverage campaign
// (all 1- and 2-fault scenarios of an 8-node cluster, each a full
// packet-level simulation checked against the analytic predicate) at
// each worker count of the scaling ladder. Every scenario runs in a
// private simulator, so the campaign parallelizes embarrassingly and
// the sub-benchmarks expose the speedup on multi-core hardware.
func BenchmarkFaultCoverage(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			cfg := experiments.DefaultCoverageConfig()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i) + 1
				res, err := experiments.FaultCoverage(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Total.Inconsistent != 0 {
					b.Fatalf("inconsistency: %s", res.FirstInconsistency)
				}
			}
			b.ReportMetric(float64(171), "scenarios")
		})
	}
}

// BenchmarkFlowRecovery regenerates the connection-level E5 variant:
// a reliable retransmitting stream crossing a NIC failure under the
// DRS.
func BenchmarkFlowRecovery(b *testing.B) {
	cfg := experiments.DefaultFlowRecoveryConfig(runtime.ProtoDRS, experiments.ScenarioNIC)
	for i := 0; i < b.N; i++ {
		res, err := experiments.FlowRecovery(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Survived {
			b.Fatal("connection died")
		}
		b.ReportMetric(res.Flow.MaxAckStall.Seconds(), "max-stall-s")
	}
}

// BenchmarkMonteCarloScaling is the parallel-scaling ablation: the
// same 2M-scenario estimate at increasing worker counts. Deterministic
// chunked substreams make every variant return identical results.
func BenchmarkMonteCarloScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			cfg := montecarlo.Config{
				Cluster:    topology.Dual(63),
				Failures:   4,
				Iterations: 2_000_000,
				Seed:       1,
				Workers:    workers,
			}
			for i := 0; i < b.N; i++ {
				if _, err := montecarlo.Estimate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationProbeInterval quantifies the Figure 1 trade-off in
// the running system: recovery outage as the probe interval varies.
func BenchmarkAblationProbeInterval(b *testing.B) {
	for _, probe := range []time.Duration{200 * time.Millisecond, time.Second, 5 * time.Second} {
		b.Run(probe.String(), func(b *testing.B) {
			cfg := experiments.DefaultRecoveryConfig(runtime.ProtoDRS, experiments.ScenarioNIC)
			cfg.ProbeInterval = probe
			cfg.Duration = cfg.FailAt + 10*probe + 10*time.Second
			var outage time.Duration
			for i := 0; i < b.N; i++ {
				res, err := experiments.Recovery(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Recovered {
					b.Fatal("no recovery")
				}
				outage = res.Outage
			}
			b.ReportMetric(outage.Seconds(), "outage-s")
		})
	}
}

// BenchmarkAblationMissThreshold quantifies detection speed vs the
// miss threshold.
func BenchmarkAblationMissThreshold(b *testing.B) {
	for _, miss := range []int{1, 2, 4} {
		b.Run(benchName("miss", miss), func(b *testing.B) {
			cfg := experiments.DefaultRecoveryConfig(runtime.ProtoDRS, experiments.ScenarioNIC)
			cfg.MissThreshold = miss
			var outage time.Duration
			for i := 0; i < b.N; i++ {
				res, err := experiments.Recovery(cfg)
				if err != nil {
					b.Fatal(err)
				}
				outage = res.Outage
			}
			b.ReportMetric(outage.Seconds(), "outage-s")
		})
	}
}

// BenchmarkAblationProbePolicy quantifies the factor-two cost of
// ordered-pair probing in the Figure 1 model.
func BenchmarkAblationProbePolicy(b *testing.B) {
	for _, ordered := range []bool{false, true} {
		name := "per-pair"
		if ordered {
			name = "ordered-pairs"
		}
		b.Run(name, func(b *testing.B) {
			params := costmodel.Defaults()
			params.OrderedPairs = ordered
			var rt float64
			for i := 0; i < b.N; i++ {
				var err error
				rt, err = params.ResponseTime(90, 0.10)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rt, "round-s")
		})
	}
}

// BenchmarkAblationHubVsSwitch quantifies the alternative-topology
// study: the same probe round on the paper's shared hub vs a switched
// fabric, in the cost model and empirically in the packet simulator.
func BenchmarkAblationHubVsSwitch(b *testing.B) {
	for _, switched := range []bool{false, true} {
		name := "hub"
		if switched {
			name = "switch"
		}
		b.Run(name, func(b *testing.B) {
			var measured float64
			for i := 0; i < b.N; i++ {
				var err error
				measured, _, err = experiments.ProbeOverhead(10, time.Second, 10*time.Second, switched)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*measured, "util-%")
		})
	}
}

// BenchmarkAblationStagger compares bursty and staggered probing: same
// protocol work, different instantaneous load shape.
func BenchmarkAblationStagger(b *testing.B) {
	for _, stagger := range []bool{false, true} {
		name := "burst"
		if stagger {
			name = "staggered"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := NewCluster(ClusterConfig{
					Nodes:         10,
					ProbeInterval: time.Second,
					StaggerProbes: stagger,
					Seed:          1,
				})
				if err != nil {
					b.Fatal(err)
				}
				c.Run(30 * time.Second)
				c.Stop()
			}
		})
	}
}

// BenchmarkAblationRails times the redundancy ablation (1/2/3 rails,
// Monte Carlo, f = 2 and 4).
func BenchmarkAblationRails(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RailsComparison(12, []int{1, 2, 3}, []int{2, 4}, 100000, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if res.P[0][1] <= res.P[0][0] {
			b.Fatal("dual rail did not beat single rail")
		}
	}
}

// BenchmarkClusterSimulation times the packet-level simulator end to
// end: a 12-node cluster (the deployed maximum) probing for 60
// simulated seconds.
func BenchmarkClusterSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(ClusterConfig{Nodes: 12, ProbeInterval: time.Second, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		c.Run(60 * time.Second)
		c.Stop()
	}
}

// BenchmarkEquation1Exact times one exact Equation 1 evaluation at the
// largest figure point.
func BenchmarkEquation1Exact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		survival.PSuccess(63, 10)
	}
}

// BenchmarkAllPairsAnalytic times the extension model: full-cluster
// survivability curves for f = 2..10 over f < N < 64.
func BenchmarkAllPairsAnalytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for f := 2; f <= 10; f++ {
			survival.AllPairsSeriesWorkers(f, f+1, 63, 1)
		}
	}
}

// BenchmarkAvailabilityModel times the IID availability surface used
// by cmd/drsavail (6 q-values × 6 cluster sizes, pair + all-pairs).
func BenchmarkAvailabilityModel(b *testing.B) {
	qs := []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.1}
	ns := []int{4, 8, 12, 16, 32, 64}
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			for _, n := range ns {
				if _, err := availability.PSuccessIID(n, q); err != nil {
					b.Fatal(err)
				}
				if _, err := availability.AllPairsIID(n, q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkAvailabilityMeasurement times the packet-level long-run
// availability experiment (2 simulated hours of continuous churn).
func BenchmarkAvailabilityMeasurement(b *testing.B) {
	cfg := experiments.DefaultAvailabilityConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		res, err := experiments.MeasureAvailability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Measured, "availability")
	}
}

func benchName(prefix string, v int) string {
	digits := ""
	if v == 0 {
		digits = "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return prefix + "-" + digits
}
