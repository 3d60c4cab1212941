package experiments

import (
	"strings"
	"testing"
	"time"

	"drsnet/internal/conn"
	"drsnet/internal/runtime"
	"drsnet/internal/topology"
)

func TestFaultCoverageExhaustiveConsistency(t *testing.T) {
	// A 6-node cluster: 14 components → 14 single + 91 double = 105
	// scenarios, each simulated end to end.
	cfg := DefaultCoverageConfig()
	cfg.Nodes = 6
	res, err := FaultCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantScenarios := 14 + 14*13/2
	if res.Total.Scenarios != wantScenarios {
		t.Fatalf("ran %d scenarios, want %d", res.Total.Scenarios, wantScenarios)
	}
	// The decisive assertion: the running protocol's outcome matches
	// the analytic predicate in EVERY scenario.
	if res.Total.Inconsistent != 0 {
		t.Fatalf("%d inconsistent scenarios; first: %s",
			res.Total.Inconsistent, res.FirstInconsistency)
	}
	// Every single fault is survivable and survived.
	singleNIC := res.Classes["nic"]
	singleBP := res.Classes["backplane"]
	if singleNIC.Scenarios != 12 || singleBP.Scenarios != 2 {
		t.Fatalf("single-fault classes: nic=%d backplane=%d", singleNIC.Scenarios, singleBP.Scenarios)
	}
	if singleNIC.Recovered != singleNIC.Scenarios || singleBP.Recovered != singleBP.Scenarios {
		t.Fatal("a single fault was not survived")
	}
	// Double backplane faults are never survivable.
	dbp := res.Classes["backplane+backplane"]
	if dbp.Scenarios != 1 || dbp.Connected != 0 || dbp.Recovered != 0 {
		t.Fatalf("backplane+backplane stats: %+v", dbp)
	}
	// Recovery latency is bounded by the detection budget plus the
	// discovery exchange.
	budget := time.Duration(cfg.MissThreshold+2)*cfg.ProbeInterval + cfg.TrafficInterval
	if res.Total.MaxOutage > budget {
		t.Fatalf("max outage %v exceeds budget %v", res.Total.MaxOutage, budget)
	}
	var sb strings.Builder
	if err := WriteCoverage(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fault coverage", "nic+nic", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("coverage table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "first inconsistency") {
		t.Fatalf("unexpected inconsistency note:\n%s", out)
	}
}

// TestCoverageStopMatchesFullRun: a scenario forked from the shared
// prefix and stopped at its verdict has exactly the outcome of the same
// spec run fresh to Deadline, for every scenario of a 6-node cluster
// up to two faults, with the failure on a traffic send, between two
// sends, and 1 ms after a probe round, which forks the prefix with the
// round's frames in flight. Recovered scenarios stop within one
// traffic slice of their first post-failure delivery, and the
// campaign's simulated time falls below half the full-run total.
func TestCoverageStopMatchesFullRun(t *testing.T) {
	onSend := DefaultCoverageConfig()
	onSend.Nodes = 6
	between := onSend
	between.FailAt += 57 * time.Millisecond
	afterRound := onSend
	afterRound.FailAt += time.Millisecond
	for _, cfg := range []CoverageConfig{onSend, between, afterRound} {
		cluster := topology.Dual(cfg.Nodes)
		eval, err := conn.NewEvaluator(cluster)
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := coveragePrefix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.FailAt == afterRound.FailAt && prefix.Scheduler().Pending() <= cfg.Nodes+1+cfg.MaxFaults {
			t.Fatalf("FailAt %v: %d events pending at the fork, no frame in flight", cfg.FailAt, prefix.Scheduler().Pending())
		}
		scenarios := enumerateScenarios(cluster.Components(), cfg.MaxFaults)
		var simulated time.Duration
		for _, scenario := range scenarios {
			got, err := runScenario(cfg, prefix, eval, scenario)
			if err != nil {
				t.Fatal(err)
			}
			run, err := runtime.Run(scenarioSpec(cfg, scenario))
			if err != nil {
				t.Fatal(err)
			}
			firstAfter := time.Duration(-1)
			for _, at := range run.Flows[0].Deliveries {
				if at >= cfg.FailAt {
					firstAfter = at
					break
				}
			}
			if got.recovered != (firstAfter >= 0) || (got.recovered && got.outage != firstAfter-cfg.FailAt) {
				t.Fatalf("FailAt %v, scenario %v: stopped run %+v, full run first delivery after failure %v",
					cfg.FailAt, scenario, got, firstAfter)
			}
			if got.recovered {
				if got.ranUntil < firstAfter || got.ranUntil > firstAfter+cfg.TrafficInterval {
					t.Fatalf("FailAt %v, scenario %v: stopped at %v, want within one slice of %v",
						cfg.FailAt, scenario, got.ranUntil, firstAfter)
				}
			} else if got.ranUntil != cfg.Deadline {
				t.Fatalf("FailAt %v, scenario %v: unrecovered run stopped at %v, want %v",
					cfg.FailAt, scenario, got.ranUntil, cfg.Deadline)
			}
			simulated += got.ranUntil
		}
		if full := time.Duration(len(scenarios)) * cfg.Deadline; 2*simulated >= full {
			t.Fatalf("FailAt %v: simulated %v, not below half of the full-run %v", cfg.FailAt, simulated, full)
		}
	}
}

func TestFaultCoverageSingleOnly(t *testing.T) {
	cfg := DefaultCoverageConfig()
	cfg.Nodes = 4
	cfg.MaxFaults = 1
	res, err := FaultCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Scenarios != 10 {
		t.Fatalf("scenarios = %d, want 10 (2·4+2 components)", res.Total.Scenarios)
	}
	if res.Total.Recovered != 10 || res.Total.Inconsistent != 0 {
		t.Fatalf("single-fault campaign: %+v", res.Total)
	}
}

func TestFaultCoverageValidation(t *testing.T) {
	good := DefaultCoverageConfig()
	for name, mutate := range map[string]func(*CoverageConfig){
		"nodes":     func(c *CoverageConfig) { c.Nodes = 2 },
		"maxfaults": func(c *CoverageConfig) { c.MaxFaults = 0 },
		"explode":   func(c *CoverageConfig) { c.MaxFaults = 4 },
		"probe":     func(c *CoverageConfig) { c.ProbeInterval = 0 },
		"timing":    func(c *CoverageConfig) { c.Deadline = c.FailAt },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := FaultCoverage(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
