package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"drsnet/internal/conn"
	"drsnet/internal/parallel"
	"drsnet/internal/runtime"
	"drsnet/internal/topology"
)

// CoverageConfig describes a fault-coverage campaign: EVERY failure
// scenario up to MaxFaults simultaneous component failures is injected
// into a packet-level cluster, and the running DRS's behaviour
// is checked against the analytic connectivity predicate — the
// systematic version of the paper's survivability claim.
type CoverageConfig struct {
	Nodes     int
	MaxFaults int
	// DRS tunables.
	ProbeInterval time.Duration
	MissThreshold int
	// Timing: failure injected at FailAt; a scenario with no 0→1
	// delivery in [FailAt, Deadline] did not recover.
	TrafficInterval time.Duration
	FailAt          time.Duration
	Deadline        time.Duration
	Seed            uint64
	// Workers bounds the number of scenarios simulated concurrently;
	// 0 means GOMAXPROCS. Every scenario runs in its own simulator, so
	// the campaign outcome is bit-identical for every worker count.
	Workers int
}

// DefaultCoverageConfig covers all single and double faults of an
// 8-node cluster (18 components → 18 + 153 = 171 scenarios).
func DefaultCoverageConfig() CoverageConfig {
	return CoverageConfig{
		Nodes:           8,
		MaxFaults:       2,
		ProbeInterval:   500 * time.Millisecond,
		MissThreshold:   2,
		TrafficInterval: 100 * time.Millisecond,
		FailAt:          3 * time.Second,
		Deadline:        12 * time.Second,
	}
}

func (c CoverageConfig) validate() error {
	if c.Nodes < 3 {
		return fmt.Errorf("experiments: coverage needs ≥ 3 nodes")
	}
	if c.MaxFaults < 1 || c.MaxFaults > 3 {
		return fmt.Errorf("experiments: MaxFaults must be 1..3 (got %d); larger campaigns explode combinatorially", c.MaxFaults)
	}
	if c.ProbeInterval <= 0 || c.MissThreshold <= 0 || c.TrafficInterval <= 0 {
		return fmt.Errorf("experiments: positive probe interval, miss threshold and traffic interval required")
	}
	if c.FailAt <= 0 || c.Deadline <= c.FailAt {
		return fmt.Errorf("experiments: bad coverage timing")
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiments: negative worker count %d", c.Workers)
	}
	return nil
}

// ClassStats aggregates scenarios of one fault class (e.g. "nic+nic").
type ClassStats struct {
	Scenarios    int
	Connected    int // analytically survivable for the pair (0,1)
	Recovered    int // the running DRS delivered after the failure
	Inconsistent int // simulation disagreed with the predicate
	MaxOutage    time.Duration
	TotalOutage  time.Duration
}

// MeanOutage returns the average outage over recovered scenarios.
func (c ClassStats) MeanOutage() time.Duration {
	if c.Recovered == 0 {
		return 0
	}
	return c.TotalOutage / time.Duration(c.Recovered)
}

// CoverageResult is the campaign outcome.
type CoverageResult struct {
	Config  CoverageConfig
	Total   ClassStats
	Classes map[string]ClassStats
	// FirstInconsistency describes the first scenario (if any) where
	// the simulation disagreed with the analytic predicate.
	FirstInconsistency string
}

// FaultCoverage runs the campaign. The fault-free history before
// FailAt is simulated once; scenarios are enumerated in a fixed order,
// each simulated on its own fork of that history, concurrently
// (cfg.Workers goroutines), and reduced back in enumeration order — so
// the result, down to the first-inconsistency report, is identical to
// a serial run.
func FaultCoverage(cfg CoverageConfig) (*CoverageResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cluster := topology.Dual(cfg.Nodes)
	eval, err := conn.NewEvaluator(cluster)
	if err != nil {
		return nil, err
	}

	scenarios := enumerateScenarios(cluster.Components(), cfg.MaxFaults)
	prefix, err := coveragePrefix(cfg)
	if err != nil {
		return nil, err
	}
	var spent spentForks
	outcomes, err := parallel.Map(nil, cfg.Workers, len(scenarios), func(i int) (scenarioOutcome, error) {
		return runScenario(cfg, prefix, &spent, eval, scenarios[i])
	})
	if err != nil {
		return nil, err
	}

	res := &CoverageResult{Config: cfg, Classes: make(map[string]ClassStats)}
	for i, scenario := range scenarios {
		res.record(cluster, scenario, outcomes[i])
	}
	return res, nil
}

// enumerateScenarios lists every non-empty fault scenario of up to
// maxFaults of m components, in the campaign's canonical order
// (depth-first: {0}, {0,1}, {0,2}, ..., {1}, {1,2}, ...).
func enumerateScenarios(m, maxFaults int) [][]topology.Component {
	var out [][]topology.Component
	var scenario []topology.Component
	var walk func(start int)
	walk = func(start int) {
		if len(scenario) > 0 {
			out = append(out, append([]topology.Component(nil), scenario...))
		}
		if len(scenario) == maxFaults {
			return
		}
		for c := start; c < m; c++ {
			scenario = append(scenario, topology.Component(c))
			walk(c + 1)
			scenario = scenario[:len(scenario)-1]
		}
	}
	walk(0)
	return out
}

// classKey names a scenario's fault class by component kinds.
func classKey(cluster topology.Cluster, scenario []topology.Component) string {
	kinds := make([]string, 0, len(scenario))
	for _, comp := range scenario {
		kind, _, _ := cluster.Describe(comp)
		if kind == topology.KindBackplane {
			kinds = append(kinds, "backplane")
		} else {
			kinds = append(kinds, "nic")
		}
	}
	sort.Strings(kinds)
	key := kinds[0]
	for _, k := range kinds[1:] {
		key += "+" + k
	}
	return key
}

// scenarioOutcome is the result of simulating one fault scenario —
// the pure per-item payload of the parallel campaign.
type scenarioOutcome struct {
	want      bool // analytic predicate: pair (0,1) survivable
	recovered bool // the running DRS delivered after the failure
	outage    time.Duration
	// ranUntil is the simulated time the scenario stopped at: the end
	// of the traffic slice holding its first post-failure delivery, or
	// Deadline when it never recovered.
	ranUntil time.Duration
}

// scenarioSpec is the cluster one fault scenario runs on: the 0→1
// traffic flow, with every component of the scenario failing at FailAt.
func scenarioSpec(cfg CoverageConfig, scenario []topology.Component) runtime.ClusterSpec {
	return runtime.ClusterSpec{
		Nodes:    cfg.Nodes,
		Protocol: runtime.ProtoDRS,
		Seed:     cfg.Seed,
		Duration: cfg.Deadline,
		Tunables: runtime.Tunables{
			ProbeInterval: cfg.ProbeInterval,
			MissThreshold: cfg.MissThreshold,
		},
		Flows: []runtime.Flow{{
			From:     0,
			To:       1,
			Interval: cfg.TrafficInterval,
			Payload:  []byte("c"),
		}},
		Faults: scenarioFaults(cfg, scenario),
	}
}

// scenarioFaults fails every component of the scenario at FailAt.
func scenarioFaults(cfg CoverageConfig, scenario []topology.Component) []runtime.Fault {
	faults := make([]runtime.Fault, len(scenario))
	for i, comp := range scenario {
		faults[i] = runtime.Fault{At: cfg.FailAt, Comp: comp}
	}
	return faults
}

// coveragePrefix simulates the history every scenario shares once: the
// scenario cluster with MaxFaults fault slots at FailAt, run to the
// last traffic-slice boundary strictly before FailAt. Until FailAt a
// scenario's faults change nothing but the place their events hold in
// the schedule, and the slots hold exactly those places.
func coveragePrefix(cfg CoverageConfig) (*runtime.Cluster, error) {
	c, err := runtime.Build(scenarioSpec(cfg, make([]topology.Component, cfg.MaxFaults)))
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	c.ScheduleFlows()
	c.ScheduleFaults()
	c.RunUntil((cfg.FailAt - 1) / cfg.TrafficInterval * cfg.TrafficInterval)
	return c, nil
}

// spentForks holds the campaign's finished scenario forks. Each
// scenario forks the prefix into one it takes, reusing its storage, and
// puts it back when it is done. A fork's outcome does not depend on
// which spent fork it overwrote, so the campaign's result does not
// depend on how the workers interleave.
type spentForks struct {
	mu sync.Mutex
	cs []*runtime.Cluster
}

// take returns a spent fork, or nil when there is none.
func (s *spentForks) take() *runtime.Cluster {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.cs)
	if n == 0 {
		return nil
	}
	c := s.cs[n-1]
	s.cs[n-1] = nil
	s.cs = s.cs[:n-1]
	return c
}

// put returns the stopped fork c for a later scenario to fork into.
func (s *spentForks) put(c *runtime.Cluster) {
	s.mu.Lock()
	s.cs = append(s.cs, c)
	s.mu.Unlock()
}

// runScenario simulates one fault scenario on a fork of the campaign's
// prefix, made into a spent fork from spent when there is one, and
// judges it against the analytic predicate. Forking only reads the
// prefix and the fork is private, so any number of scenarios can run
// concurrently.
//
// The verdict is fixed by the first 0→1 delivery at or after FailAt:
// deliveries are observed in event order, so nothing simulated later
// can change it. The run therefore advances in traffic-interval slices
// and stops at the end of the slice holding that delivery; a scenario
// that never recovers runs to Deadline. The prefix stops on a slice
// boundary, and neither forking nor slicing RunUntil reorders events,
// so the outcome is the one a full run from time zero would give.
func runScenario(cfg CoverageConfig, prefix *runtime.Cluster, spent *spentForks, eval *conn.Evaluator, scenario []topology.Component) (scenarioOutcome, error) {
	want := eval.PairConnected(scenario, 0, 1)
	c, err := prefix.Fork(spent.take())
	if err != nil {
		return scenarioOutcome{}, err
	}
	if err := c.SetFaults(scenarioFaults(cfg, scenario)); err != nil {
		return scenarioOutcome{}, err
	}
	var firstAfter time.Duration = -1
	for firstAfter < 0 && c.Now() < cfg.Deadline {
		c.RunUntil(min(c.Now()+cfg.TrafficInterval, cfg.Deadline))
		for _, at := range c.Deliveries(0, 1) {
			if at >= cfg.FailAt {
				firstAfter = at
				break
			}
		}
	}
	c.StopRouters()

	out := scenarioOutcome{want: want, recovered: firstAfter >= 0, ranUntil: c.Now()}
	spent.put(c)
	if out.recovered {
		out.outage = firstAfter - cfg.FailAt
	}
	return out, nil
}

// record folds one scenario outcome into the campaign result. Called
// in enumeration order, which keeps FirstInconsistency deterministic.
func (res *CoverageResult) record(cluster topology.Cluster, scenario []topology.Component, o scenarioOutcome) {
	key := classKey(cluster, scenario)
	cs := res.Classes[key]
	cs.Scenarios++
	res.Total.Scenarios++
	if o.want {
		cs.Connected++
		res.Total.Connected++
	}
	if o.recovered {
		cs.Recovered++
		res.Total.Recovered++
		cs.TotalOutage += o.outage
		res.Total.TotalOutage += o.outage
		if o.outage > cs.MaxOutage {
			cs.MaxOutage = o.outage
		}
		if o.outage > res.Total.MaxOutage {
			res.Total.MaxOutage = o.outage
		}
	}
	if o.recovered != o.want {
		cs.Inconsistent++
		res.Total.Inconsistent++
		if res.FirstInconsistency == "" {
			names := ""
			for i, comp := range scenario {
				if i > 0 {
					names += ", "
				}
				names += cluster.Name(comp)
			}
			res.FirstInconsistency = fmt.Sprintf("{%s}: simulated recovered=%v, predicate=%v",
				names, o.recovered, o.want)
		}
	}
	res.Classes[key] = cs
}

// WriteCoverage renders the campaign as the fault-coverage matrix.
func WriteCoverage(w io.Writer, res *CoverageResult) error {
	cfg := res.Config
	if _, err := fmt.Fprintf(w, "# Fault coverage: %d nodes, all scenarios up to %d faults (%d total)\n",
		cfg.Nodes, cfg.MaxFaults, res.Total.Scenarios); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-24s %9s %10s %10s %12s %12s %8s\n",
		"class", "scenarios", "survivable", "recovered", "mean-outage", "max-outage", "inconsis")
	keys := make([]string, 0, len(res.Classes))
	for k := range res.Classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	write := func(name string, cs ClassStats) {
		fmt.Fprintf(w, "%-24s %9d %10d %10d %12v %12v %8d\n",
			name, cs.Scenarios, cs.Connected, cs.Recovered,
			cs.MeanOutage().Round(time.Millisecond), cs.MaxOutage.Round(time.Millisecond),
			cs.Inconsistent)
	}
	for _, k := range keys {
		write(k, res.Classes[k])
	}
	write("TOTAL", res.Total)
	if res.FirstInconsistency != "" {
		fmt.Fprintf(w, "first inconsistency: %s\n", res.FirstInconsistency)
	}
	return nil
}
