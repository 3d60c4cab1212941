// Package nemesis is the deterministic partition/fault-schedule fuzzer
// for the live daemon stack: it generates randomized schedules of
// network partitions, process crashes, NIC flaps and clock-skew
// windows, executes them against a hermetic cluster (the simulator's
// deterministic scheduler behind the clock seam, in-memory transport,
// the same runtime.BuildNode assembly the real daemon uses), and after
// everything heals checks that the protocol actually recovered —
// routes reconverge, no stale incarnation survives, membership agrees,
// and the data plane delivers.
//
// Everything is replayable: a schedule is a plain value generated from
// a seed, the run executes on virtual time with every random draw
// coming from seeded rng substreams, so the same schedule always
// produces bit-identical outcomes. When a schedule violates an
// invariant, Shrink reduces it to a minimal failing schedule by
// deterministic delta debugging, and the shrunk schedule serializes to
// JSON as a one-file repro for `drsnemesis -replay`.
package nemesis

import (
	"fmt"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/linkmon"
	"drsnet/internal/overload"
	"drsnet/internal/runtime"
	"drsnet/internal/scenario"
	"drsnet/internal/topology"
	"drsnet/internal/transport"
)

// Episode kinds.
const (
	// KindPartition is a directed or symmetric cut between two nodes
	// over one rail or all rails, invisible to carrier sensing.
	KindPartition = "partition"
	// KindCrash fail-stops a node's process (announcing nothing) and
	// restarts it at the window's end, warm from a checkpoint or cold.
	KindCrash = "crash"
	// KindFlap toggles one of a node's NICs down and up every Period
	// for the length of the window, ending up.
	KindFlap = "flap"
	// KindSkew delays every delivery to a node for the window — the
	// node's clock running behind the cluster.
	KindSkew = "skew"
)

// Episode is one fault window in a schedule. Which fields matter
// depends on Kind; Start/Stop bound every kind.
type Episode struct {
	Kind string `json:"kind"`
	// A is the episode's subject node (crash/flap/skew) or the
	// partition's first endpoint.
	A int `json:"a"`
	// B is the partition's second endpoint (partition only).
	B int `json:"b"`
	// Rail selects the severed or flapped rail; -1 cuts every rail
	// (partition only — a flap names one NIC).
	Rail int `json:"rail"`
	// Direction orients a partition: "both" (or empty), "tx" (A→B
	// only) or "rx".
	Direction string `json:"direction,omitempty"`
	// Start and Stop bound the window on the run's virtual clock.
	Start scenario.Duration `json:"start"`
	Stop  scenario.Duration `json:"stop"`
	// Warm restarts a crashed node from its last checkpoint instead of
	// cold (crash only).
	Warm bool `json:"warm,omitempty"`
	// Period is the flap toggle cadence (flap only): down at Start, up
	// one period later, and so on, up again at Stop.
	Period scenario.Duration `json:"period,omitempty"`
	// Skew is the delivery delay imposed on node A (skew only).
	Skew scenario.Duration `json:"skew,omitempty"`
}

// String renders the episode as one log-friendly line.
func (e Episode) String() string {
	w := fmt.Sprintf("[%v,%v)", time.Duration(e.Start), time.Duration(e.Stop))
	switch e.Kind {
	case KindPartition:
		rail := fmt.Sprintf("rail %d", e.Rail)
		if e.Rail == transport.AllRails {
			rail = "all rails"
		}
		return fmt.Sprintf("partition %d–%d %s %s %s", e.A, e.B, e.Direction, rail, w)
	case KindCrash:
		mode := "cold"
		if e.Warm {
			mode = "warm"
		}
		return fmt.Sprintf("crash %d (%s restart) %s", e.A, mode, w)
	case KindFlap:
		return fmt.Sprintf("flap %d rail %d every %v %s", e.A, e.Rail, time.Duration(e.Period), w)
	case KindSkew:
		return fmt.Sprintf("skew %d by %v %s", e.A, time.Duration(e.Skew), w)
	}
	return fmt.Sprintf("%s %s", e.Kind, w)
}

// Schedule is one complete nemesis campaign against one cluster: the
// cluster shape, the fault episodes, and the post-heal settle window
// the convergence invariants are given. It serializes to JSON as the
// repro artifact for `drsnemesis -replay`.
type Schedule struct {
	// Seed drives every random decision of the run (the fault
	// controller's impairment draws); the generator also records the
	// seed it was grown from here.
	Seed uint64 `json:"seed"`
	// Nodes is the cluster size (dual-rail, always 2 rails).
	Nodes int `json:"nodes"`
	// Protocol names a registered routing protocol (default "drs").
	Protocol string `json:"protocol,omitempty"`
	// ProbeInterval is the DRS probe cadence (default 100ms).
	ProbeInterval scenario.Duration `json:"probeInterval,omitempty"`
	// Budget, when present, enables control-plane overload protection
	// on every DRS daemon and arms the post-heal budget invariant.
	// Absent means disabled — existing repro files replay unchanged.
	Budget *BudgetSpec `json:"budget,omitempty"`
	// Horizon is when every fault is healed: partitions lifted, crashed
	// nodes restarted, flaps ended, skew cleared. Episodes must end by
	// it.
	Horizon scenario.Duration `json:"horizon"`
	// Settle is how long after Horizon the cluster gets to reconverge
	// before the invariants are checked. A settle shorter than a few
	// probe rounds makes violations expected — useful for exercising
	// the shrinker, dishonest as a protocol verdict.
	Settle scenario.Duration `json:"settle"`
	// Episodes is the fault script.
	Episodes []Episode `json:"episodes"`
}

// rails is fixed: the hermetic cluster is the paper's dual-rail shape.
const rails = 2

// BudgetSpec is a schedule's optional overload-protection block. Its
// presence turns on the token-bucket budgets (and the adaptive RTO
// whose retransmits the probe bucket bounds) for every DRS daemon of
// the run, and arms the post-heal budget invariant: no node's
// control-traffic counters may exceed what its buckets could have
// admitted over the whole run. Zero fields take the overload
// defaults. The degraded-mode governor stays off — the nemesis
// invariant is about the budgets' hard admission bound; the degraded
// state machine has its own tests and the storm campaign.
type BudgetSpec struct {
	// ProbeRate/ProbeBurst bound RTO-driven probe retransmits.
	ProbeRate  float64 `json:"probeRate,omitempty"`
	ProbeBurst int     `json:"probeBurst,omitempty"`
	// QueryRate/QueryBurst bound route-discovery broadcasts.
	QueryRate  float64 `json:"queryRate,omitempty"`
	QueryBurst int     `json:"queryBurst,omitempty"`
}

// config maps the block onto a normalized overload.Config.
func (b *BudgetSpec) config() (overload.Config, error) {
	cfg := overload.Default()
	cfg.DegradedSheds = -1 // budgets without the governor
	if b.ProbeRate != 0 {
		cfg.ProbeRate = b.ProbeRate
	}
	if b.ProbeBurst != 0 {
		cfg.ProbeBurst = b.ProbeBurst
	}
	if b.QueryRate != 0 {
		cfg.QueryRate = b.QueryRate
	}
	if b.QueryBurst != 0 {
		cfg.QueryBurst = b.QueryBurst
	}
	if err := cfg.Normalize(); err != nil {
		return overload.Config{}, err
	}
	return cfg, nil
}

// Validate checks the schedule is executable. Generate always returns
// valid schedules; Validate guards hand-written -replay files, and Run
// executes whatever it accepts.
func (s Schedule) Validate() error {
	s.defaults()
	_, _, err := s.plan()
	return err
}

// defaults fills the fields a schedule may leave zero.
func (s *Schedule) defaults() {
	if s.Protocol == "" {
		s.Protocol = runtime.ProtoDRS
	}
	if s.ProbeInterval == 0 {
		s.ProbeInterval = scenario.Duration(100 * time.Millisecond)
	}
}

// plan translates the schedule, entry for entry, into the cluster spec
// every node is built from and the fault episodes of the run, and
// validates both with their packages' rules: the spec with
// runtime.ClusterSpec.Normalize, the episodes with chaos.Validate. Only
// the document's own form (kind and direction strings, flap addressing
// and toggle period, horizon and settle) is checked here.
func (s *Schedule) plan() (runtime.ClusterSpec, []chaos.Episode, error) {
	spec := runtime.ClusterSpec{
		Nodes:    s.Nodes,
		Protocol: s.Protocol,
		Tunables: runtime.Tunables{
			ProbeInterval: time.Duration(s.ProbeInterval),
			MissThreshold: 2,
			// The lifecycle guards restarts; strict link evidence makes
			// asymmetric cuts detectable instead of masked — without it
			// every tx-only partition is a guaranteed (and
			// uninteresting) violation.
			Lifecycle:          true,
			StrictLinkEvidence: true,
		},
	}
	if s.Horizon <= 0 {
		return spec, nil, fmt.Errorf("nemesis: horizon %v must be positive", time.Duration(s.Horizon))
	}
	if s.Settle < 0 {
		return spec, nil, fmt.Errorf("nemesis: negative settle %v", time.Duration(s.Settle))
	}
	if s.Budget != nil {
		budget, err := s.Budget.config()
		if err != nil {
			return spec, nil, fmt.Errorf("nemesis: budget: %v", err)
		}
		// Budgets bound the RTO retransmit storm, so the retransmits
		// must exist: the budget block implies the adaptive RTO.
		spec.Tunables.Overload = budget
		spec.Tunables.AdaptiveRTO = linkmon.DefaultRTO()
	}
	if err := spec.Normalize(); err != nil {
		return spec, nil, fmt.Errorf("nemesis: %v", err)
	}
	eps := make([]chaos.Episode, len(s.Episodes))
	for i, e := range s.Episodes {
		c := &eps[i]
		*c = chaos.Episode{A: e.A, Start: time.Duration(e.Start), Stop: time.Duration(e.Stop)}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("nemesis: episodes[%d] (%s): %s", i, e.Kind, fmt.Sprintf(format, args...))
		}
		switch e.Kind {
		case KindPartition:
			dir, err := chaos.ParseDirection(e.Direction)
			if err != nil {
				return spec, nil, fail("%v", err)
			}
			c.Kind, c.B, c.Rail, c.Dir = chaos.Partition, e.B, e.Rail, dir
		case KindCrash:
			c.Kind, c.Warm = chaos.Crash, e.Warm
		case KindFlap:
			if e.A < 0 || e.A >= s.Nodes || e.Rail < 0 || e.Rail >= rails {
				return spec, nil, fail("nic(%d,%d) outside %d nodes × %d rails", e.A, e.Rail, s.Nodes, rails)
			}
			if e.Period <= 0 {
				return spec, nil, fail("period %v must be positive", time.Duration(e.Period))
			}
			// Toggling every Period is a cycle of two periods, down for
			// the first half.
			c.Kind, c.Comp, c.FlapPeriod = chaos.Component, topology.Dual(s.Nodes).NIC(e.A, e.Rail), 2*time.Duration(e.Period)
		case KindSkew:
			c.Kind, c.Skew = chaos.Skew, time.Duration(e.Skew)
		default:
			return spec, nil, fail("unknown kind")
		}
	}
	sh := chaos.Shape{Nodes: s.Nodes, Rails: rails, Horizon: time.Duration(s.Horizon)}
	if err := chaos.Validate(eps, sh, episodeEntry); err != nil {
		return spec, nil, fmt.Errorf("nemesis: %v", err)
	}
	return spec, eps, nil
}

// episodeEntry names episode i of a schedule document.
func episodeEntry(i int) string { return fmt.Sprintf("episodes[%d]", i) }

// without returns a copy of the schedule with episode i removed — the
// shrinker's reduction step.
func (s Schedule) without(i int) Schedule {
	out := s
	out.Episodes = make([]Episode, 0, len(s.Episodes)-1)
	out.Episodes = append(out.Episodes, s.Episodes[:i]...)
	out.Episodes = append(out.Episodes, s.Episodes[i+1:]...)
	return out
}
