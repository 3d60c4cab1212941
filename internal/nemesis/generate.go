package nemesis

import (
	"time"

	"drsnet/internal/rng"
	"drsnet/internal/runtime"
	"drsnet/internal/scenario"
)

// Config shapes schedule generation. The zero value means every
// documented default.
type Config struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Protocol names a registered routing protocol (default "drs").
	Protocol string
	// Episodes is how many fault windows to script (default 4).
	Episodes int
	// Horizon is the fault phase's length (default 10s).
	Horizon time.Duration
	// Settle is the post-heal reconvergence window (default 2s).
	Settle time.Duration
	// ProbeInterval is the DRS probe cadence (default 100ms).
	ProbeInterval time.Duration
}

func (c *Config) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Protocol == "" {
		c.Protocol = runtime.ProtoDRS
	}
	if c.Episodes == 0 {
		c.Episodes = 4
	}
	if c.Horizon == 0 {
		c.Horizon = 10 * time.Second
	}
	if c.Settle == 0 {
		c.Settle = 2 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
}

// Generate grows a random fault schedule from the seed. The same
// (seed, config) pair always yields the same schedule, and generation
// draws from its own rng substream, so the run's impairment draws
// (which split from the same seed under a different label) are not
// perturbed by how many episodes were generated.
func Generate(seed uint64, cfg Config) Schedule {
	cfg.defaults()
	r := rng.New(seed).Split(0x4e3515)
	s := Schedule{
		Seed:          seed,
		Nodes:         cfg.Nodes,
		Protocol:      cfg.Protocol,
		ProbeInterval: scenario.Duration(cfg.ProbeInterval),
		Horizon:       scenario.Duration(cfg.Horizon),
		Settle:        scenario.Duration(cfg.Settle),
	}
	for i := 0; i < cfg.Episodes; i++ {
		s.Episodes = append(s.Episodes, randomEpisode(r, &s))
	}
	return s
}

// randomEpisode draws one episode. Kinds are weighted toward
// partitions — the campaign's namesake fault — and a crash that would
// overlap an existing crash window on the same node deterministically
// degrades to a partition instead (overlapping lives of one process
// are not a meaningful schedule).
func randomEpisode(r *rng.Source, s *Schedule) Episode {
	h := time.Duration(s.Horizon)
	// Windows start in the first 90% of the horizon and run 10–30% of
	// it, clamped to end by the horizon — so schedules routinely carry
	// faults right up to the heal barrier, and the settle window (not
	// fault-free slack before the horizon) is what the invariants
	// measure.
	start := time.Duration(r.Uint64n(uint64(h * 9 / 10)))
	length := h/10 + time.Duration(r.Uint64n(uint64(h/5)))
	stop := start + length
	if stop > h {
		stop = h
	}
	e := Episode{Start: scenario.Duration(start), Stop: scenario.Duration(stop)}
	switch k := r.Intn(100); {
	case k < 40:
		e.Kind = KindPartition
	case k < 65:
		e.Kind = KindCrash
	case k < 85:
		e.Kind = KindFlap
	default:
		e.Kind = KindSkew
	}
	e.A = r.Intn(s.Nodes)
	switch e.Kind {
	case KindCrash:
		e.Warm = r.Intn(2) == 1
		for _, prev := range s.Episodes {
			if prev.Kind == KindCrash && prev.A == e.A &&
				e.Start < prev.Stop && prev.Start < e.Stop {
				e.Kind = KindPartition
				e.Warm = false
				break
			}
		}
	case KindFlap:
		e.Rail = r.Intn(rails)
		// Toggle a few times per window, never faster than 4 toggles
		// per probe interval would allow the monitor to notice.
		e.Period = scenario.Duration(time.Duration(s.ProbeInterval) + time.Duration(r.Uint64n(uint64(time.Duration(s.ProbeInterval)*4))))
	case KindSkew:
		// Up to 4 probe intervals of delivery lag: enough to blow probe
		// deadlines, not enough to look like a crash.
		e.Skew = scenario.Duration(time.Duration(s.ProbeInterval)/2 + time.Duration(r.Uint64n(uint64(time.Duration(s.ProbeInterval)*7/2))))
	}
	if e.Kind == KindPartition {
		e.B = (e.A + 1 + r.Intn(s.Nodes-1)) % s.Nodes
		e.Rail = r.Intn(rails+1) - 1 // all rails, 0 or 1
		e.Direction = []string{"both", "tx", "rx"}[r.Intn(3)]
	}
	return e
}
