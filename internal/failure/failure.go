// Package failure generates the failure workloads of the paper's
// evaluation:
//
//   - a synthetic fleet failure log reproducing the motivating
//     statistic — "we evaluated one hundred deployed systems and found
//     that over a one-year period, thirteen percent of the hardware
//     failures were network related";
//   - component failure/repair schedules for driving the packet-level
//     simulator through long-running availability experiments (the
//     voice-mail deployment scenario).
//
// Everything is seeded and deterministic.
package failure

import (
	"fmt"
	"sort"
	"time"

	"drsnet/internal/rng"
	"drsnet/internal/topology"
)

// Category classifies a hardware failure in the fleet log.
type Category int

// Failure categories. The network-related ones — NICs, hubs, cabling —
// are the paper's 13%.
const (
	CatDisk Category = iota
	CatMemory
	CatCPU
	CatPower
	CatFan
	CatOther
	CatNIC
	CatHub
	CatCable
	numCategories
)

var categoryNames = [...]string{
	"disk", "memory", "cpu", "power", "fan", "other", "nic", "hub", "cable",
}

// String implements fmt.Stringer.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// IsNetwork reports whether the category is network related.
func (c Category) IsNetwork() bool {
	return c == CatNIC || c == CatHub || c == CatCable
}

// FleetConfig parameterizes the fleet failure-log generator.
type FleetConfig struct {
	// Servers is the fleet size (the paper evaluated 100).
	Servers int
	// Days is the observation window (the paper's was one year).
	Days int
	// AnnualFailureRate is the expected hardware failures per server
	// per year, all categories combined.
	AnnualFailureRate float64
	// Weights gives the relative likelihood of each category.
	// Nil selects DefaultWeights.
	Weights []float64
	// Seed drives the generator.
	Seed uint64
}

// DefaultWeights mirrors field experience with commodity servers of
// the era and puts exactly 13% of the mass on network categories
// (nic 7% + hub 4% + cable 2%), matching the paper's statistic.
func DefaultWeights() []float64 {
	w := make([]float64, numCategories)
	w[CatDisk] = 0.35
	w[CatMemory] = 0.10
	w[CatCPU] = 0.05
	w[CatPower] = 0.12
	w[CatFan] = 0.08
	w[CatOther] = 0.17
	w[CatNIC] = 0.07
	w[CatHub] = 0.04
	w[CatCable] = 0.02
	return w
}

// DefaultFleetConfig reproduces the paper's observation: 100 servers,
// one year, with an overall failure rate of 1.2 per server-year.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Servers:           100,
		Days:              365,
		AnnualFailureRate: 1.2,
		Seed:              1,
	}
}

func (c *FleetConfig) normalize() error {
	if c.Servers <= 0 {
		return fmt.Errorf("failure: need at least one server")
	}
	if c.Days <= 0 {
		return fmt.Errorf("failure: need a positive observation window")
	}
	if !(c.AnnualFailureRate > 0) {
		return fmt.Errorf("failure: need a positive failure rate")
	}
	if c.Weights == nil {
		c.Weights = DefaultWeights()
	}
	if len(c.Weights) != int(numCategories) {
		return fmt.Errorf("failure: %d weights, want %d", len(c.Weights), numCategories)
	}
	total := 0.0
	for i, w := range c.Weights {
		if w < 0 {
			return fmt.Errorf("failure: negative weight for %v", Category(i))
		}
		total += w
	}
	if !(total > 0) {
		return fmt.Errorf("failure: all weights zero")
	}
	return nil
}

// FleetEvent is one hardware failure in the fleet log.
type FleetEvent struct {
	Day      int
	Server   int
	Category Category
}

// FleetLog is the generated failure history.
type FleetLog struct {
	Config FleetConfig
	Events []FleetEvent
}

// FleetSummary aggregates a log.
type FleetSummary struct {
	Total           int
	ByCategory      [numCategories]int
	Network         int
	NetworkFraction float64
}

// GenerateFleetLog samples a failure history: each server fails as a
// Poisson process at the configured annual rate, with categories drawn
// by weight, uniformly placed in time.
func GenerateFleetLog(cfg FleetConfig) (*FleetLog, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	cum := cumulative(cfg.Weights)
	var events []FleetEvent
	dailyRate := cfg.AnnualFailureRate / 365
	for server := 0; server < cfg.Servers; server++ {
		sub := r.Split(uint64(server))
		// Poisson arrivals by exponential gaps.
		t := sub.ExpFloat64() / dailyRate
		for t < float64(cfg.Days) {
			events = append(events, FleetEvent{
				Day:      int(t),
				Server:   server,
				Category: pickCategory(cum, sub.Float64()),
			})
			t += sub.ExpFloat64() / dailyRate
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Day != events[j].Day {
			return events[i].Day < events[j].Day
		}
		return events[i].Server < events[j].Server
	})
	return &FleetLog{Config: cfg, Events: events}, nil
}

func cumulative(w []float64) []float64 {
	cum := make([]float64, len(w))
	total := 0.0
	for i, v := range w {
		total += v
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

func pickCategory(cum []float64, u float64) Category {
	for i, c := range cum {
		if u < c {
			return Category(i)
		}
	}
	return Category(len(cum) - 1)
}

// Summary aggregates the log.
func (l *FleetLog) Summary() FleetSummary {
	var s FleetSummary
	for _, e := range l.Events {
		s.Total++
		s.ByCategory[e.Category]++
		if e.Category.IsNetwork() {
			s.Network++
		}
	}
	if s.Total > 0 {
		s.NetworkFraction = float64(s.Network) / float64(s.Total)
	}
	return s
}

// ---------------------------------------------------------------
// Component failure schedules for the packet simulator.

// Action is one scheduled component state change.
type Action struct {
	At        time.Duration
	Component topology.Component
	// Up false fails the component; true restores it.
	Up bool
}

// Schedule is a time-ordered list of component state changes.
type Schedule []Action

// ScheduleConfig parameterizes random failure/repair schedules.
type ScheduleConfig struct {
	// Horizon is the simulated time covered.
	Horizon time.Duration
	// MTBF is each component's mean time between failures.
	MTBF time.Duration
	// MTTR is the mean time to repair a failed component.
	MTTR time.Duration
	// Seed drives the sampling.
	Seed uint64
}

func (c ScheduleConfig) validate() error {
	if c.Horizon <= 0 || c.MTBF <= 0 || c.MTTR <= 0 {
		return fmt.Errorf("failure: horizon, MTBF and MTTR must be positive")
	}
	return nil
}

// RandomSchedule samples an alternating fail/repair process for every
// component of the cluster: exponential up-times with mean MTBF and
// down-times with mean MTTR, truncated at the horizon.
func RandomSchedule(cluster topology.Cluster, cfg ScheduleConfig) (Schedule, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	var sched Schedule
	for comp := 0; comp < cluster.Components(); comp++ {
		sub := r.Split(uint64(comp))
		t := time.Duration(sub.ExpFloat64() * float64(cfg.MTBF))
		up := false // next transition takes the component down
		for t < cfg.Horizon {
			sched = append(sched, Action{At: t, Component: topology.Component(comp), Up: up})
			if up {
				t += time.Duration(sub.ExpFloat64() * float64(cfg.MTBF))
			} else {
				t += time.Duration(sub.ExpFloat64() * float64(cfg.MTTR))
			}
			up = !up
		}
	}
	sort.Slice(sched, func(i, j int) bool {
		if sched[i].At != sched[j].At {
			return sched[i].At < sched[j].At
		}
		return sched[i].Component < sched[j].Component
	})
	return sched, nil
}
