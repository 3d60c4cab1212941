package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"drsnet/internal/availability"
	"drsnet/internal/rng"
	"drsnet/internal/runtime"
	"drsnet/internal/topology"
)

// AvailabilityConfig describes a long-run availability measurement:
// a DRS cluster under continuous component failure and repair, with a
// steady application flow whose delivery ratio IS the availability.
type AvailabilityConfig struct {
	Nodes int
	// MTBF and MTTR drive the per-component failure/repair schedule.
	MTBF, MTTR time.Duration
	// Horizon is the simulated observation window.
	Horizon time.Duration
	// ProbeInterval and MissThreshold configure the DRS daemons.
	ProbeInterval time.Duration
	MissThreshold int
	// TrafficInterval is the application flow period (node 0 → 1).
	TrafficInterval time.Duration
	// Seed drives schedule sampling.
	Seed uint64
}

// DefaultAvailabilityConfig returns a fast-but-meaningful regime:
// a 2-hour window with each component failing every ~20 minutes.
func DefaultAvailabilityConfig() AvailabilityConfig {
	return AvailabilityConfig{
		Nodes:           6,
		MTBF:            20 * time.Minute,
		MTTR:            time.Minute,
		Horizon:         2 * time.Hour,
		ProbeInterval:   time.Second,
		MissThreshold:   2,
		TrafficInterval: time.Second,
		Seed:            1,
	}
}

func (c AvailabilityConfig) validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("experiments: availability needs ≥ 2 nodes")
	}
	if c.MTBF <= 0 || c.MTTR <= 0 || c.Horizon <= 0 {
		return fmt.Errorf("experiments: MTBF, MTTR and horizon must be positive")
	}
	if c.ProbeInterval <= 0 || c.MissThreshold <= 0 || c.TrafficInterval <= 0 {
		return fmt.Errorf("experiments: probe interval, miss threshold and traffic interval must be positive")
	}
	return nil
}

// AvailabilityResult pairs the measured delivery ratio with the
// analytic prediction.
type AvailabilityResult struct {
	Config          AvailabilityConfig
	Sent, Delivered int
	// Measured is Delivered/Sent — the application-experienced
	// availability.
	Measured float64
	// Model is the first-order analytic prediction
	// (availability.Effective).
	Model availability.Result
	// Failures is the number of component failures injected.
	Failures int
}

// MeasureAvailability runs the long-horizon experiment and the
// analytic model side by side.
func MeasureAvailability(cfg AvailabilityConfig) (*AvailabilityResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cluster := topology.Dual(cfg.Nodes)
	plan, err := RandomSchedule(cluster, ScheduleConfig{
		Horizon: cfg.Horizon,
		MTBF:    cfg.MTBF,
		MTTR:    cfg.MTTR,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	spec := runtime.ClusterSpec{
		Nodes:    cfg.Nodes,
		Protocol: runtime.ProtoDRS,
		Seed:     cfg.Seed,
		Duration: cfg.Horizon,
		Tunables: runtime.Tunables{
			ProbeInterval: cfg.ProbeInterval,
			MissThreshold: cfg.MissThreshold,
		},
		// Frames in flight at the horizon are microseconds from
		// delivery — noise against an hours-long window — so no drain
		// pass is needed (the flow runs to the horizon).
		Flows:  []runtime.Flow{{From: 0, To: 1, Interval: cfg.TrafficInterval}},
		Faults: plan,
	}
	failures := 0
	for _, f := range plan {
		if !f.Restore {
			failures++
		}
	}
	run, err := runtime.Run(spec)
	if err != nil {
		return nil, err
	}
	sent, delivered := run.Flows[0].Sent, run.Flows[0].Delivered

	model, err := availability.Effective(availability.Params{
		Nodes: cfg.Nodes,
		MTBF:  cfg.MTBF,
		MTTR:  cfg.MTTR,
		// Mean repair window: detection takes between MissThreshold
		// and MissThreshold+1 probe rounds after the failure.
		RepairWindow: time.Duration(float64(cfg.MissThreshold)+0.5) * cfg.ProbeInterval,
	})
	if err != nil {
		return nil, err
	}
	return &AvailabilityResult{
		Config:    cfg,
		Sent:      sent,
		Delivered: delivered,
		Measured:  float64(delivered) / float64(sent),
		Model:     model,
		Failures:  failures,
	}, nil
}

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
		return fmt.Errorf("experiments: horizon, MTBF and MTTR must be positive")
	}
	return nil
}

// RandomSchedule samples an alternating fail/repair process for every
// component of the cluster: exponential up-times with mean MTBF and
// down-times with mean MTTR, truncated at the horizon. The faults are
// ordered by time, then component.
func RandomSchedule(cluster topology.Cluster, cfg ScheduleConfig) ([]runtime.Fault, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	var sched []runtime.Fault
	for comp := 0; comp < cluster.Components(); comp++ {
		sub := r.Split(uint64(comp))
		t := time.Duration(sub.ExpFloat64() * float64(cfg.MTBF))
		up := false // next transition takes the component down
		for t < cfg.Horizon {
			sched = append(sched, runtime.Fault{At: t, Comp: topology.Component(comp), Restore: up})
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
		return sched[i].Comp < sched[j].Comp
	})
	return sched, nil
}

// WriteAvailability renders a measurement next to its prediction.
func WriteAvailability(w io.Writer, res *AvailabilityResult) error {
	c := res.Config
	if _, err := fmt.Fprintf(w, "# Availability: %d nodes, MTBF %v, MTTR %v, horizon %v, %d failures injected\n",
		c.Nodes, c.MTBF, c.MTTR, c.Horizon, res.Failures); err != nil {
		return err
	}
	fmt.Fprintf(w, "per-component steady-state unavailability q:  %.4f\n", res.Model.Q)
	fmt.Fprintf(w, "structural pair availability (Equation 1 IID): %.5f\n", res.Model.Structural)
	fmt.Fprintf(w, "DRS detection penalty (first order):           %.5f\n", res.Model.DetectionPenalty)
	fmt.Fprintf(w, "model effective availability:                  %.5f\n", res.Model.Effective)
	fmt.Fprintf(w, "measured (delivered %d of %d):               %.5f  (%d nines, %v downtime/yr)\n",
		res.Delivered, res.Sent, res.Measured,
		availability.Nines(res.Measured),
		availability.DowntimePerYear(1-res.Measured).Round(time.Minute))
	return nil
}
