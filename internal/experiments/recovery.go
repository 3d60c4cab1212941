package experiments

import (
	"fmt"
	"io"
	"time"

	"drsnet/internal/costmodel"
	"drsnet/internal/runtime"
	"drsnet/internal/tcpmodel"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// Scenario names a canned failure to inject.
type Scenario string

// Scenarios for the recovery experiment.
const (
	// ScenarioNIC fails the destination's primary-rail NIC: the
	// classic single-component failure the DRS hides behind a
	// second-NIC failover.
	ScenarioNIC Scenario = "nic"
	// ScenarioBackplane fails the primary back plane, forcing every
	// node onto the second rail at once.
	ScenarioBackplane Scenario = "backplane"
	// ScenarioCrossRail fails the sender's rail-0 NIC and the
	// receiver's rail-1 NIC: no direct path remains and only the DRS
	// relay discovery (or the reactive two-hop route) can reconnect.
	ScenarioCrossRail Scenario = "crossrail"
)

// RecoveryConfig describes one E5 run.
type RecoveryConfig struct {
	// Protocol names the registered routing protocol under test
	// (runtime.Protocols lists the choices).
	Protocol string
	// Nodes is the cluster size (the deployed clusters were 8–12).
	Nodes int
	// Scenario selects the injected failure.
	Scenario Scenario
	// TrafficInterval is the period of the application flow 0 → 1.
	TrafficInterval time.Duration
	// FailAt is when the failure is injected.
	FailAt time.Duration
	// Duration is the total simulated time.
	Duration time.Duration
	// DRS tunables (used when Protocol == runtime.ProtoDRS).
	ProbeInterval time.Duration
	MissThreshold int
	// Reactive tunables (used when Protocol == runtime.ProtoReactive).
	AdvertiseInterval time.Duration
	RouteTimeout      time.Duration
	// Seed drives the simulator's stochastic pieces.
	Seed uint64
	// TraceSink, if non-nil, receives every protocol event of the run
	// (probe results are too chatty to log; link transitions, route
	// changes, discovery and forwarding are recorded).
	TraceSink *trace.Log
}

// DefaultRecoveryConfig returns the standard E5 run: a 10-node
// cluster, failure at t = 10 s, application messages every 100 ms.
func DefaultRecoveryConfig(p string, s Scenario) RecoveryConfig {
	return RecoveryConfig{
		Protocol:          p,
		Nodes:             10,
		Scenario:          s,
		TrafficInterval:   100 * time.Millisecond,
		FailAt:            10 * time.Second,
		Duration:          40 * time.Second,
		ProbeInterval:     time.Second,
		MissThreshold:     2,
		AdvertiseInterval: time.Second,
		RouteTimeout:      6 * time.Second,
		Seed:              1,
	}
}

func (c *RecoveryConfig) normalize() error {
	if c.Nodes < 3 {
		return fmt.Errorf("experiments: recovery needs ≥ 3 nodes (a relay), have %d", c.Nodes)
	}
	if c.TrafficInterval <= 0 || c.FailAt <= 0 || c.Duration <= c.FailAt {
		return fmt.Errorf("experiments: bad timing (interval %v, fail %v, duration %v)",
			c.TrafficInterval, c.FailAt, c.Duration)
	}
	if c.Protocol == "" {
		c.Protocol = runtime.ProtoDRS
	}
	if _, err := runtime.Lookup(c.Protocol); err != nil {
		return err
	}
	switch c.Scenario {
	case ScenarioNIC, ScenarioBackplane, ScenarioCrossRail:
	default:
		return fmt.Errorf("experiments: unknown scenario %q", c.Scenario)
	}
	return nil
}

// components returns the components the scenario fails.
func (c RecoveryConfig) components(cl topology.Cluster) []topology.Component {
	switch c.Scenario {
	case ScenarioNIC:
		return []topology.Component{cl.NIC(1, 0)}
	case ScenarioBackplane:
		return []topology.Component{cl.Backplane(0)}
	case ScenarioCrossRail:
		return []topology.Component{cl.NIC(0, 0), cl.NIC(1, 1)}
	default:
		return nil
	}
}

// spec translates the experiment configuration into a runtime spec:
// one 0 → 1 flow and the scenario's faults at FailAt.
func (c RecoveryConfig) spec() runtime.ClusterSpec {
	spec := runtime.ClusterSpec{
		Nodes:    c.Nodes,
		Protocol: c.Protocol,
		Seed:     c.Seed,
		Duration: c.Duration,
		Tunables: runtime.Tunables{
			ProbeInterval:     c.ProbeInterval,
			MissThreshold:     c.MissThreshold,
			AdvertiseInterval: c.AdvertiseInterval,
			RouteTimeout:      c.RouteTimeout,
		},
		Flows: []runtime.Flow{{
			From:     0,
			To:       1,
			Interval: c.TrafficInterval,
			Payload:  []byte("app"),
		}},
		Trace: c.TraceSink,
	}
	cl := topology.Dual(c.Nodes)
	for _, comp := range c.components(cl) {
		spec.Faults = append(spec.Faults, runtime.Fault{At: c.FailAt, Comp: comp})
	}
	return spec
}

// RecoveryResult reports what the application experienced.
type RecoveryResult struct {
	Config RecoveryConfig
	// Sent and Delivered count application messages on the 0 → 1 flow.
	Sent, Delivered, Lost int
	// Recovered reports whether delivery resumed after the failure.
	Recovered bool
	// Outage is the application-visible gap: the time from the
	// injected failure to the first post-failure delivery.
	Outage time.Duration
	// DetectionLatency is how long the protocol took to notice the
	// failure (DRS link-down event; zero for protocols that never
	// detect anything).
	DetectionLatency time.Duration
	// RepairLatency is how long until a replacement route was
	// installed at the sender (DRS only; zero otherwise).
	RepairLatency time.Duration
	// MaskedFromTCP reports whether the outage fits inside one TCP
	// retransmission (tcpmodel defaults) — the paper's "server
	// applications are unaware that a network failure has occurred".
	MaskedFromTCP bool
	// SurvivedByTCP reports whether a TCP connection (default
	// parameters) would have survived the outage at all.
	SurvivedByTCP bool
}

// Recovery runs one E5 experiment on the unified cluster runtime.
func Recovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	run, err := runtime.Run(cfg.spec())
	if err != nil {
		return nil, err
	}

	flow := run.Flows[0]
	res := &RecoveryResult{Config: cfg, Sent: flow.Sent, Delivered: flow.Delivered}
	res.Lost = res.Sent - res.Delivered

	// Outage: failure time to first subsequent delivery.
	var firstAfter time.Duration = -1
	for _, at := range flow.Deliveries {
		if at >= cfg.FailAt {
			firstAfter = at
			break
		}
	}
	if firstAfter >= 0 {
		res.Recovered = true
		res.Outage = firstAfter - cfg.FailAt
	} else {
		res.Outage = cfg.Duration - cfg.FailAt // censored
	}

	// Protocol-level latencies from the trace (sender's view).
	if cfg.Protocol == runtime.ProtoDRS {
		for _, e := range run.Trace.Events() {
			if e.Kind == trace.KindLinkDown && e.Node == 0 && e.At >= cfg.FailAt {
				res.DetectionLatency = e.At - cfg.FailAt
				break
			}
		}
		for _, rep := range run.Repairs {
			if rep.Node == 0 && rep.Peer == 1 && rep.RepairedAt >= cfg.FailAt {
				res.RepairLatency = rep.RepairedAt - cfg.FailAt
				break
			}
		}
	}

	tcp := tcpmodel.Defaults()
	if mask, err := tcp.MaxMaskableOutage(); err == nil {
		res.MaskedFromTCP = res.Recovered && res.Outage <= mask
	}
	if surv, err := tcp.SurvivableOutage(); err == nil {
		res.SurvivedByTCP = res.Recovered && res.Outage <= surv
	}
	return res, nil
}

// CompareRecovery runs the same scenario under every registered
// protocol, in the registry's canonical (sorted) order. A protocol
// registered by a test or a plugin appears in the table without any
// change here.
func CompareRecovery(base RecoveryConfig) ([]*RecoveryResult, error) {
	protocols := runtime.Protocols()
	out := make([]*RecoveryResult, 0, len(protocols))
	for _, p := range protocols {
		cfg := base
		cfg.Protocol = p
		res, err := Recovery(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// WriteRecovery renders E5 results.
func WriteRecovery(w io.Writer, results []*RecoveryResult) error {
	if len(results) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# Recovery: scenario=%s nodes=%d traffic every %v, failure at %v\n",
		results[0].Config.Scenario, results[0].Config.Nodes,
		results[0].Config.TrafficInterval, results[0].Config.FailAt); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %9s %9s %7s %12s %12s %12s %7s %9s\n",
		"protocol", "sent", "lost", "recov", "outage", "detect", "repair", "masked", "tcp-alive")
	for _, r := range results {
		outage := r.Outage.String()
		if !r.Recovered {
			outage = ">" + outage
		}
		// Only the DRS has a failure detector to time.
		detect, repair := "–", "–"
		if r.Config.Protocol == runtime.ProtoDRS {
			detect, repair = r.DetectionLatency.String(), r.RepairLatency.String()
		}
		fmt.Fprintf(w, "%-15s %9d %9d %7v %12s %12s %12s %7v %9v\n",
			r.Config.Protocol, r.Sent, r.Lost, r.Recovered, outage,
			detect, repair, r.MaskedFromTCP, r.SurvivedByTCP)
	}
	return nil
}

// ProbeOverhead measures, empirically, the bandwidth the DRS's
// phase-1 link checks consume on one rail of an idle n-node cluster,
// and returns it alongside the cost model's prediction — the
// simulation-level validation of Figure 1. The measurement is the
// load between two readings taken on round boundaries, one interval
// in and at duration: a reading at a boundary includes the requests of
// the round that fires at that instant but not their replies, so a
// whole-run reading counts one round of requests too many (Dual(10)
// at 1 s over 10 s reads 0.0635% against 0.0605% predicted), while
// the two boundaries' half rounds cancel in the window. With
// switched set, both the simulated fabric and the prediction use the
// switched (per-port) model; the measured figure is then
// aggregate-fabric utilization, which for uniform all-pairs probing
// equals the per-port load.
func ProbeOverhead(n int, probeInterval, duration time.Duration, switched bool) (measured, predicted float64, err error) {
	if n < 2 || probeInterval <= 0 || duration <= probeInterval {
		return 0, 0, fmt.Errorf("experiments: bad probe-overhead parameters")
	}
	cluster, err := runtime.Build(runtime.ClusterSpec{
		Nodes:    n,
		Protocol: runtime.ProtoDRS,
		Switched: switched,
		Seed:     1,
		Tunables: runtime.Tunables{ProbeInterval: probeInterval},
	})
	if err != nil {
		return 0, 0, err
	}
	if err := cluster.Start(); err != nil {
		return 0, 0, err
	}
	// Utilization is a fraction of the capacity elapsed so far, so the
	// window's load is the difference of the two readings' totals.
	cluster.RunUntil(probeInterval)
	warm := cluster.Network().Utilization(0) * probeInterval.Seconds()
	cluster.RunUntil(duration)
	cluster.StopRouters()
	measured = (cluster.Network().Utilization(0)*duration.Seconds() - warm) / (duration - probeInterval).Seconds()

	params := costmodel.Defaults()
	var bits float64
	if switched {
		// Aggregate fabric load per round: every node's port carries
		// its n-1 frames of the pairs' exchanges, and with symmetric
		// traffic the aggregate utilization equals the per-port
		// utilization.
		bits = float64(params.FramesPerRoundPort(n)) * float64(params.FrameBytes) * 8
	} else {
		bits = params.BitsPerRound(n)
	}
	predicted = bits / probeInterval.Seconds() / params.LinkRate
	return measured, predicted, nil
}
