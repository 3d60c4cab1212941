package experiments

import (
	"fmt"
	"io"
	"time"

	"drsnet/internal/flowsim"
	"drsnet/internal/runtime"
)

// FlowRecoveryConfig describes the connection-level E5 variant: a
// reliable retransmitting stream (flowsim) rides the router under test
// across an injected failure, and the connection's fate is observed.
type FlowRecoveryConfig struct {
	// Protocol names the registered routing protocol under test.
	Protocol string
	Nodes    int
	Scenario Scenario
	// SegmentInterval is the application's send cadence.
	SegmentInterval time.Duration
	// FailAt and Duration bound the run.
	FailAt, Duration time.Duration
	// DRS and reactive tunables (as in RecoveryConfig).
	ProbeInterval     time.Duration
	MissThreshold     int
	AdvertiseInterval time.Duration
	RouteTimeout      time.Duration
	// Flow is the transport configuration (zero value = TCP-like
	// defaults).
	Flow flowsim.FlowConfig
	Seed uint64
}

// DefaultFlowRecoveryConfig mirrors DefaultRecoveryConfig with a
// 200 ms-probing DRS — the regime in which the paper claims
// applications never notice.
func DefaultFlowRecoveryConfig(p string, s Scenario) FlowRecoveryConfig {
	return FlowRecoveryConfig{
		Protocol:          p,
		Nodes:             10,
		Scenario:          s,
		SegmentInterval:   100 * time.Millisecond,
		FailAt:            10 * time.Second,
		Duration:          60 * time.Second,
		ProbeInterval:     200 * time.Millisecond,
		MissThreshold:     2,
		AdvertiseInterval: time.Second,
		RouteTimeout:      6 * time.Second,
		Flow:              flowsim.DefaultFlowConfig(),
		Seed:              1,
	}
}

// FlowRecoveryResult is the connection-level outcome.
type FlowRecoveryResult struct {
	Config FlowRecoveryConfig
	// Sender-side stats.
	Flow flowsim.FlowStats
	// Receiver-side stats.
	Sink flowsim.SinkStats
	// Survived is the connection-level verdict: everything enqueued
	// was acknowledged and the retry budget never ran out.
	Survived bool
}

// FlowRecovery runs one connection-level recovery experiment. The
// cluster is assembled by the unified runtime; the reliable stream
// replaces the runtime's plain datagram flows, so this harness uses
// the Build/Start seam and drives the stream itself.
func FlowRecovery(cfg FlowRecoveryConfig) (*FlowRecoveryResult, error) {
	rc := RecoveryConfig{
		Protocol:          cfg.Protocol,
		Nodes:             cfg.Nodes,
		Scenario:          cfg.Scenario,
		TrafficInterval:   cfg.SegmentInterval,
		FailAt:            cfg.FailAt,
		Duration:          cfg.Duration,
		ProbeInterval:     cfg.ProbeInterval,
		MissThreshold:     cfg.MissThreshold,
		AdvertiseInterval: cfg.AdvertiseInterval,
		RouteTimeout:      cfg.RouteTimeout,
		Seed:              cfg.Seed,
	}
	if err := rc.normalize(); err != nil {
		return nil, err
	}
	spec := rc.spec()
	spec.Flows = nil // the reliable stream below replaces datagram flows
	cluster, err := runtime.Build(spec)
	if err != nil {
		return nil, err
	}
	if err := cluster.Start(); err != nil {
		return nil, err
	}

	sched := cluster.Scheduler()
	clock := cluster.Clock()
	sender, err := flowsim.NewEndpoint(cluster.Router(0), clock)
	if err != nil {
		return nil, err
	}
	receiver, err := flowsim.NewEndpoint(cluster.Router(1), clock)
	if err != nil {
		return nil, err
	}
	flow, err := sender.Dial(1, 1, cfg.Flow)
	if err != nil {
		return nil, err
	}
	sink, err := receiver.Listen(0, 1)
	if err != nil {
		return nil, err
	}

	// The application stops sending early enough for in-flight
	// segments (and their retransmissions) to drain before the
	// horizon; otherwise a healthy tail segment would read as loss.
	drain := 8 * cfg.Flow.RTO
	if drain < 5*time.Second {
		drain = 5 * time.Second
	}
	stopAt := cfg.Duration - drain
	var tick func()
	tick = func() {
		if time.Duration(sched.Now()) >= stopAt {
			return
		}
		// A dead connection stops the application; nothing more to do.
		if err := flow.Send([]byte("segment")); err != nil {
			return
		}
		sched.After(cfg.SegmentInterval, tick)
	}
	// One warm-up interval before the stream starts.
	sched.After(cfg.SegmentInterval, tick)

	cluster.ScheduleFaults()
	cluster.RunUntil(cfg.Duration)
	cluster.StopRouters()

	fs := flow.Stats()
	res := &FlowRecoveryResult{
		Config:   cfg,
		Flow:     fs,
		Sink:     sink.Stats(),
		Survived: !fs.Dead && fs.Acked == fs.Enqueued,
	}
	return res, nil
}

// CompareFlowRecovery runs the connection-level scenario under every
// registered protocol, in the registry's canonical order.
func CompareFlowRecovery(base FlowRecoveryConfig) ([]*FlowRecoveryResult, error) {
	protocols := runtime.Protocols()
	out := make([]*FlowRecoveryResult, 0, len(protocols))
	for _, p := range protocols {
		cfg := base
		cfg.Protocol = p
		res, err := FlowRecovery(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// WriteFlowRecovery renders the connection-level comparison. A stream
// that did not survive is still waiting at the end of the run, so its
// max-stall and recv-gap count that open wait too, printed as ">" and
// its length so far when it is the longest.
func WriteFlowRecovery(w io.Writer, results []*FlowRecoveryResult) error {
	if len(results) == 0 {
		return nil
	}
	c := results[0].Config
	if _, err := fmt.Fprintf(w, "# Connection-level recovery: scenario=%s nodes=%d segment every %v, failure at %v, RTO %v\n",
		c.Scenario, c.Nodes, c.SegmentInterval, c.FailAt, c.Flow.RTO); err != nil {
		return err
	}
	width := len("protocol")
	for _, r := range results {
		width = max(width, len(r.Config.Protocol))
	}
	fmt.Fprintf(w, "%-*s %9s %9s %9s %13s %13s %9s\n",
		width, "protocol", "enqueued", "acked", "retrans", "max-stall", "recv-gap", "survived")
	for _, r := range results {
		stall, gap := r.Flow.MaxAckStall.String(), r.Sink.MaxGap.String()
		if !r.Survived {
			stall, gap = longestWait(r.Flow.MaxAckStall, r.Flow.Waiting), longestWait(r.Sink.MaxGap, r.Sink.Idle)
		}
		fmt.Fprintf(w, "%-*s %9d %9d %9d %13s %13s %9v\n",
			width, r.Config.Protocol, r.Flow.Enqueued, r.Flow.Acked, r.Flow.Retransmissions,
			stall, gap, r.Survived)
	}
	return nil
}

// longestWait renders the longer of a closed wait and one still open,
// the open one as a lower bound.
func longestWait(closed, open time.Duration) string {
	if open > closed {
		return ">" + open.String()
	}
	return closed.String()
}
