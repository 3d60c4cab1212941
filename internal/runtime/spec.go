package runtime

import (
	"fmt"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/invariant"
	"drsnet/internal/linkmon"
	"drsnet/internal/overload"
	"drsnet/internal/routing"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// Tunables carries every protocol knob a spec can set. Each protocol
// reads the fields it understands and ignores the rest, so one struct
// serves the whole registry.
type Tunables struct {
	// ProbeInterval is the DRS link-check period (default 1 s).
	ProbeInterval time.Duration
	// MissThreshold is the DRS consecutive-miss count that declares a
	// link down (default 2).
	MissThreshold int
	// StaggerProbes spreads DRS link checks across the probe interval.
	StaggerProbes bool
	// PreferLowLatency steers DRS routes toward the lower-RTT rail.
	PreferLowLatency bool
	// StrictLinkEvidence makes DRS count only round-trip probe
	// confirmations as link-liveness evidence, so asymmetric cuts
	// (peer heard, peer deaf to us) are detected instead of masked.
	// Off by default — the optimistic behavior matches the deployed
	// DRS and the seeded goldens.
	StrictLinkEvidence bool
	// AdvertiseInterval is the reactive advertisement period and the
	// link-state hello period (default 1 s).
	AdvertiseInterval time.Duration
	// RouteTimeout is the reactive route expiry (default 6× the
	// advertisement interval).
	RouteTimeout time.Duration
	// FlapDamping enables RFC 2439-style route-flap damping in the DRS
	// (ignored by the baselines). The zero value disables damping; see
	// linkmon.Damping for the threshold semantics and
	// linkmon.DefaultDamping for sane defaults.
	FlapDamping linkmon.Damping
	// AdaptiveRTO enables Jacobson/Karels adaptive probe deadlines in
	// the DRS: per-probe timers at srtt + 4·rttvar with exponential
	// backoff, instead of once-per-round miss accounting, and at the
	// answering end of each shared exchange a timer on the peer's next
	// request (see core.Config.AdaptiveRTO); no frame is added. The
	// zero value keeps the classic fixed deadline (and the seeded
	// goldens byte-identical); see linkmon.DefaultRTO for stock
	// settings.
	AdaptiveRTO linkmon.RTO
	// Overload enables the DRS control-plane overload-protection layer
	// (ignored by the baselines): token-bucket budgets on probe
	// retransmits and discovery broadcasts, jittered RTO deadlines, a
	// prioritized queue for deferred control work and the degraded-mode
	// governor that pins last-known-good routes when budgets saturate.
	// The zero value disables the layer (and keeps seeded goldens
	// byte-identical); see overload.Default for stock settings.
	Overload overload.Config
	// FailoverTTL stamps the static fast-failover variants' ProtoData
	// frames (rotor and arborescence; default 6). Defence in depth
	// only — the variants' loop-freedom does not rest on it.
	FailoverTTL int
	// Lifecycle enables the crash–restart lifecycle: DRS daemons get
	// monotonically increasing incarnation numbers, open with a rejoin
	// broadcast, stamp their route offers, and reject control frames
	// from peers' previous lives. Set automatically when the spec
	// carries a crash episode; settable on its own for protocol
	// studies.
	Lifecycle bool
}

// TopologySpec selects the simulated network shape. The zero value
// (empty Kind) is the classic dual-rail cluster — Nodes hosts on Rails
// shared segments. "fatTree" and "bcube" run the same protocols over a
// multi-hop switched fabric instead; their Nodes and Rails are derived
// from the fabric shape, so a spec naming a fabric kind leaves Nodes
// and Rails zero (or set to exactly the derived values). The json tags
// are the scenario document's "topology" block.
type TopologySpec struct {
	// Kind is "" or "dualRail" (the paper's cluster), "fatTree", or
	// "bcube".
	Kind string `json:"kind"`
	// K is the fat-tree arity (even, ≥ 2). Fat-tree only.
	K int `json:"k,omitempty"`
	// N is the BCube switch radix (≥ 2). BCube only.
	N int `json:"n,omitempty"`
	// Level is the BCube level k: hosts get Level+1 ports. BCube only.
	Level int `json:"level,omitempty"`
}

// Fabric constructs the switched fabric the spec names, or returns nil
// for the dual-rail kinds.
func (t TopologySpec) Fabric() (*topology.Fabric, error) {
	switch t.Kind {
	case "", "dualRail":
		return nil, nil
	case "fatTree":
		return topology.FatTree(t.K)
	case "bcube":
		return topology.BCube(t.N, t.Level)
	default:
		return nil, fmt.Errorf("unknown topology kind %q (want dualRail, fatTree or bcube)", t.Kind)
	}
}

// StartImmediately, as a Flow.Start value, fires the flow's first
// message at time zero (a Start of zero means the default one-interval
// warm-up, matching the scenario loader's semantics).
const StartImmediately = -1

// Flow is one periodic application flow: From sends Payload to To
// every Interval. Message loss is the application's problem, exactly
// as on real hardware — the runtime only counts.
type Flow struct {
	From, To int
	Interval time.Duration
	// Start delays the first message. Zero means one Interval;
	// StartImmediately means time zero.
	Start time.Duration
	// Stop, when positive, is the first instant at which no further
	// messages are sent; zero means the flow runs to the horizon.
	Stop time.Duration
	// Payload is the datagram body (default "flow"). Its length feeds
	// the simulator's serialization model, so it is part of the spec.
	Payload []byte
}

// Fault is one scripted component state change.
type Fault struct {
	At time.Duration
	// Comp identifies the NIC or back plane (topology numbering for
	// the spec's cluster shape).
	Comp topology.Component
	// Restore brings the component back instead of failing it.
	Restore bool
}

// ClusterSpec is the declarative description of one simulated cluster
// run: shape, protocol, tunables, traffic, fault schedule and sinks.
// The zero value of every optional field means its documented default.
type ClusterSpec struct {
	// Nodes is the cluster size.
	Nodes int
	// Rails is the number of independent networks (default 2, the
	// paper's dual-rail configuration).
	Rails int
	// Topology selects the network shape (default dual-rail). Fabric
	// kinds ("fatTree", "bcube") derive Nodes and Rails from the shape
	// and are incompatible with Switched, which is the dual-rail
	// per-segment switching ablation.
	Topology TopologySpec
	// Protocol names a registered routing protocol (default "drs").
	Protocol string
	// Switched replaces the shared hubs with switched fabrics.
	Switched bool
	// LossRate injects random frame loss.
	LossRate float64
	// Seed drives the simulation's stochastic pieces.
	Seed uint64
	// Duration is the simulated horizon of Run (unused by Build-only
	// callers that drive the scheduler themselves).
	Duration time.Duration
	// Tunables are the protocol knobs.
	Tunables Tunables
	// Flows is the application traffic matrix.
	Flows []Flow
	// Faults is the component failure/repair script.
	Faults []Fault
	// Episodes is the timed fault script (see internal/chaos):
	// impairment, kill and flap windows on components, node-pair
	// partitions (dual-rail clusters only) and daemon crash–restarts.
	// Its canonical order is a scenario document's: impairments, then
	// crashes, then partitions. A crash implies Tunables.Lifecycle.
	// Empty means the fail-stop world of the paper's experiments.
	Episodes []chaos.Episode
	// Invariant, if non-nil, runs the whole simulation under the
	// forwarding-trace invariant checker (loop-freedom, delivery or
	// provable disconnection, bounded stretch; see internal/invariant).
	// The checker observes every frame through the network tap and its
	// Report lands on the Result; it draws no randomness, so enabling
	// it never changes a seeded run's outcome. A nil Reachable in the
	// config is defaulted to the network's ground-truth oracle.
	Invariant *invariant.Config
	// Trace, if non-nil, receives every protocol event of the run;
	// nil means a private log, exposed on the Result.
	Trace *trace.Log
	// OnDeliver, if non-nil, observes every application delivery in
	// simulation order. data is a view of the network's receive
	// buffer: valid until the callback returns, copied if kept.
	OnDeliver func(at time.Duration, src, dst int, data []byte)

	// fabric is the resolved switched fabric, set by Normalize when
	// Topology names one (nil for dual-rail shapes).
	fabric *topology.Fabric
}

// Fabric returns the spec's resolved switched fabric, or nil for
// dual-rail shapes. Valid after Normalize (i.e. on built clusters).
func (s *ClusterSpec) Fabric() *topology.Fabric { return s.fabric }

// Normalize applies defaults and validates the spec in place. It is
// the one validator of a cluster: Build and BuildNode call it, and so
// do the scenario loader and drsd through it. A normalized spec
// normalizes again to itself.
func (s *ClusterSpec) Normalize() error {
	f, err := s.Topology.Fabric()
	if err != nil {
		return fmt.Errorf("runtime: %v", err)
	}
	if f != nil {
		if s.Switched {
			return fmt.Errorf("runtime: Switched is a dual-rail ablation; %q fabrics are switched by construction", s.Topology.Kind)
		}
		if s.Nodes != 0 && s.Nodes != f.Hosts() {
			return fmt.Errorf("runtime: nodes %d conflicts with %s topology (%d hosts); leave Nodes zero",
				s.Nodes, s.Topology.Kind, f.Hosts())
		}
		if s.Rails != 0 && s.Rails != f.Ports() {
			return fmt.Errorf("runtime: rails %d conflicts with %s topology (%d ports); leave Rails zero",
				s.Rails, s.Topology.Kind, f.Ports())
		}
		s.Nodes, s.Rails = f.Hosts(), f.Ports()
		s.fabric = f
	}
	if s.Rails == 0 {
		s.Rails = 2
	}
	cl := topology.Cluster{Nodes: s.Nodes, Rails: s.Rails}
	if s.fabric == nil {
		if err := cl.Validate(); err != nil {
			return fmt.Errorf("runtime: %v", err)
		}
	}
	if s.Protocol == "" {
		s.Protocol = ProtoDRS
	}
	if _, err := Lookup(s.Protocol); err != nil {
		return err
	}
	if s.LossRate < 0 || s.LossRate >= 1 {
		return fmt.Errorf("runtime: loss rate %v outside [0,1)", s.LossRate)
	}
	if s.Tunables.ProbeInterval == 0 {
		s.Tunables.ProbeInterval = time.Second
	}
	if s.Tunables.MissThreshold == 0 {
		s.Tunables.MissThreshold = 2
	}
	if s.Tunables.AdvertiseInterval == 0 {
		s.Tunables.AdvertiseInterval = time.Second
	}
	if s.Tunables.RouteTimeout == 0 {
		s.Tunables.RouteTimeout = 6 * s.Tunables.AdvertiseInterval
	}
	if s.Tunables.ProbeInterval < 0 || s.Tunables.MissThreshold < 0 ||
		s.Tunables.AdvertiseInterval < 0 || s.Tunables.RouteTimeout < 0 {
		return fmt.Errorf("runtime: negative protocol tunable")
	}
	// What the built-in builders derive from the tunables must exist:
	// the DRS query timeout (half the probe interval), a link-state
	// hello period within the fixed dead interval, and a reactive route
	// that outlives one advertisement.
	switch t := &s.Tunables; {
	case s.Protocol == ProtoDRS && t.ProbeInterval/2 == 0:
		return fmt.Errorf("runtime: probe interval %v leaves the DRS no query timeout (half the interval)", t.ProbeInterval)
	case s.Protocol == ProtoLinkState && t.AdvertiseInterval > routing.DefaultLinkStateConfig().DeadInterval:
		return fmt.Errorf("runtime: advertise interval %v above the link-state dead interval %v",
			t.AdvertiseInterval, routing.DefaultLinkStateConfig().DeadInterval)
	case s.Protocol == ProtoReactive && t.RouteTimeout < t.AdvertiseInterval:
		return fmt.Errorf("runtime: route timeout %v below advertise interval %v", t.RouteTimeout, t.AdvertiseInterval)
	}
	if s.Tunables.FailoverTTL < 0 {
		return fmt.Errorf("runtime: failover TTL %d must be ≥ 0", s.Tunables.FailoverTTL)
	}
	if s.Invariant != nil && s.Invariant.MaxHops < 0 {
		return fmt.Errorf("runtime: invariant max hops %d must be ≥ 0", s.Invariant.MaxHops)
	}
	for i, f := range s.Flows {
		if f.From < 0 || f.From >= s.Nodes || f.To < 0 || f.To >= s.Nodes || f.From == f.To {
			return fmt.Errorf("runtime: flows[%d] endpoints (%d,%d) invalid", i, f.From, f.To)
		}
		if f.Interval <= 0 {
			return fmt.Errorf("runtime: flows[%d] interval must be positive", i)
		}
		if f.Start < StartImmediately {
			return fmt.Errorf("runtime: flows[%d] start must be ≥ 0 (or StartImmediately)", i)
		}
		if f.Stop < 0 {
			return fmt.Errorf("runtime: flows[%d] stop must be ≥ 0", i)
		}
	}
	universe := cl.Components()
	if s.fabric != nil {
		universe = s.fabric.Components()
	}
	for i, f := range s.Faults {
		if f.At < 0 {
			return fmt.Errorf("runtime: faults[%d] at %v before time zero", i, f.At)
		}
		if int(f.Comp) < 0 || int(f.Comp) >= universe {
			return fmt.Errorf("runtime: faults[%d] component %d outside universe %d", i, int(f.Comp), universe)
		}
	}
	if err := s.Tunables.FlapDamping.Normalize(); err != nil {
		return fmt.Errorf("runtime: %v", err)
	}
	if err := s.Tunables.AdaptiveRTO.Normalize(); err != nil {
		return fmt.Errorf("runtime: %v", err)
	}
	if err := s.Tunables.Overload.Normalize(); err != nil {
		return fmt.Errorf("runtime: %v", err)
	}
	sh := chaos.Shape{Nodes: s.Nodes, Rails: s.Rails, Fabric: s.fabric}
	if err := chaos.Validate(s.Episodes, sh, s.entry); err != nil {
		return fmt.Errorf("runtime: %v", err)
	}
	for _, e := range s.Episodes {
		if e.Kind == chaos.Crash {
			s.Tunables.Lifecycle = true
		}
	}
	return nil
}

// entry names episode i the way a scenario document lists it: by the
// list its kind translates from and its place among that kind's
// episodes.
func (s *ClusterSpec) entry(i int) string {
	list := map[chaos.Kind]string{
		chaos.Component: "impairments", chaos.Crash: "crashes",
		chaos.Partition: "partitions", chaos.Skew: "skews",
	}[s.Episodes[i].Kind]
	k := 0
	for _, e := range s.Episodes[:i] {
		if e.Kind == s.Episodes[i].Kind {
			k++
		}
	}
	return fmt.Sprintf("%s[%d]", list, k)
}

// topology returns the spec's cluster shape (after Normalize).
func (s *ClusterSpec) topology() topology.Cluster {
	return topology.Cluster{Nodes: s.Nodes, Rails: s.Rails}
}
