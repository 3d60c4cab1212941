// Package scenario loads and executes declarative simulation
// scenarios: cluster shape, protocol, application traffic matrix and a
// timed component failure/repair script, all in one JSON document.
// It is the workload-generator front end of cmd/drsim — experiments
// beyond the canned ones can be described in a file and replayed
// deterministically.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/invariant"
	"drsnet/internal/linkmon"
	"drsnet/internal/netsim"
	"drsnet/internal/overload"
	"drsnet/internal/runtime"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// Duration is a time.Duration that unmarshals from JSON strings like
// "200ms" or "1m30s", or from a whole number of nanoseconds, and
// marshals as a string.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch t := v.(type) {
	case string:
		parsed, err := time.ParseDuration(t)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %v", t, err)
		}
		*d = Duration(parsed)
	case float64:
		// A number counts nanoseconds. A plain integer is read exactly;
		// any other form must hold a whole value in int64 range, as
		// converting a fractional or out-of-range float to an integer
		// would truncate or wrap.
		n, err := strconv.ParseInt(string(b), 10, 64)
		if err != nil {
			if t != math.Trunc(t) || t < -(1<<63) || t >= 1<<63 {
				return fmt.Errorf("scenario: duration %s is not a whole number of nanoseconds in int64 range", b)
			}
			n = int64(t)
		}
		*d = Duration(n)
	default:
		return fmt.Errorf("scenario: duration must be a string or number, have %T", v)
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// TrafficSpec is one periodic application flow.
type TrafficSpec struct {
	From     int      `json:"from"`
	To       int      `json:"to"`
	Interval Duration `json:"interval"`
	// Start delays the flow's first message (default one interval).
	Start Duration `json:"start,omitempty"`
	// Stop, when positive, ends the flow; zero runs to the horizon.
	// Strict-delivery invariant scenarios should stop flows ahead of
	// the horizon so the final packet can land before the verdict.
	Stop Duration `json:"stop,omitempty"`
}

// TopologySpec selects the network shape. Fabric kinds derive the
// node count from the shape; a document may leave "nodes" zero or set
// it to exactly the derived value.
type TopologySpec struct {
	// Kind is "dualRail" (the default shape), "fatTree" or "bcube".
	Kind string `json:"kind"`
	// K is the fat-tree arity (even, ≥ 2). Fat-tree only.
	K int `json:"k,omitempty"`
	// N is the BCube switch radix (≥ 2). BCube only.
	N int `json:"n,omitempty"`
	// Level is the BCube level (hosts get level+1 ports). BCube only.
	Level int `json:"level,omitempty"`
}

// EventSpec is one scripted component state change.
type EventSpec struct {
	At Duration `json:"at"`
	// Kind is "nic" or "backplane" (dual-rail), or "nic", "switch" or
	// "trunk" (fabric topologies).
	Kind string `json:"kind"`
	// Node is required for NICs, ignored for other kinds.
	Node int `json:"node,omitempty"`
	Rail int `json:"rail"`
	// Index names the switch or trunk for those kinds.
	Index int `json:"index,omitempty"`
	// Restore brings the component back instead of failing it.
	Restore bool `json:"restore,omitempty"`
}

// ImpairmentSpec is one gray-failure episode: between start and stop
// the named component is degraded (loss/corrupt/delay/jitter), killed
// (optionally in one direction only), or flapped periodically.
type ImpairmentSpec struct {
	Start Duration `json:"start"`
	// Stop ends the episode; zero means it lasts to the horizon.
	Stop Duration `json:"stop,omitempty"`
	// Kind is "nic" or "backplane" (dual-rail), or "nic", "switch" or
	// "trunk" (fabric topologies).
	Kind string `json:"kind"`
	// Node is required for NICs, ignored for other kinds.
	Node int `json:"node,omitempty"`
	Rail int `json:"rail"`
	// Index names the switch or trunk for those kinds.
	Index int `json:"index,omitempty"`
	// Loss and Corrupt are per-frame probabilities in [0,1].
	Loss    float64 `json:"loss,omitempty"`
	Corrupt float64 `json:"corrupt,omitempty"`
	// Delay adds fixed latency; Jitter adds uniform random latency.
	Delay  Duration `json:"delay,omitempty"`
	Jitter Duration `json:"jitter,omitempty"`
	// Kill takes the component down for the whole episode.
	Kill bool `json:"kill,omitempty"`
	// Direction is "both" (default), "tx" or "rx" — which half of the
	// component Kill and flapping affect.
	Direction string `json:"direction,omitempty"`
	// FlapPeriod > 0 cycles the component down/up with this period;
	// FlapDuty is the fraction of each period spent down (default 0.5).
	FlapPeriod Duration `json:"flapPeriod,omitempty"`
	FlapDuty   float64  `json:"flapDuty,omitempty"`
}

// CrashSpec is one scripted daemon fail-stop episode: the node's
// routing process dies at "at" — NICs stay electrically up, frames
// blackhole — and, when "restart" is set, the next incarnation boots
// there, cold or warm.
type CrashSpec struct {
	Node int      `json:"node"`
	At   Duration `json:"at"`
	// Restart, when nonzero, boots the node's next incarnation. It must
	// be strictly after At; zero means the node never returns.
	Restart Duration `json:"restart,omitempty"`
	// Warm restores a crash-time checkpoint (route table, membership
	// view, RTT estimates) at restart instead of relearning cold.
	Warm bool `json:"warm,omitempty"`
}

// PartitionSpec is one timed network-partition episode between a pair
// of nodes: from "start" to "stop" frames between them vanish on the
// selected rail — in both directions, or one only — while every link
// light stays on. Dual-rail topologies only.
type PartitionSpec struct {
	// A and B are the partitioned pair.
	A int `json:"a"`
	B int `json:"b"`
	// Rail selects one segment; -1 cuts every rail.
	Rail int `json:"rail"`
	// Start is when the cut lands; Stop, when present, is when it
	// heals (absent means the partition lasts to the horizon).
	Start Duration `json:"start"`
	Stop  Duration `json:"stop,omitempty"`
	// Direction is "both" (default, the classic symmetric split),
	// "tx" (A→B frames vanish, B goes deaf to A) or "rx" (the
	// mirror-image one-way cut).
	Direction string `json:"direction,omitempty"`
}

// InvariantSpec turns on the forwarding-trace invariant harness
// (internal/invariant) for the run: loop-freedom and bounded stretch
// are always asserted; requireDelivery additionally demands delivery
// or provable disconnection — appropriate for the static fast-failover
// family, too strict for convergence protocols.
type InvariantSpec struct {
	RequireDelivery bool `json:"requireDelivery,omitempty"`
	// MaxHops bounds any packet's forwarding hops (default 8).
	MaxHops int `json:"maxHops,omitempty"`
}

// Scenario is a complete declarative simulation.
type Scenario struct {
	// Name labels the report.
	Name string `json:"name,omitempty"`
	// Nodes is the cluster size. With a fabric topology it may be left
	// zero (the shape determines it).
	Nodes int `json:"nodes"`
	// Topology selects the network shape; absent means the paper's
	// dual-rail cluster.
	Topology *TopologySpec `json:"topology,omitempty"`
	// Protocol names a routing protocol registered with
	// internal/runtime ("drs", the default; "reactive"; "linkstate";
	// "static"; or any protocol a plugin registered).
	Protocol string `json:"protocol,omitempty"`
	// Duration is the simulated horizon.
	Duration Duration `json:"duration"`
	// Seed drives stochastic pieces (loss).
	Seed uint64 `json:"seed,omitempty"`
	// Switched selects a switched fabric instead of shared hubs.
	Switched bool `json:"switched,omitempty"`
	// LossRate injects random frame loss.
	LossRate float64 `json:"lossRate,omitempty"`
	// DRS tunables.
	ProbeInterval Duration `json:"probeInterval,omitempty"`
	MissThreshold int      `json:"missThreshold,omitempty"`
	StaggerProbes bool     `json:"staggerProbes,omitempty"`
	// PreferLowLatency enables latency-aware rail steering (DRS only).
	PreferLowLatency bool `json:"preferLowLatency,omitempty"`
	// StrictLinkEvidence restricts DRS link liveness to round-trip
	// probe confirmations, so asymmetric partitions are detected
	// instead of masked by the peer's own heard traffic (DRS only).
	StrictLinkEvidence bool `json:"strictLinkEvidence,omitempty"`
	// FlapDamping enables RFC 2439-style route-flap damping (DRS
	// only) with linkmon.DefaultDamping thresholds; the Damp* fields
	// override individual thresholds (zero keeps the default).
	FlapDamping    bool     `json:"flapDamping,omitempty"`
	DampSuppress   float64  `json:"dampSuppress,omitempty"`
	DampReuse      float64  `json:"dampReuse,omitempty"`
	DampHalfLife   Duration `json:"dampHalfLife,omitempty"`
	DampMaxPenalty float64  `json:"dampMaxPenalty,omitempty"`
	// AdaptiveRTO enables Jacobson/Karels adaptive probe deadlines (DRS
	// only) with linkmon.DefaultRTO settings; RTOMin and RTOMax
	// override the deadline clamp bounds (zero keeps the default).
	AdaptiveRTO bool     `json:"adaptiveRTO,omitempty"`
	RTOMin      Duration `json:"rtoMin,omitempty"`
	RTOMax      Duration `json:"rtoMax,omitempty"`
	// Overload, when present, enables the DRS control-plane
	// overload-protection layer with overload.Default settings; its
	// fields override individual knobs (zero keeps the default).
	Overload *OverloadSpec `json:"overload,omitempty"`
	// Reactive tunables.
	AdvertiseInterval Duration `json:"advertiseInterval,omitempty"`
	RouteTimeout      Duration `json:"routeTimeout,omitempty"`
	// FailoverTTL stamps the static fast-failover variants' data
	// frames (failover-rotor, failover-arbor; default 6).
	FailoverTTL int `json:"failoverTTL,omitempty"`
	// Invariant, when present, runs the scenario under the forwarding
	// invariant checker and appends its verdict to the report.
	Invariant *InvariantSpec `json:"invariant,omitempty"`
	// Traffic is the application flow matrix.
	Traffic []TrafficSpec `json:"traffic"`
	// Events is the failure/repair script.
	Events []EventSpec `json:"events,omitempty"`
	// Impairments is the gray-failure script.
	Impairments []ImpairmentSpec `json:"impairments,omitempty"`
	// Crashes is the daemon crash–restart script.
	Crashes []CrashSpec `json:"crashes,omitempty"`
	// Partitions is the network-partition script (dual-rail only).
	Partitions []PartitionSpec `json:"partitions,omitempty"`

	// fab is the resolved switched fabric, cached by Validate (nil for
	// dual-rail documents).
	fab *topology.Fabric
}

// fabricShape resolves the document's switched fabric, nil for
// dual-rail documents.
func (s *Scenario) fabricShape() (*topology.Fabric, error) {
	t := s.Topology
	if t == nil || t.Kind == "" || t.Kind == "dualRail" {
		return nil, nil
	}
	switch t.Kind {
	case "fatTree":
		return topology.FatTree(t.K)
	case "bcube":
		return topology.BCube(t.N, t.Level)
	default:
		return nil, fmt.Errorf("unknown topology kind %q (want dualRail, fatTree or bcube)", t.Kind)
	}
}

// Load parses a scenario document.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate applies defaults and checks consistency.
func (s *Scenario) Validate() error {
	fab, err := s.fabricShape()
	if err != nil {
		return fmt.Errorf("scenario: %v", err)
	}
	s.fab = fab
	if fab != nil {
		if s.Switched {
			return fmt.Errorf("scenario: switched is a dual-rail ablation; %q fabrics are switched by construction", s.Topology.Kind)
		}
		switch s.Nodes {
		case 0:
			s.Nodes = fab.Hosts()
		case fab.Hosts():
		default:
			return fmt.Errorf("scenario: nodes %d conflicts with %s topology (%d hosts); omit nodes",
				s.Nodes, s.Topology.Kind, fab.Hosts())
		}
	}
	if s.Nodes < 2 {
		return fmt.Errorf("scenario: need ≥ 2 nodes, have %d", s.Nodes)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario: duration must be positive")
	}
	if s.Protocol == "" {
		s.Protocol = runtime.ProtoDRS
	}
	if _, err := runtime.Lookup(s.Protocol); err != nil {
		return fmt.Errorf("scenario: %v", err)
	}
	if s.ProbeInterval == 0 {
		s.ProbeInterval = Duration(time.Second)
	}
	if s.MissThreshold == 0 {
		s.MissThreshold = 2
	}
	if s.AdvertiseInterval == 0 {
		s.AdvertiseInterval = Duration(time.Second)
	}
	if s.RouteTimeout == 0 {
		s.RouteTimeout = 6 * s.AdvertiseInterval
	}
	if s.LossRate < 0 || s.LossRate >= 1 {
		return fmt.Errorf("scenario: loss rate %v outside [0,1)", s.LossRate)
	}
	if s.FailoverTTL < 0 {
		return fmt.Errorf("scenario: failover TTL %d must be ≥ 0", s.FailoverTTL)
	}
	if s.Invariant != nil && s.Invariant.MaxHops < 0 {
		return fmt.Errorf("scenario: invariant maxHops %d must be ≥ 0", s.Invariant.MaxHops)
	}
	if len(s.Traffic) == 0 {
		return fmt.Errorf("scenario: no traffic flows")
	}
	for i, t := range s.Traffic {
		if t.From < 0 || t.From >= s.Nodes || t.To < 0 || t.To >= s.Nodes || t.From == t.To {
			return fmt.Errorf("scenario: traffic[%d] endpoints (%d,%d) invalid", i, t.From, t.To)
		}
		if t.Interval <= 0 {
			return fmt.Errorf("scenario: traffic[%d] interval must be positive", i)
		}
		if t.Start < 0 {
			return fmt.Errorf("scenario: traffic[%d] start must be non-negative", i)
		}
		if t.Stop < 0 {
			return fmt.Errorf("scenario: traffic[%d] stop must be non-negative", i)
		}
		if t.Stop != 0 && t.Stop <= t.Start {
			return fmt.Errorf("scenario: traffic[%d] stop %v not after start %v",
				i, time.Duration(t.Stop), time.Duration(t.Start))
		}
	}
	rails := 2
	if fab != nil {
		rails = fab.Ports()
	}
	seen := make(map[EventSpec]int, len(s.Events))
	for i, e := range s.Events {
		if e.At < 0 || e.At > s.Duration {
			return fmt.Errorf("scenario: events[%d] at %v outside [0,%v]",
				i, time.Duration(e.At), time.Duration(s.Duration))
		}
		switch e.Kind {
		case "nic":
			if e.Node < 0 || e.Node >= s.Nodes {
				return fmt.Errorf("scenario: events[%d] node %d invalid", i, e.Node)
			}
			if e.Rail < 0 || e.Rail >= rails {
				return fmt.Errorf("scenario: events[%d] rail %d invalid", i, e.Rail)
			}
			e.Index = 0
		case "backplane":
			if fab != nil {
				return fmt.Errorf("scenario: events[%d] kind \"backplane\" is dual-rail only; use \"switch\" with an index", i)
			}
			// Node is ignored for back planes; normalize the dedup key so
			// {"backplane", node:0} and {"backplane", node:3} collide.
			e.Node, e.Index = 0, 0
			if e.Rail < 0 || e.Rail >= 2 {
				return fmt.Errorf("scenario: events[%d] rail %d invalid", i, e.Rail)
			}
		case "switch":
			if fab == nil {
				return fmt.Errorf("scenario: events[%d] kind \"switch\" needs a fabric topology", i)
			}
			if e.Index < 0 || e.Index >= fab.Switches() {
				return fmt.Errorf("scenario: events[%d] switch index %d outside [0,%d)", i, e.Index, fab.Switches())
			}
			e.Node, e.Rail = 0, 0
		case "trunk":
			if fab == nil {
				return fmt.Errorf("scenario: events[%d] kind \"trunk\" needs a fabric topology", i)
			}
			if e.Index < 0 || e.Index >= fab.Trunks() {
				return fmt.Errorf("scenario: events[%d] trunk index %d outside [0,%d)", i, e.Index, fab.Trunks())
			}
			e.Node, e.Rail = 0, 0
		default:
			if fab != nil {
				return fmt.Errorf("scenario: events[%d] kind %q (want nic, switch or trunk)", i, e.Kind)
			}
			return fmt.Errorf("scenario: events[%d] kind %q (want nic or backplane)", i, e.Kind)
		}
		if j, dup := seen[e]; dup {
			return fmt.Errorf("scenario: events[%d] duplicates events[%d] (same time, component and action)", i, j)
		}
		seen[e] = i
	}
	for i, im := range s.Impairments {
		if err := s.validateImpairment(i, im); err != nil {
			return err
		}
	}
	if err := s.validateCrashes(); err != nil {
		return err
	}
	if err := s.validatePartitions(); err != nil {
		return err
	}
	if _, err := s.damping(); err != nil {
		return err
	}
	if _, err := s.rto(); err != nil {
		return err
	}
	if _, err := s.overload(); err != nil {
		return err
	}
	return nil
}

// validateCrashes checks the crash–restart script: each episode's
// fields against the document, then the per-node overlap rules the
// chaos layer enforces (a node cannot crash again before a previous
// episode restarted it).
func (s *Scenario) validateCrashes() error {
	for i, c := range s.Crashes {
		if c.Node < 0 || c.Node >= s.Nodes {
			return fmt.Errorf("scenario: crashes[%d] node %d invalid (cluster has %d nodes)", i, c.Node, s.Nodes)
		}
		if c.At < 0 || c.At > s.Duration {
			return fmt.Errorf("scenario: crashes[%d] at %v outside [0,%v]",
				i, time.Duration(c.At), time.Duration(s.Duration))
		}
		if c.Restart != 0 && c.Restart <= c.At {
			return fmt.Errorf("scenario: crashes[%d] restart %v not after crash at %v",
				i, time.Duration(c.Restart), time.Duration(c.At))
		}
		if c.Warm && c.Restart == 0 {
			return fmt.Errorf("scenario: crashes[%d] warm restart requested but the node never restarts", i)
		}
	}
	if err := chaos.ValidateCrashes(s.crashSpecs(), s.Nodes); err != nil {
		return fmt.Errorf("scenario: %v", err)
	}
	return nil
}

// validatePartitions checks the partition script: dual-rail only,
// episodes inside the horizon, then the field rules the chaos layer
// enforces.
func (s *Scenario) validatePartitions() error {
	if len(s.Partitions) == 0 {
		return nil
	}
	if s.fab != nil {
		return fmt.Errorf("scenario: partitions are dual-rail only (topology %q)", s.Topology.Kind)
	}
	for i, p := range s.Partitions {
		if p.Start > s.Duration || p.Stop > s.Duration {
			return fmt.Errorf("scenario: partitions[%d] outside [0,%v]", i, time.Duration(s.Duration))
		}
		if _, err := parseDirection(p.Direction); err != nil {
			return fmt.Errorf("scenario: partitions[%d] %v", i, err)
		}
	}
	specs, err := s.partitionSpecs()
	if err != nil {
		return err
	}
	if err := chaos.ValidatePartitions(specs, s.Nodes, 2); err != nil {
		return fmt.Errorf("scenario: %v", err)
	}
	return nil
}

// partitionSpecs maps the document's partition script onto the chaos
// layer.
func (s *Scenario) partitionSpecs() ([]chaos.PartitionSpec, error) {
	if len(s.Partitions) == 0 {
		return nil, nil
	}
	specs := make([]chaos.PartitionSpec, 0, len(s.Partitions))
	for i, p := range s.Partitions {
		dir, err := parseDirection(p.Direction)
		if err != nil {
			return nil, fmt.Errorf("scenario: partitions[%d] %v", i, err)
		}
		rail := p.Rail
		if rail < 0 {
			rail = netsim.AllRails
		}
		specs = append(specs, chaos.PartitionSpec{
			A: p.A, B: p.B, Rail: rail,
			Start: time.Duration(p.Start), Stop: time.Duration(p.Stop),
			Direction: dir,
		})
	}
	return specs, nil
}

// crashSpecs maps the document's crash script onto the chaos layer.
func (s *Scenario) crashSpecs() []chaos.CrashSpec {
	if len(s.Crashes) == 0 {
		return nil
	}
	specs := make([]chaos.CrashSpec, 0, len(s.Crashes))
	for _, c := range s.Crashes {
		specs = append(specs, chaos.CrashSpec{
			Node:      c.Node,
			At:        time.Duration(c.At),
			RestartAt: time.Duration(c.Restart),
			Warm:      c.Warm,
		})
	}
	return specs
}

// OverloadSpec configures the DRS control-plane overload-protection
// layer: token-bucket budgets on probe retransmits and discovery
// broadcasts, hello storm suppression, and the degraded-mode governor
// that pins last-known-good routes when budgets saturate. Presence of
// the block enables the layer; zero fields keep overload.Default
// settings. degradedSheds < 0 disables the governor (budgets still
// apply).
type OverloadSpec struct {
	ProbeRate        float64  `json:"probeRate,omitempty"`
	ProbeBurst       int      `json:"probeBurst,omitempty"`
	QueryRate        float64  `json:"queryRate,omitempty"`
	QueryBurst       int      `json:"queryBurst,omitempty"`
	HelloMinInterval Duration `json:"helloMinInterval,omitempty"`
	QueueCapacity    int      `json:"queueCapacity,omitempty"`
	DegradedSheds    int      `json:"degradedSheds,omitempty"`
	DegradedWindow   Duration `json:"degradedWindow,omitempty"`
	DegradedQuiet    Duration `json:"degradedQuiet,omitempty"`
	JitterFrac       float64  `json:"jitterFrac,omitempty"`
}

// overload builds the DRS overload-protection config from the
// document's block: disabled when absent, defaults from
// overload.Default, individual knobs overridable.
func (s *Scenario) overload() (overload.Config, error) {
	if s.Overload == nil {
		return overload.Config{}, nil
	}
	o := s.Overload
	c := overload.Config{
		Enabled:          true,
		ProbeRate:        o.ProbeRate,
		ProbeBurst:       o.ProbeBurst,
		QueryRate:        o.QueryRate,
		QueryBurst:       o.QueryBurst,
		HelloMinInterval: time.Duration(o.HelloMinInterval),
		QueueCapacity:    o.QueueCapacity,
		DegradedSheds:    o.DegradedSheds,
		DegradedWindow:   time.Duration(o.DegradedWindow),
		DegradedQuiet:    time.Duration(o.DegradedQuiet),
		JitterFrac:       o.JitterFrac,
	}
	if err := c.Normalize(); err != nil {
		return overload.Config{}, fmt.Errorf("scenario: %v", err)
	}
	return c, nil
}

// rto builds the DRS adaptive-RTO config from the document's knobs:
// disabled unless adaptiveRTO is true, defaults from
// linkmon.DefaultRTO, clamp bounds overridable.
func (s *Scenario) rto() (linkmon.RTO, error) {
	if !s.AdaptiveRTO {
		if s.RTOMin != 0 || s.RTOMax != 0 {
			return linkmon.RTO{}, fmt.Errorf("scenario: rto* bounds set but adaptiveRTO is false")
		}
		return linkmon.RTO{}, nil
	}
	r := linkmon.DefaultRTO()
	if s.RTOMin != 0 {
		r.Min = time.Duration(s.RTOMin)
	}
	if s.RTOMax != 0 {
		r.Max = time.Duration(s.RTOMax)
	}
	if err := r.Normalize(); err != nil {
		return linkmon.RTO{}, fmt.Errorf("scenario: %v", err)
	}
	return r, nil
}

// validateImpairment checks one gray-failure episode, with error
// messages that name the offending field and entry.
func (s *Scenario) validateImpairment(i int, im ImpairmentSpec) error {
	switch im.Kind {
	case "nic":
		if im.Node < 0 || im.Node >= s.Nodes {
			return fmt.Errorf("scenario: impairments[%d] node %d invalid (cluster has %d nodes)", i, im.Node, s.Nodes)
		}
		rails := 2
		if s.fab != nil {
			rails = s.fab.Ports()
		}
		if im.Rail < 0 || im.Rail >= rails {
			if s.fab == nil {
				return fmt.Errorf("scenario: impairments[%d] rail %d invalid (dual-rail cluster)", i, im.Rail)
			}
			return fmt.Errorf("scenario: impairments[%d] rail %d outside [0,%d)", i, im.Rail, rails)
		}
	case "backplane":
		// Node is ignored for back planes.
		if s.fab != nil {
			return fmt.Errorf("scenario: impairments[%d] kind \"backplane\" is dual-rail only; use \"switch\" with an index", i)
		}
		if im.Rail < 0 || im.Rail >= 2 {
			return fmt.Errorf("scenario: impairments[%d] rail %d invalid (dual-rail cluster)", i, im.Rail)
		}
	case "switch":
		if s.fab == nil {
			return fmt.Errorf("scenario: impairments[%d] kind \"switch\" needs a fabric topology", i)
		}
		if im.Index < 0 || im.Index >= s.fab.Switches() {
			return fmt.Errorf("scenario: impairments[%d] switch index %d outside [0,%d)", i, im.Index, s.fab.Switches())
		}
	case "trunk":
		if s.fab == nil {
			return fmt.Errorf("scenario: impairments[%d] kind \"trunk\" needs a fabric topology", i)
		}
		if im.Index < 0 || im.Index >= s.fab.Trunks() {
			return fmt.Errorf("scenario: impairments[%d] trunk index %d outside [0,%d)", i, im.Index, s.fab.Trunks())
		}
	default:
		if s.fab != nil {
			return fmt.Errorf("scenario: impairments[%d] kind %q (want nic, switch or trunk)", i, im.Kind)
		}
		return fmt.Errorf("scenario: impairments[%d] kind %q (want nic or backplane)", i, im.Kind)
	}
	if im.Start < 0 || im.Start > s.Duration {
		return fmt.Errorf("scenario: impairments[%d] start %v outside [0,%v]",
			i, time.Duration(im.Start), time.Duration(s.Duration))
	}
	if im.Stop < 0 {
		return fmt.Errorf("scenario: impairments[%d] negative stop %v", i, time.Duration(im.Stop))
	}
	if im.Stop != 0 && im.Stop <= im.Start {
		return fmt.Errorf("scenario: impairments[%d] stop %v not after start %v",
			i, time.Duration(im.Stop), time.Duration(im.Start))
	}
	if im.Loss < 0 || im.Loss > 1 {
		return fmt.Errorf("scenario: impairments[%d] loss probability %v outside [0,1]", i, im.Loss)
	}
	if im.Corrupt < 0 || im.Corrupt > 1 {
		return fmt.Errorf("scenario: impairments[%d] corrupt probability %v outside [0,1]", i, im.Corrupt)
	}
	if im.Delay < 0 {
		return fmt.Errorf("scenario: impairments[%d] negative delay %v", i, time.Duration(im.Delay))
	}
	if im.Jitter < 0 {
		return fmt.Errorf("scenario: impairments[%d] negative jitter %v", i, time.Duration(im.Jitter))
	}
	if _, err := parseDirection(im.Direction); err != nil {
		return fmt.Errorf("scenario: impairments[%d] %v", i, err)
	}
	if im.FlapPeriod < 0 || (im.FlapDuty != 0 && im.FlapPeriod <= 0) {
		return fmt.Errorf("scenario: impairments[%d] flap period must be > 0, got %v",
			i, time.Duration(im.FlapPeriod))
	}
	if im.FlapDuty < 0 || im.FlapDuty >= 1 {
		return fmt.Errorf("scenario: impairments[%d] flap duty %v outside (0,1)", i, im.FlapDuty)
	}
	if im.Kill && im.FlapPeriod > 0 {
		return fmt.Errorf("scenario: impairments[%d] kill and flapPeriod are mutually exclusive", i)
	}
	if !im.Kill && im.FlapPeriod == 0 &&
		im.Loss == 0 && im.Corrupt == 0 && im.Delay == 0 && im.Jitter == 0 {
		return fmt.Errorf("scenario: impairments[%d] does nothing (no loss, corrupt, delay, jitter, kill or flap)", i)
	}
	return nil
}

// parseDirection maps the JSON direction strings onto the simulator's
// Direction values.
func parseDirection(s string) (netsim.Direction, error) {
	switch s {
	case "", "both":
		return netsim.DirBoth, nil
	case "tx":
		return netsim.DirTx, nil
	case "rx":
		return netsim.DirRx, nil
	}
	return 0, fmt.Errorf("direction %q (want both, tx or rx)", s)
}

// damping builds the DRS flap-damping config from the document's
// knobs: disabled unless flapDamping is true, defaults from
// linkmon.DefaultDamping, individual thresholds overridable.
func (s *Scenario) damping() (linkmon.Damping, error) {
	if !s.FlapDamping {
		if s.DampSuppress != 0 || s.DampReuse != 0 || s.DampHalfLife != 0 || s.DampMaxPenalty != 0 {
			return linkmon.Damping{}, fmt.Errorf("scenario: damp* thresholds set but flapDamping is false")
		}
		return linkmon.Damping{}, nil
	}
	d := linkmon.DefaultDamping()
	if s.DampSuppress != 0 {
		d.Suppress = s.DampSuppress
		d.Reuse = 0 // renormalize unless overridden below
		d.Max = 0
	}
	if s.DampReuse != 0 {
		d.Reuse = s.DampReuse
	}
	if s.DampHalfLife != 0 {
		d.HalfLife = time.Duration(s.DampHalfLife)
	}
	if s.DampMaxPenalty != 0 {
		d.Max = s.DampMaxPenalty
	}
	if err := d.Normalize(); err != nil {
		return linkmon.Damping{}, fmt.Errorf("scenario: %v", err)
	}
	return d, nil
}

// FlowReport is the outcome of one traffic flow.
type FlowReport struct {
	From, To        int
	Sent, Delivered int
}

// Report is the outcome of a scenario run.
type Report struct {
	Name  string
	Flows []FlowReport
	// Repairs counts route repairs across all DRS daemons (0 for
	// baselines).
	Repairs int
	// Utilization per rail at the end of the run.
	Utilization [2]float64
	// Invariant is the forwarding-invariant verdict (nil unless the
	// scenario enabled the checker).
	Invariant *invariant.Report
	// Trace carries the protocol event log.
	Trace *trace.Log
}

// Spec translates the document into a runtime.ClusterSpec — the
// declarative layer the unified runtime executes.
func (s *Scenario) Spec() (runtime.ClusterSpec, error) {
	if err := s.Validate(); err != nil {
		return runtime.ClusterSpec{}, err
	}
	damp, err := s.damping()
	if err != nil {
		return runtime.ClusterSpec{}, err
	}
	rto, err := s.rto()
	if err != nil {
		return runtime.ClusterSpec{}, err
	}
	ovl, err := s.overload()
	if err != nil {
		return runtime.ClusterSpec{}, err
	}
	spec := runtime.ClusterSpec{
		Nodes:    s.Nodes,
		Protocol: s.Protocol,
		Switched: s.Switched,
		LossRate: s.LossRate,
		Seed:     s.Seed,
		Duration: time.Duration(s.Duration),
		Tunables: runtime.Tunables{
			ProbeInterval:      time.Duration(s.ProbeInterval),
			MissThreshold:      s.MissThreshold,
			StaggerProbes:      s.StaggerProbes,
			PreferLowLatency:   s.PreferLowLatency,
			StrictLinkEvidence: s.StrictLinkEvidence,
			FlapDamping:        damp,
			AdaptiveRTO:        rto,
			Overload:           ovl,
			AdvertiseInterval:  time.Duration(s.AdvertiseInterval),
			RouteTimeout:       time.Duration(s.RouteTimeout),
			FailoverTTL:        s.FailoverTTL,
			Lifecycle:          len(s.Crashes) > 0,
		},
		Crashes: s.crashSpecs(),
	}
	spec.Partitions, err = s.partitionSpecs()
	if err != nil {
		return runtime.ClusterSpec{}, err
	}
	if t := s.Topology; t != nil {
		// Nodes was derived (or checked) against the shape in Validate;
		// the runtime re-derives and re-checks it from the same spec.
		spec.Topology = runtime.TopologySpec{Kind: t.Kind, K: t.K, N: t.N, Level: t.Level}
	}
	if s.Invariant != nil {
		spec.Invariant = &invariant.Config{
			RequireDelivery: s.Invariant.RequireDelivery,
			MaxHops:         s.Invariant.MaxHops,
		}
	}
	for _, t := range s.Traffic {
		spec.Flows = append(spec.Flows, runtime.Flow{
			From:     t.From,
			To:       t.To,
			Interval: time.Duration(t.Interval),
			Start:    time.Duration(t.Start),
			Stop:     time.Duration(t.Stop),
		})
	}
	cl := topology.Dual(s.Nodes)
	component := func(kind string, node, rail, index int) topology.Component {
		if s.fab != nil {
			switch kind {
			case "nic":
				return s.fab.NIC(node, rail)
			case "switch":
				return s.fab.Switch(index)
			default: // "trunk" — Validate rejected everything else
				return s.fab.TrunkComp(index)
			}
		}
		if kind == "nic" {
			return cl.NIC(node, rail)
		}
		return cl.Backplane(rail)
	}
	for _, e := range s.Events {
		spec.Faults = append(spec.Faults, runtime.Fault{
			At:      time.Duration(e.At),
			Comp:    component(e.Kind, e.Node, e.Rail, e.Index),
			Restore: e.Restore,
		})
	}
	for _, im := range s.Impairments {
		comp := component(im.Kind, im.Node, im.Rail, im.Index)
		dir, err := parseDirection(im.Direction)
		if err != nil {
			return runtime.ClusterSpec{}, fmt.Errorf("scenario: %v", err)
		}
		spec.Impairments = append(spec.Impairments, chaos.Spec{
			Comp:  comp,
			Start: time.Duration(im.Start),
			Stop:  time.Duration(im.Stop),
			Impair: netsim.Impairment{
				Loss:    im.Loss,
				Corrupt: im.Corrupt,
				Delay:   time.Duration(im.Delay),
				Jitter:  time.Duration(im.Jitter),
			},
			Kill:       im.Kill,
			Direction:  dir,
			FlapPeriod: time.Duration(im.FlapPeriod),
			FlapDuty:   im.FlapDuty,
		})
	}
	return spec, nil
}

// Run executes the scenario deterministically on the unified runtime.
func (s *Scenario) Run() (*Report, error) {
	spec, err := s.Spec()
	if err != nil {
		return nil, err
	}
	run, err := runtime.Run(spec)
	if err != nil {
		return nil, err
	}

	rep := &Report{Name: s.Name, Trace: run.Trace, Repairs: len(run.Repairs), Invariant: run.Invariant}
	for _, f := range run.Flows {
		rep.Flows = append(rep.Flows, FlowReport{
			From: f.Flow.From, To: f.Flow.To,
			Sent:      f.Sent,
			Delivered: f.Delivered,
		})
	}
	for rail := 0; rail < 2 && rail < len(run.Utilization); rail++ {
		rep.Utilization[rail] = run.Utilization[rail]
	}
	return rep, nil
}

// Write renders the report.
func (r *Report) Write(w io.Writer) error {
	name := r.Name
	if name == "" {
		name = "scenario"
	}
	if _, err := fmt.Fprintf(w, "# %s\n", name); err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %6s %10s %10s %10s\n", "from", "to", "sent", "delivered", "loss")
	for _, f := range r.Flows {
		loss := 0.0
		if f.Sent > 0 {
			loss = 1 - float64(f.Delivered)/float64(f.Sent)
		}
		fmt.Fprintf(w, "%6d %6d %10d %10d %9.2f%%\n", f.From, f.To, f.Sent, f.Delivered, 100*loss)
	}
	fmt.Fprintf(w, "route repairs: %d   utilization rail0 %.4f%%  rail1 %.4f%%\n",
		r.Repairs, 100*r.Utilization[0], 100*r.Utilization[1])
	// The invariant line appears only when the scenario enabled the
	// checker, keeping reports (and their goldens) byte-identical
	// otherwise.
	if inv := r.Invariant; inv != nil {
		verdict := "ok"
		if !inv.Clean() {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "invariant: %s   packets %d delivered %d loops %d revisits %d stretch %d maxhops %d\n",
			verdict, inv.Packets, inv.Delivered, inv.Loops, inv.Revisits, inv.StretchViolations, inv.MaxHopsSeen)
	}
	return nil
}
