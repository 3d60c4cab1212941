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
	Topology *runtime.TopologySpec `json:"topology,omitempty"`
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

	// spec is the normalized cluster the document describes, cached
	// by Validate.
	spec *runtime.ClusterSpec
}

// Load parses and validates a scenario document.
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

// Validate checks what only the document form can get wrong,
// translates the document into a runtime.ClusterSpec and normalizes
// it: every cluster rule is runtime.ClusterSpec.Normalize's. The lists
// translate entry for entry, impairments, crashes and partitions in
// that order, so a runtime error names the document's impairments[i],
// crashes[i] or partitions[i], and flows[i] its traffic[i]. Load
// validates; a document edited afterwards must be
// validated again before Spec or Run see the edit.
func (s *Scenario) Validate() error {
	s.spec = nil
	spec, err := s.translate()
	if err != nil {
		return err
	}
	if err := spec.Normalize(); err != nil {
		return err
	}
	s.spec = &spec
	return nil
}

// Spec returns the normalized runtime.ClusterSpec the document
// describes — the declarative layer the unified runtime executes.
func (s *Scenario) Spec() (runtime.ClusterSpec, error) {
	if s.spec == nil {
		if err := s.Validate(); err != nil {
			return runtime.ClusterSpec{}, err
		}
	}
	return *s.spec, nil
}

// translate maps the document onto a runtime.ClusterSpec, checking
// the rules that only the document form can break: its own horizon,
// the kind/node/rail/index component addresses, direction strings,
// duplicate events, and threshold fields set without their switch.
func (s *Scenario) translate() (runtime.ClusterSpec, error) {
	var spec runtime.ClusterSpec
	if s.Duration <= 0 {
		return spec, fmt.Errorf("scenario: duration must be positive")
	}
	if len(s.Traffic) == 0 {
		return spec, fmt.Errorf("scenario: no traffic flows")
	}
	if s.Topology != nil {
		spec.Topology = *s.Topology
	}
	fab, err := spec.Topology.Fabric()
	if err != nil {
		return spec, fmt.Errorf("scenario: %v", err)
	}
	damp, err := s.damping()
	if err != nil {
		return spec, err
	}
	rto, err := s.rto()
	if err != nil {
		return spec, err
	}
	spec.Nodes = s.Nodes
	spec.Protocol = s.Protocol
	spec.Switched = s.Switched
	spec.LossRate = s.LossRate
	spec.Seed = s.Seed
	spec.Duration = time.Duration(s.Duration)
	spec.Tunables = runtime.Tunables{
		ProbeInterval:      time.Duration(s.ProbeInterval),
		MissThreshold:      s.MissThreshold,
		StaggerProbes:      s.StaggerProbes,
		PreferLowLatency:   s.PreferLowLatency,
		StrictLinkEvidence: s.StrictLinkEvidence,
		FlapDamping:        damp,
		AdaptiveRTO:        rto,
		Overload:           s.overload(),
		AdvertiseInterval:  time.Duration(s.AdvertiseInterval),
		RouteTimeout:       time.Duration(s.RouteTimeout),
		FailoverTTL:        s.FailoverTTL,
	}
	if s.Invariant != nil {
		spec.Invariant = &invariant.Config{
			RequireDelivery: s.Invariant.RequireDelivery,
			MaxHops:         s.Invariant.MaxHops,
		}
	}
	for i, t := range s.Traffic {
		// runtime reads a negative Start as StartImmediately.
		if t.Start < 0 {
			return spec, fmt.Errorf("scenario: traffic[%d] start must be non-negative", i)
		}
		if t.Stop != 0 && t.Stop <= t.Start {
			return spec, fmt.Errorf("scenario: traffic[%d] stop %v not after start %v",
				i, time.Duration(t.Stop), time.Duration(t.Start))
		}
		spec.Flows = append(spec.Flows, runtime.Flow{
			From:     t.From,
			To:       t.To,
			Interval: time.Duration(t.Interval),
			Start:    time.Duration(t.Start),
			Stop:     time.Duration(t.Stop),
		})
	}
	seen := make(map[runtime.Fault]int, len(s.Events))
	for i, e := range s.Events {
		if err := s.instant("events", i, "at", e.At); err != nil {
			return spec, err
		}
		comp, err := s.component(fab, e.Kind, e.Node, e.Rail, e.Index)
		if err != nil {
			return spec, fmt.Errorf("scenario: events[%d] %v", i, err)
		}
		f := runtime.Fault{At: time.Duration(e.At), Comp: comp, Restore: e.Restore}
		if j, dup := seen[f]; dup {
			return spec, fmt.Errorf("scenario: events[%d] duplicates events[%d] (same time, component and action)", i, j)
		}
		seen[f] = i
		spec.Faults = append(spec.Faults, f)
	}
	for i, im := range s.Impairments {
		if err := s.instant("impairments", i, "start", im.Start); err != nil {
			return spec, err
		}
		comp, err := s.component(fab, im.Kind, im.Node, im.Rail, im.Index)
		if err != nil {
			return spec, fmt.Errorf("scenario: impairments[%d] %v", i, err)
		}
		dir, err := chaos.ParseDirection(im.Direction)
		if err != nil {
			return spec, fmt.Errorf("scenario: impairments[%d] %v", i, err)
		}
		spec.Episodes = append(spec.Episodes, chaos.Episode{
			Kind:  chaos.Component,
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
			Dir:        dir,
			FlapPeriod: time.Duration(im.FlapPeriod),
			FlapDuty:   im.FlapDuty,
		})
	}
	for i, c := range s.Crashes {
		if err := s.instant("crashes", i, "at", c.At); err != nil {
			return spec, err
		}
		spec.Episodes = append(spec.Episodes, chaos.Episode{
			Kind:  chaos.Crash,
			A:     c.Node,
			Start: time.Duration(c.At),
			Stop:  time.Duration(c.Restart),
			Warm:  c.Warm,
		})
	}
	for i, p := range s.Partitions {
		if err := s.instant("partitions", i, "start", p.Start); err != nil {
			return spec, err
		}
		if err := s.instant("partitions", i, "stop", p.Stop); err != nil {
			return spec, err
		}
		dir, err := chaos.ParseDirection(p.Direction)
		if err != nil {
			return spec, fmt.Errorf("scenario: partitions[%d] %v", i, err)
		}
		spec.Episodes = append(spec.Episodes, chaos.Episode{
			Kind: chaos.Partition,
			A:    p.A, B: p.B, Rail: p.Rail,
			Start: time.Duration(p.Start), Stop: time.Duration(p.Stop),
			Dir: dir,
		})
	}
	return spec, nil
}

// instant checks that one scripted instant lies inside the document's
// horizon.
func (s *Scenario) instant(list string, i int, field string, at Duration) error {
	if at < 0 || at > s.Duration {
		return fmt.Errorf("scenario: %s[%d] %s %v outside [0,%v]",
			list, i, field, time.Duration(at), time.Duration(s.Duration))
	}
	return nil
}

// component addresses the NIC, back plane, switch or trunk an event or
// impairment names: fab is the document's switched fabric, nil for the
// dual-rail cluster of s.Nodes hosts.
func (s *Scenario) component(fab *topology.Fabric, kind string, node, rail, index int) (topology.Component, error) {
	nodes, rails := s.Nodes, 2
	if fab != nil {
		nodes, rails = fab.Hosts(), fab.Ports()
	}
	switch kind {
	case "nic":
		if node < 0 || node >= nodes {
			return 0, fmt.Errorf("node %d invalid (cluster has %d nodes)", node, nodes)
		}
		if rail < 0 || rail >= rails {
			return 0, fmt.Errorf("rail %d invalid (cluster has %d rails)", rail, rails)
		}
		if fab != nil {
			return fab.NIC(node, rail), nil
		}
		return topology.Dual(nodes).NIC(node, rail), nil
	case "backplane":
		// Node is ignored for back planes.
		if fab != nil {
			return 0, fmt.Errorf(`kind "backplane" is dual-rail only; use "switch" with an index`)
		}
		if rail < 0 || rail >= rails {
			return 0, fmt.Errorf("rail %d invalid (cluster has %d rails)", rail, rails)
		}
		return topology.Dual(nodes).Backplane(rail), nil
	case "switch", "trunk":
		if fab == nil {
			return 0, fmt.Errorf("kind %q needs a fabric topology", kind)
		}
		n := fab.Switches()
		if kind == "trunk" {
			n = fab.Trunks()
		}
		if index < 0 || index >= n {
			return 0, fmt.Errorf("%s index %d outside [0,%d)", kind, index, n)
		}
		if kind == "trunk" {
			return fab.TrunkComp(index), nil
		}
		return fab.Switch(index), nil
	}
	if fab != nil {
		return 0, fmt.Errorf("kind %q (want nic, switch or trunk)", kind)
	}
	return 0, fmt.Errorf("kind %q (want nic or backplane)", kind)
}

// OverloadSpec configures the DRS control-plane overload-protection
// layer: token-bucket budgets on probe retransmits and discovery
// broadcasts, a prioritized queue for deferred control work, and the
// degraded-mode governor that pins last-known-good routes when budgets
// saturate. Presence of the block enables the layer; zero fields keep
// overload.Default settings. degradedSheds < 0 disables the governor
// (budgets still apply).
type OverloadSpec struct {
	ProbeRate      float64  `json:"probeRate,omitempty"`
	ProbeBurst     int      `json:"probeBurst,omitempty"`
	QueryRate      float64  `json:"queryRate,omitempty"`
	QueryBurst     int      `json:"queryBurst,omitempty"`
	QueueCapacity  int      `json:"queueCapacity,omitempty"`
	DegradedSheds  int      `json:"degradedSheds,omitempty"`
	DegradedWindow Duration `json:"degradedWindow,omitempty"`
	DegradedQuiet  Duration `json:"degradedQuiet,omitempty"`
	JitterFrac     float64  `json:"jitterFrac,omitempty"`
}

// overload builds the DRS overload-protection config from the
// document's block: disabled when absent; runtime fills the zero knobs
// from overload.Default.
func (s *Scenario) overload() overload.Config {
	o := s.Overload
	if o == nil {
		return overload.Config{}
	}
	return overload.Config{
		Enabled:        true,
		ProbeRate:      o.ProbeRate,
		ProbeBurst:     o.ProbeBurst,
		QueryRate:      o.QueryRate,
		QueryBurst:     o.QueryBurst,
		QueueCapacity:  o.QueueCapacity,
		DegradedSheds:  o.DegradedSheds,
		DegradedWindow: time.Duration(o.DegradedWindow),
		DegradedQuiet:  time.Duration(o.DegradedQuiet),
		JitterFrac:     o.JitterFrac,
	}
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
	return r, nil
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
		d.Reuse = 0 // runtime derives these unless overridden below
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
