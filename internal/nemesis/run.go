package nemesis

import (
	"fmt"
	"sort"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/core"
	"drsnet/internal/netsim"
	"drsnet/internal/overload"
	"drsnet/internal/routing"
	"drsnet/internal/runtime"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
	"drsnet/internal/transport"
)

// memLatency is the hermetic fabric's one-way delivery latency.
const memLatency = 200 * time.Microsecond

// Violation is one invariant the cluster failed to restore after the
// schedule healed.
type Violation struct {
	// Invariant names the broken property: "convergence",
	// "incarnation", "membership" or "delivery".
	Invariant string `json:"invariant"`
	// Node is whose view is wrong; Peer is about whom (-1 when the
	// violation is not about a specific peer).
	Node int `json:"node"`
	Peer int `json:"peer"`
	// Detail is the human-readable specifics.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: node %d peer %d: %s", v.Invariant, v.Node, v.Peer, v.Detail)
}

// Outcome is the result of running one schedule to completion.
type Outcome struct {
	Schedule   Schedule    `json:"schedule"`
	Violations []Violation `json:"violations,omitempty"`
	// Faults counts what the fault controller did to traffic.
	Faults transport.FaultStats `json:"-"`
	// Statuses is each daemon's final view (DRS only), for diagnosis.
	Statuses []core.Status `json:"-"`
}

// Failed reports whether any invariant was violated.
func (o *Outcome) Failed() bool { return len(o.Violations) > 0 }

// runner is the hermetic cluster one schedule executes against: the
// simulator's deterministic scheduler behind the clock seam, in-memory
// transport wrapped by one shared fault controller, and the same
// runtime.BuildNode router assembly the live daemon uses. Everything
// runs on one goroutine (timer callbacks fire synchronously inside
// RunUntil), so a schedule replays bit-identically from its seed. It
// is the chaos.Target its episodes drive.
type runner struct {
	sched   Schedule
	spec    runtime.ClusterSpec
	clk     simtime.Clock
	mem     *transport.Mem
	faults  *transport.Faults
	routers []routing.Router
	// incarnation and checkpoint track each node's crash–restart
	// lifecycle across episode windows.
	incarnation []uint32
	checkpoint  []*core.Checkpoint
	// delivered records data-plane check receipts, keyed src*Nodes+dst.
	delivered map[int]bool
}

// Run executes the schedule against a fresh hermetic cluster and
// checks the post-heal invariants. The only error is an invalid
// schedule; protocol misbehavior is reported as Violations, not an
// error.
func Run(s Schedule) (*Outcome, error) {
	s.defaults()
	spec, eps, err := s.plan()
	if err != nil {
		return nil, err
	}
	clk := simtime.Clock{Sched: simtime.NewScheduler()}
	r := &runner{
		sched:       s,
		spec:        spec,
		clk:         clk,
		mem:         transport.NewMem(s.Nodes, rails, clk, memLatency),
		faults:      transport.NewFaults(s.Seed, clk),
		routers:     make([]routing.Router, s.Nodes),
		incarnation: make([]uint32, s.Nodes),
		checkpoint:  make([]*core.Checkpoint, s.Nodes),
		delivered:   make(map[int]bool),
	}
	for n := 0; n < s.Nodes; n++ {
		if err := r.boot(n, 1, nil); err != nil {
			return nil, err
		}
	}
	chaos.Schedule(r.clk, eps, r)
	// Fault phase, then the heal barrier (episodes all end by the
	// horizon; HealAll also clears anything a hand-written replay file
	// left dangling), then the settle window.
	r.clk.Sched.RunUntil(simtime.Time(s.Horizon))
	r.faults.HealAll()
	r.clk.Sched.RunUntil(simtime.Time(s.Horizon + s.Settle))

	out := &Outcome{Schedule: s}
	r.checkStatusInvariants(out)
	r.checkDelivery(out)
	r.checkBudget(out)
	out.Faults = r.faults.Stats()
	for _, rt := range r.routers {
		rt.Stop()
	}
	return out, nil
}

// boot builds and starts one node's router at the given incarnation,
// re-installing the data-plane receipt hook a restart would lose.
func (r *runner) boot(n int, inc uint32, restore *core.Checkpoint) error {
	router, err := runtime.BuildNode(r.spec, n, r.faults.Wrap(r.mem.Node(n)), r.clk, inc, restore)
	if err != nil {
		return fmt.Errorf("nemesis: node %d: %v", n, err)
	}
	dst := n
	router.SetDeliverFunc(func(src int, data []byte) {
		r.delivered[src*r.sched.Nodes+dst] = true
	})
	if err := router.Start(); err != nil {
		return fmt.Errorf("nemesis: node %d start: %v", n, err)
	}
	r.routers[n] = router
	r.incarnation[n] = inc
	return nil
}

// FailDir takes a NIC down; the in-memory fabric has no half-duplex
// state, so dir is not consulted (schedules flap whole NICs).
func (r *runner) FailDir(c topology.Component, dir netsim.Direction) {
	r.mem.SetNIC(int(c)/rails, int(c)%rails, false)
}

// RestoreDir brings a NIC back up.
func (r *runner) RestoreDir(c topology.Component, dir netsim.Direction) {
	r.mem.SetNIC(int(c)/rails, int(c)%rails, true)
}

// SetImpairment and ClearImpairment are unreachable: a schedule
// document has no per-component impairment.
func (r *runner) SetImpairment(topology.Component, netsim.Impairment) error {
	panic("nemesis: component impairment")
}

func (r *runner) ClearImpairment(topology.Component) { panic("nemesis: component impairment") }

func (r *runner) Partition(src, dst, rail int) { r.faults.Partition(src, dst, rail) }

func (r *runner) Heal(src, dst, rail int) { r.faults.Heal(src, dst, rail) }

func (r *runner) SetSkew(node int, d time.Duration) { r.faults.SetSkew(node, d) }

// Crash fail-stops a node's process, checkpointing a DRS daemon first
// when the restart is warm.
func (r *runner) Crash(node int, warm bool) {
	if d, ok := r.routers[node].(*core.Daemon); ok && warm {
		r.checkpoint[node] = d.Checkpoint()
	} else {
		r.checkpoint[node] = nil
	}
	r.mem.FailNode(node)
	r.routers[node].Stop()
}

// Restart boots the node's next incarnation.
func (r *runner) Restart(node int) {
	r.mem.RestoreNode(node)
	if err := r.boot(node, r.incarnation[node]+1, r.checkpoint[node]); err != nil {
		// The node booted from the same spec once already.
		panic(err)
	}
}

// checkStatusInvariants inspects each daemon's post-settle view. Only
// the DRS exposes a Status; other protocols get the data-plane check
// alone.
func (r *runner) checkStatusInvariants(out *Outcome) {
	statuses := make([]*core.Status, r.sched.Nodes)
	for n, rt := range r.routers {
		if d, ok := rt.(*core.Daemon); ok {
			s := d.Status()
			statuses[n] = &s
			out.Statuses = append(out.Statuses, s)
		}
	}
	add := func(inv string, node, peer int, format string, args ...any) {
		out.Violations = append(out.Violations, Violation{
			Invariant: inv, Node: node, Peer: peer, Detail: fmt.Sprintf(format, args...),
		})
	}
	for n, s := range statuses {
		if s == nil {
			continue
		}
		for peer := 0; peer < r.sched.Nodes; peer++ {
			if peer == n {
				continue
			}
			p, ok := peerView(s, peer)
			if !ok {
				add("membership", n, peer, "no membership entry after settle")
				continue
			}
			// Convergence: with every fault healed and both rails up,
			// steady state is a direct route to everyone.
			if p.Route != "direct" {
				add("convergence", n, peer, "route %q (rail %d via %d), want direct", p.Route, p.Rail, p.Via)
			}
			// Incarnation: a view of a previous life after its
			// successor rejoined means the rejoin purge leaked. Zero is
			// legitimate ignorance — incarnations are only learned from
			// stamped control frames, and a node that restarted after a
			// peer's boot-time announce may never have seen one.
			if want := r.incarnation[peer]; p.Incarnation != 0 && p.Incarnation != want {
				add("incarnation", n, peer, "sees incarnation %d, peer is running %d", p.Incarnation, want)
			}
			// Membership: the peer must have been heard recently — more
			// than a few silent probe rounds at check time means the
			// failure detector never recovered from the faults.
			stale := time.Duration(r.sched.Horizon) + time.Duration(r.sched.Settle) - 3*time.Duration(r.sched.ProbeInterval)
			if p.LastHeard < stale {
				add("membership", n, peer, "last heard %v, silent since (checked at %v)",
					p.LastHeard, time.Duration(r.sched.Horizon)+time.Duration(r.sched.Settle))
			}
		}
	}
	sortViolations(out.Violations)
}

func peerView(s *core.Status, peer int) (core.PeerStatus, bool) {
	for _, p := range s.Peers {
		if p.Peer == peer {
			return p, true
		}
	}
	return core.PeerStatus{}, false
}

// deliveryWindow is how long the data-plane check waits for its
// datagrams — generous (many probe rounds) on purpose: unlike the
// settle-bounded status invariants, a delivery failure here means the
// cluster lost a route it never gets back.
func (r *runner) deliveryWindow() time.Duration {
	w := 10 * time.Duration(r.sched.ProbeInterval)
	if w < 500*time.Millisecond {
		w = 500 * time.Millisecond
	}
	return w
}

// checkDelivery sends one datagram along every ordered pair and runs
// the clock a generous window; anything undelivered is a violation.
func (r *runner) checkDelivery(out *Outcome) {
	noRoute := make(map[int]bool)
	for src := 0; src < r.sched.Nodes; src++ {
		for dst := 0; dst < r.sched.Nodes; dst++ {
			if src == dst {
				continue
			}
			payload := []byte(fmt.Sprintf("nemesis %d->%d", src, dst))
			if err := r.routers[src].SendData(dst, payload); err != nil {
				noRoute[src*r.sched.Nodes+dst] = true
			}
		}
	}
	r.clk.Sched.RunUntil(r.clk.Sched.Now().Add(r.deliveryWindow()))
	var vs []Violation
	for src := 0; src < r.sched.Nodes; src++ {
		for dst := 0; dst < r.sched.Nodes; dst++ {
			key := src*r.sched.Nodes + dst
			if src == dst || r.delivered[key] {
				continue
			}
			detail := "datagram never delivered"
			if noRoute[key] {
				detail = "send refused: no route"
			}
			vs = append(vs, Violation{Invariant: "delivery", Node: src, Peer: dst, Detail: detail})
		}
	}
	sortViolations(vs)
	out.Violations = append(out.Violations, vs...)
}

// budgetCeiling is the most admissions a token bucket (rate tokens
// per second refilling a burst-deep bucket that starts full) can have
// granted over a window.
func budgetCeiling(rate float64, burst int, window time.Duration) int64 {
	return int64(rate*window.Seconds() + float64(burst))
}

// budgetViolations checks one node's counter snapshot against the
// budget's hard admission bound over the run window. Split from the
// runner so the checker is unit-testable without a cluster run.
func budgetViolations(node int, snap map[string]int64, cfg overload.Config, window time.Duration) []Violation {
	var vs []Violation
	if n, ceil := snap[routing.CtrProbeRetransmits], budgetCeiling(cfg.ProbeRate, cfg.ProbeBurst, window); n > ceil {
		vs = append(vs, Violation{Invariant: "budget", Node: node, Peer: -1,
			Detail: fmt.Sprintf("%d probe retransmits, bucket admits at most %d over %v", n, ceil, window)})
	}
	// The query counter counts frames — one per rail per admitted
	// discovery — so the bucket bound scales by the rail count.
	if n, ceil := snap[routing.CtrQueriesSent], budgetCeiling(cfg.QueryRate, cfg.QueryBurst, window)*rails; n > ceil {
		vs = append(vs, Violation{Invariant: "budget", Node: node, Peer: -1,
			Detail: fmt.Sprintf("%d query frames, bucket admits at most %d over %v", n, ceil, window)})
	}
	return vs
}

// checkBudget is the post-heal control-traffic-bound invariant: with a
// budget block armed, every daemon's probe-retransmit and discovery
// counters must sit under what its token buckets could have admitted
// across the entire run — faults, heal, settle and delivery window
// included. A counter above the ceiling means a control path escaped
// its budget. (A restarted node's counters cover its last life only,
// which the full-run ceiling bounds a fortiori.)
func (r *runner) checkBudget(out *Outcome) {
	if r.sched.Budget == nil {
		return
	}
	window := time.Duration(r.sched.Horizon) + time.Duration(r.sched.Settle) + r.deliveryWindow()
	var vs []Violation
	for n, rt := range r.routers {
		if _, ok := rt.(*core.Daemon); !ok {
			continue
		}
		vs = append(vs, budgetViolations(n, rt.Metrics().Snapshot(), r.spec.Tunables.Overload, window)...)
	}
	sortViolations(vs)
	out.Violations = append(out.Violations, vs...)
}

// sortViolations orders violations (invariant, node, peer) so outcome
// rendering is deterministic regardless of how checks accumulate.
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Invariant != vs[j].Invariant {
			return vs[i].Invariant < vs[j].Invariant
		}
		if vs[i].Node != vs[j].Node {
			return vs[i].Node < vs[j].Node
		}
		return vs[i].Peer < vs[j].Peer
	})
}
