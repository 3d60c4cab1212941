// Package chaos is the repository's one fault vocabulary for timed
// fault windows: an Episode impairs, kills or flaps one component,
// cuts the path between two nodes, crashes a node's routing process,
// or skews its deliveries, from Start to Stop. Validate is the one
// rulebook for an episode list, and Schedule the one scheduler: it
// arms every edge on a clock.Clock and drives a Target, which the
// simulated cluster (runtime) and the hermetic daemon cluster
// (nemesis) each implement.
//
// Fail-stop faults (runtime.Fault) model the paper's experiments —
// a component dies cleanly and every frame through it vanishes. The
// failures that hurt deployed systems are rarely that polite: a NIC
// whose transmit side dies while receive keeps working, a backplane
// that delivers 95% of frames, a link that flaps faster than the
// routing protocol can converge, two healthy nodes that cannot hear
// each other, a daemon that dies and comes back. Episodes fire at
// fixed instants of the run's clock, and the per-frame randomness
// comes from the target's own seeded stream, so a campaign replays
// bit-identically across runs and worker counts.
package chaos

import (
	"fmt"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/netsim"
	"drsnet/internal/topology"
)

// Kind is what an episode does.
type Kind uint8

const (
	// Component degrades one component (Comp) with an impairment, a
	// kill, a flap cycle, or an impairment with either of the others.
	Component Kind = iota
	// Partition severs the directed paths between nodes A and B that
	// Dir selects, on Rail (netsim.AllRails = every rail). Both nodes
	// stay alive and their hardware healthy, yet frames between them
	// vanish, possibly in one direction only: DirBoth is the classic
	// split, DirTx cuts A→B only and DirRx cuts B→A only.
	Partition
	// Crash fail-stops node A's routing process at Start — NICs stay
	// electrically up, every frame it sends or would receive
	// blackholes — and restarts it at Stop, warm from a checkpoint
	// taken at the crash or cold. Stop zero: it never returns.
	Crash
	// Skew delays every delivery to node A by Skew: the node's clock
	// running behind the cluster.
	Skew
)

// Episode is one timed fault window. Start and Stop bound every kind;
// the other fields belong to the kinds their comments name.
type Episode struct {
	Kind Kind
	// Start is when the fault lands. Stop is when it is lifted; zero
	// means it lasts to the end of the run.
	Start, Stop time.Duration

	// Comp is the NIC, back plane, switch or trunk a Component
	// episode acts on (topology numbering of the run's shape).
	Comp topology.Component
	// Impair is the degradation applied for the whole window.
	Impair netsim.Impairment
	// Kill takes Comp down for the whole window.
	Kill bool
	// FlapPeriod, when positive, cycles Comp down and up: each period
	// it is down for FlapPeriod×FlapDuty, starting down at Start, and
	// it always ends the window up.
	FlapPeriod time.Duration
	// FlapDuty is the fraction of each period spent down, in (0,1);
	// zero means 0.5.
	FlapDuty float64

	// Dir selects the half of Comp a kill or flap takes down, and
	// orients a partition.
	Dir netsim.Direction
	// A is the subject node of a crash or skew, and a partition's
	// first endpoint; B is its second.
	A, B int
	// Rail is the partitioned rail, or netsim.AllRails.
	Rail int
	// Warm restarts a crashed node from its crash-time checkpoint.
	Warm bool
	// Skew is the delivery delay a skew episode imposes.
	Skew time.Duration
}

// flapping reports whether a Component episode cycles.
func (e *Episode) flapping() bool { return e.FlapPeriod != 0 }

// duty returns the effective fraction of each flap period spent down.
func (e *Episode) duty() float64 {
	if e.FlapDuty == 0 {
		return 0.5
	}
	return e.FlapDuty
}

// downFor returns how long the component stays down each flap period.
func (e *Episode) downFor() time.Duration {
	return time.Duration(float64(e.FlapPeriod) * e.duty())
}

// ParseDirection reads a document's direction string: "" or "both",
// "tx" or "rx".
func ParseDirection(s string) (netsim.Direction, error) {
	for d := netsim.DirBoth; d <= netsim.DirRx; d++ {
		if s == d.String() {
			return d, nil
		}
	}
	if s == "" {
		return netsim.DirBoth, nil
	}
	return 0, fmt.Errorf("direction %q (want both, tx or rx)", s)
}

// Shape is the cluster an episode list is validated against.
type Shape struct {
	// Nodes and Rails size the cluster.
	Nodes, Rails int
	// Fabric numbers a switched fabric's components; nil means the
	// dual-rail cluster of Nodes × Rails, numbered as topology.Cluster.
	Fabric *topology.Fabric
	// Horizon, when positive, is when every episode must have ended.
	Horizon time.Duration
}

func (sh *Shape) components() int {
	if sh.Fabric != nil {
		return sh.Fabric.Components()
	}
	return topology.Cluster{Nodes: sh.Nodes, Rails: sh.Rails}.Components()
}

func (sh *Shape) name(c topology.Component) string {
	if sh.Fabric != nil {
		return sh.Fabric.Name(c)
	}
	return topology.Cluster{Nodes: sh.Nodes, Rails: sh.Rails}.Name(c)
}

// subject names what a validated episode acts on, for errors.
func (sh *Shape) subject(e *Episode) string {
	switch e.Kind {
	case Component:
		return sh.name(e.Comp)
	case Partition:
		return fmt.Sprintf("%d–%d", e.A, e.B)
	}
	return fmt.Sprintf("node %d", e.A)
}

// Validate checks an episode list against a cluster shape. entry names
// episode i in errors the way the caller's document lists it.
func Validate(eps []Episode, sh Shape, entry func(i int) string) error {
	type window struct {
		i           int
		start, stop time.Duration
	}
	var crashes map[int][]window
	for i := range eps {
		e := &eps[i]
		addressed := false // the subject is valid and can name the episode
		fail := func(format string, args ...any) error {
			msg := fmt.Sprintf(format, args...)
			if addressed {
				return fmt.Errorf("chaos: %s (%s): %s", entry(i), sh.subject(e), msg)
			}
			return fmt.Errorf("chaos: %s: %s", entry(i), msg)
		}
		node := func(n int) error {
			if n < 0 || n >= sh.Nodes {
				return fail("unknown node %d (cluster of %d)", n, sh.Nodes)
			}
			return nil
		}
		switch e.Kind {
		case Component:
			if int(e.Comp) < 0 || int(e.Comp) >= sh.components() {
				kind := "dualRail"
				if sh.Fabric != nil {
					kind = sh.Fabric.Kind
				}
				return fail("component %d outside universe of %d (%s fabric, %d hosts)",
					int(e.Comp), sh.components(), kind, sh.Nodes)
			}
		case Partition:
			if sh.Fabric != nil {
				return fail("partitions are dual-rail only (fabric %q)", sh.Fabric.Kind)
			}
			if err := node(e.A); err != nil {
				return err
			}
			if err := node(e.B); err != nil {
				return err
			}
			if e.A == e.B {
				return fail("node %d partitioned from itself", e.A)
			}
		case Crash, Skew:
			if err := node(e.A); err != nil {
				return err
			}
		default:
			return fail("unknown kind %d", e.Kind)
		}
		addressed = true
		switch {
		case e.Start < 0:
			return fail("start %v before time zero", e.Start)
		case e.Stop != 0 && e.Stop <= e.Start:
			return fail("stop %v not after start %v", e.Stop, e.Start)
		case sh.Horizon > 0 && (e.Stop == 0 || e.Stop > sh.Horizon):
			return fail("window [%v,%v) outside (0, horizon %v]", e.Start, e.Stop, sh.Horizon)
		}
		if e.Dir < netsim.DirBoth || e.Dir > netsim.DirRx {
			return fail("unknown direction %d", e.Dir)
		}
		switch e.Kind {
		case Component:
			if err := e.Impair.Validate(); err != nil {
				return fail("%v", err)
			}
			switch {
			case e.FlapPeriod < 0:
				return fail("flap period must be positive, got %v", e.FlapPeriod)
			case e.FlapDuty < 0 || e.FlapDuty >= 1:
				return fail("flap duty %v outside (0,1)", e.FlapDuty)
			case e.FlapDuty != 0 && !e.flapping():
				return fail("flap duty set without a flap period")
			case e.flapping() && e.Kill:
				return fail("kill and flap are mutually exclusive (flapping already cycles the component down)")
			case !e.Kill && !e.flapping() && e.Impair.IsZero():
				return fail("episode does nothing (no impairment, kill or flap)")
			case e.flapping() && e.downFor() <= 0:
				return fail("flap period %v with duty %v rounds to zero down-time", e.FlapPeriod, e.duty())
			}
		case Partition:
			if e.Rail != netsim.AllRails && (e.Rail < 0 || e.Rail >= sh.Rails) {
				return fail("rail %d outside [0,%d)", e.Rail, sh.Rails)
			}
		case Crash:
			if e.Warm && e.Stop == 0 {
				return fail("warm restart requested but the node never restarts")
			}
			// One process cannot live two overlapping lives; a crash at
			// the exact instant of an earlier restart is allowed.
			w := window{i, e.Start, e.Stop}
			if crashes == nil {
				crashes = make(map[int][]window)
			}
			for _, p := range crashes[e.A] {
				if (p.stop == 0 || w.start < p.stop) && (w.stop == 0 || p.start < w.stop) {
					return fail("crash window [%v,%v) overlaps %s", w.start, w.stop, entry(p.i))
				}
			}
			crashes[e.A] = append(crashes[e.A], w)
		case Skew:
			if e.Skew <= 0 {
				return fail("skew %v must be positive", e.Skew)
			}
		}
	}
	return nil
}

// Target is what a schedule drives. The simulated cluster implements
// it over netsim and its crash–restart lifecycle; the hermetic daemon
// cluster over transport.Mem and transport.Faults.
type Target interface {
	FailDir(c topology.Component, dir netsim.Direction)
	RestoreDir(c topology.Component, dir netsim.Direction)
	SetImpairment(c topology.Component, imp netsim.Impairment) error
	ClearImpairment(c topology.Component)
	// Partition and Heal install and remove one directed cut src→dst.
	Partition(src, dst, rail int)
	Heal(src, dst, rail int)
	Crash(node int, warm bool)
	Restart(node int)
	SetSkew(node int, d time.Duration)
}

// armed is one scheduled episode: every edge of it is a call on a
// package-level function with the record as argument, so arming an
// edge allocates nothing.
type armed struct {
	e   *Episode
	clk clock.Clock
	t   Target
}

// Schedule installs a validated episode list on clk, in list order:
// each episode's start and stop edges are armed now, and a flap arms
// each edge inside its window from the one before. Call once, before
// the clock passes the earliest Start. Overlapping episodes compose in
// schedule order: a heal removes exactly the directed cuts its episode
// installed, and a restore brings the component back whatever an
// overlapping episode intended (component states and cuts are flags,
// not reference counts).
func Schedule(clk clock.Clock, eps []Episode, t Target) {
	recs := make([]armed, len(eps))
	now := clk.Now()
	for i := range eps {
		a := &recs[i]
		*a = armed{e: &eps[i], clk: clk, t: t}
		clk.AfterCall(a.e.Start-now, begin, a)
		if a.e.Stop > 0 {
			clk.AfterCall(a.e.Stop-now, end, a)
		}
	}
}

func begin(arg any) { arg.(*armed).window(true) }

func end(arg any) { arg.(*armed).window(false) }

// window lands (on) or lifts the episode's fault. A flap starts its
// first cycle as it lands and ends up when it is lifted.
func (a *armed) window(on bool) {
	e, t := a.e, a.t
	switch e.Kind {
	case Component:
		if !e.Impair.IsZero() {
			if on {
				_ = t.SetImpairment(e.Comp, e.Impair)
			} else {
				t.ClearImpairment(e.Comp)
			}
		}
		switch {
		case on && e.Kill:
			t.FailDir(e.Comp, e.Dir)
		case on && e.flapping():
			a.flap()
		case !on && (e.Kill || e.flapping()):
			t.RestoreDir(e.Comp, e.Dir)
		}
	case Partition:
		act := t.Partition
		if !on {
			act = t.Heal
		}
		if e.Dir != netsim.DirRx {
			act(e.A, e.B, e.Rail)
		}
		if e.Dir != netsim.DirTx {
			act(e.B, e.A, e.Rail)
		}
	case Crash:
		if on {
			t.Crash(e.A, e.Warm)
		} else {
			t.Restart(e.A)
		}
	case Skew:
		d := e.Skew
		if !on {
			d = 0
		}
		t.SetSkew(e.A, d)
	}
}

// flap is one flap cycle: down now, up after the duty fraction and the
// next cycle one period on, each only if it lands before Stop — the
// stop edge brings the component up for good.
func (a *armed) flap() {
	e := a.e
	now := a.clk.Now()
	a.t.FailDir(e.Comp, e.Dir)
	down := e.downFor()
	if e.Stop == 0 || down < e.Stop-now {
		a.clk.AfterCall(down, flapUp, a)
	}
	// Without a stop, a period past the end of time never comes.
	if e.Stop == 0 && now+e.FlapPeriod > now || e.FlapPeriod < e.Stop-now {
		a.clk.AfterCall(e.FlapPeriod, flapDown, a)
	}
}

func flapDown(arg any) { arg.(*armed).flap() }

func flapUp(arg any) {
	a := arg.(*armed)
	a.t.RestoreDir(a.e.Comp, a.e.Dir)
}
