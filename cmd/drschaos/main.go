// Command drschaos runs gray-failure campaigns against the routing
// protocols: instead of the fail-stop faults of the paper's
// experiments, it sweeps an impairment intensity ladder — random frame
// loss on a backplane, or link flapping at increasing duty cycles —
// and reports how each protocol's delivery availability degrades,
// how many link flaps it observed, and how fast it repaired routes.
//
// A third mode torments the daemons themselves: -mode crash sweeps a
// mean-time-to-repair ladder (seconds a crashed daemon stays dead) and
// runs every cell twice — cold restart and warm restart (crash-time
// checkpoint restored) — reporting delivery availability and the mean
// recovery latency from restart to the node's first repaired route.
//
// A fifth mode is the overload campaign: -mode storm sweeps the
// correlated-failure fraction — rail 0's backplane dies and that
// fraction of the cluster crash-restarts in lock-step — and runs every
// cell twice, once with the DRS control-plane budgets off and once
// with the overload-protection layer on. The table reports delivery
// availability next to the shed/degraded counters and the maximum
// per-node control-traffic counts, so the budgets' bound is visible in
// the same row that shows what they cost.
//
// A fourth mode is the static fast-failover head-to-head: -mode
// failover runs every protocol through a fixed regime ladder — clean,
// loss, flap, crash and the Dai & Foerster dynamic regime (two NICs on
// different nodes and rails flapping with incommensurate periods, so
// mixed-rail cuts open and close faster than any control plane
// converges) — with the forwarding-trace invariant checker enabled in
// every cell. The table reports availability alongside the checker's
// loop, revisit and drop counts, so a variant that buys availability
// by looping is convicted in the same row.
//
// The sweep runs on the parallel engine: every (protocol, intensity)
// cell is an independent deterministic simulation, so the output is
// bit-identical for any -workers count.
//
// Usage:
//
//	drschaos [-mode loss|flap|crash|failover|storm] [-protocols list]
//	         [-levels list] [-nodes n] [-duration d] [-seed s]
//	         [-damping] [-rto] [-workers n] [-plot]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"drsnet/internal/asciiplot"
	"drsnet/internal/chaos"
	"drsnet/internal/invariant"
	"drsnet/internal/linkmon"
	"drsnet/internal/netsim"
	"drsnet/internal/overload"
	"drsnet/internal/routing"
	"drsnet/internal/runtime"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// campaign parameterizes one sweep.
type campaign struct {
	mode      string
	protocols []string
	levels    []float64
	nodes     int
	duration  time.Duration
	seed      uint64
	damping   bool
	rto       bool
	workers   int
}

// cell is the outcome of one (protocol, intensity) run. In crash mode
// the intensity is the MTTR in seconds, warm distinguishes the
// cold/warm pair, and crashes/recovery carry the lifecycle columns. In
// failover mode the regime names the cell's fault cocktail and the
// loops/revisits/drops columns carry the invariant checker's verdict.
type cell struct {
	protocol        string
	intensity       float64
	warm            bool
	budgeted        bool
	regime          string
	sent, delivered int
	flaps, damped   int
	meanRepair      time.Duration // 0 when the protocol records no repairs
	repairs         int
	crashes         int
	meanRecovery    time.Duration
	recovered       int // restarts that repaired at least one route
	loops           int
	revisits        int
	drops           int
	// Storm-mode columns, reduced from Result.Counters: total budget
	// sheds and degraded-mode entries across the cluster, and the
	// worst single node's retransmit and query-frame counts.
	shed       int64
	degraded   int64
	maxRetrans int64
	maxQueries int64
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("drschaos", flag.ContinueOnError)
	flags.SetOutput(stderr)
	mode := flags.String("mode", "loss", "campaign mode: loss (backplane frame loss), flap (NIC duty-cycle flapping), crash (daemon crash-restart MTTR sweep), failover (static fast-failover head-to-head across fault regimes) or storm (correlated-failure fraction sweep, budgets off vs on)")
	protocols := flags.String("protocols", "drs,reactive,linkstate,static", "protocols to torment, comma separated (failover mode defaults to the static family plus the convergence protocols)")
	levels := flags.String("levels", "", "intensity ladder, comma separated (loss probabilities, flap duty cycles or crash MTTRs in seconds; default per mode)")
	nodes := flags.Int("nodes", 6, "cluster size")
	duration := flags.Duration("duration", 60*time.Second, "simulated horizon per run")
	seed := flags.Uint64("seed", 1, "simulation seed")
	damping := flags.Bool("damping", false, "enable DRS route-flap damping (linkmon defaults)")
	rto := flags.Bool("rto", false, "enable DRS adaptive probe deadlines (linkmon defaults)")
	workers := flags.Int("workers", 0, "worker goroutines (0 = all CPUs)")
	plot := flags.Bool("plot", false, "render availability as an ASCII chart instead of a table")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	c := campaign{
		mode:     *mode,
		nodes:    *nodes,
		duration: *duration,
		seed:     *seed,
		damping:  *damping,
		rto:      *rto,
		workers:  *workers,
	}
	switch c.mode {
	case "loss", "flap", "crash", "failover", "storm":
	default:
		fmt.Fprintf(stderr, "drschaos: unknown mode %q (want loss, flap, crash, failover or storm)\n", c.mode)
		return 1
	}
	protocolList := *protocols
	if c.mode == "storm" {
		// The budget on/off comparison is a DRS feature; the baselines
		// ignore the overload tunable, so their row pairs would be
		// identical. Default to the DRS unless the user picked a lineup.
		explicit := false
		flags.Visit(func(f *flag.Flag) {
			if f.Name == "protocols" {
				explicit = true
			}
		})
		if !explicit {
			protocolList = "drs"
		}
		if *plot {
			fmt.Fprintf(stderr, "drschaos: -plot cannot render storm mode's budget on/off row pairs\n")
			return 1
		}
	}
	if c.mode == "failover" {
		// The head-to-head compares the whole static family against the
		// convergence protocols unless the user picked a lineup.
		explicit := false
		flags.Visit(func(f *flag.Flag) {
			if f.Name == "protocols" {
				explicit = true
			}
		})
		if !explicit {
			protocolList = "failover-rotor,failover-arbor,failover-bounce,drs,linkstate,reactive"
		}
		if *levels != "" {
			fmt.Fprintf(stderr, "drschaos: -levels is not used by -mode failover (the regime ladder is fixed)\n")
			return 1
		}
		if *plot {
			fmt.Fprintf(stderr, "drschaos: -plot needs a numeric intensity axis; -mode failover has none\n")
			return 1
		}
	}
	for _, tok := range strings.Split(protocolList, ",") {
		p := strings.TrimSpace(tok)
		if _, err := runtime.Lookup(p); err != nil {
			fmt.Fprintf(stderr, "drschaos: %v\n", err)
			return 1
		}
		c.protocols = append(c.protocols, p)
	}
	ladder := *levels
	if ladder == "" {
		switch c.mode {
		case "loss":
			ladder = "0,0.05,0.1,0.2,0.4"
		case "flap":
			ladder = "0,0.2,0.4,0.6"
		case "crash":
			ladder = "0,2,8"
		case "storm":
			ladder = "0,0.25,0.5,0.75"
		case "failover":
			ladder = "" // the regime ladder replaces numeric intensities
		}
	}
	for _, tok := range strings.Split(ladder, ",") {
		if c.mode == "failover" {
			break
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			fmt.Fprintf(stderr, "drschaos: bad intensity %q: %v\n", tok, err)
			return 1
		}
		if c.mode == "crash" {
			// Crash levels are MTTRs in seconds; 0 means the node never
			// restarts.
			if v < 0 {
				fmt.Fprintf(stderr, "drschaos: negative MTTR %v\n", v)
				return 1
			}
		} else if v < 0 || v >= 1 {
			fmt.Fprintf(stderr, "drschaos: intensity %v outside [0,1)\n", v)
			return 1
		}
		c.levels = append(c.levels, v)
	}
	minNodes := 2
	if c.mode == "crash" || c.mode == "failover" {
		minNodes = 3 // the scenarios fault node 2's NIC and torment node 1
	}
	if c.mode == "storm" {
		minNodes = 4 // a fraction of the cluster crashes; someone must survive to route
	}
	if c.nodes < minNodes {
		fmt.Fprintf(stderr, "drschaos: mode %s needs at least %d nodes, have %d\n", c.mode, minNodes, c.nodes)
		return 1
	}
	if c.duration <= 0 {
		fmt.Fprintf(stderr, "drschaos: duration must be positive\n")
		return 1
	}

	cells, err := c.sweep()
	if err != nil {
		fmt.Fprintf(stderr, "drschaos: %v\n", err)
		return 1
	}
	if *plot {
		err = c.writePlot(stdout, cells)
	} else {
		err = c.writeTable(stdout, cells)
	}
	if err != nil {
		fmt.Fprintf(stderr, "drschaos: %v\n", err)
		return 1
	}
	return 0
}

// spec builds the deterministic simulation for one campaign cell. The
// variant flag only matters in crash mode, where it selects warm-start
// recovery for the scripted restarts, and in storm mode, where it
// enables the overload-protection budgets.
func (c *campaign) spec(protocol string, intensity float64, variant bool) runtime.ClusterSpec {
	cl := topology.Dual(c.nodes)
	spec := runtime.ClusterSpec{
		Nodes:    c.nodes,
		Protocol: protocol,
		Seed:     c.seed,
		Duration: c.duration,
	}
	if c.damping {
		spec.Tunables.FlapDamping = linkmon.DefaultDamping()
	}
	if c.rto {
		spec.Tunables.AdaptiveRTO = linkmon.DefaultRTO()
	}
	// Ring traffic: every node talks to its successor, so every rail
	// segment carries load and any impairment is felt somewhere.
	for n := 0; n < c.nodes; n++ {
		spec.Flows = append(spec.Flows, runtime.Flow{
			From: n, To: (n + 1) % c.nodes, Interval: 250 * time.Millisecond,
		})
	}
	switch c.mode {
	case "loss":
		// Degrade rail 0's backplane for the whole run; rail 1 stays
		// clean, so a protocol that reroutes can dodge the loss.
		if intensity > 0 {
			spec.Episodes = append(spec.Episodes, chaos.Episode{
				Comp:   cl.Backplane(0),
				Impair: netsim.Impairment{Loss: intensity},
			})
		}
	case "flap":
		// Node 1 loses its rail-1 NIC for good at 1 s, then its rail-0
		// NIC — the only path left — flaps with the intensity as duty
		// cycle. Higher duty, longer outages, more route churn.
		spec.Faults = append(spec.Faults, runtime.Fault{At: time.Second, Comp: cl.NIC(1, 1)})
		if intensity > 0 {
			spec.Episodes = append(spec.Episodes, chaos.Episode{
				Comp:       cl.NIC(1, 0),
				Start:      5 * time.Second,
				FlapPeriod: 8 * time.Second,
				FlapDuty:   intensity,
			})
		}
	case "crash":
		// Node 2 loses its rail-0 NIC at 1 s, so by the first crash the
		// survivors hold non-default routes — exactly what a warm
		// checkpoint preserves and a cold restart must relearn. Node 1
		// then crashes at 10 s and 35 s; the intensity is the MTTR in
		// seconds (0 = the node never comes back, one crash only).
		spec.Faults = append(spec.Faults, runtime.Fault{At: time.Second, Comp: cl.NIC(2, 0)})
		mttr := time.Duration(intensity * float64(time.Second))
		crashAts := []time.Duration{10 * time.Second, 35 * time.Second}
		if mttr == 0 {
			crashAts = crashAts[:1]
		}
		for _, at := range crashAts {
			cs := chaos.Episode{Kind: chaos.Crash, A: 1, Start: at, Warm: variant && mttr > 0}
			if mttr > 0 {
				cs.Stop = at + mttr
			}
			spec.Episodes = append(spec.Episodes, cs)
		}
	case "storm":
		// Correlated failure storm: rail 0's backplane dies at 5 s
		// (healing at 20 s) and the intensity fraction of the cluster
		// crashes with it, every victim restarting cold at the same
		// instant — a synchronized rejoin burst on a degraded network,
		// the worst case the budgets exist for. Adaptive RTO is always
		// on (retransmit pressure is the point of the exercise); the
		// variant flag turns on the overload-protection layer.
		spec.Tunables.AdaptiveRTO = linkmon.DefaultRTO()
		spec.Tunables.Lifecycle = true // keep f=0 rows wire-comparable
		if variant {
			spec.Tunables.Overload = overload.Default()
		}
		spec.Faults = append(spec.Faults,
			runtime.Fault{At: 5 * time.Second, Comp: cl.Backplane(0)},
			runtime.Fault{At: 20 * time.Second, Comp: cl.Backplane(0), Restore: true})
		k := int(intensity * float64(c.nodes))
		if intensity > 0 && k < 1 {
			k = 1
		}
		if k > c.nodes-1 {
			k = c.nodes - 1 // node 0 always survives to measure from
		}
		for n := 1; n <= k; n++ {
			spec.Episodes = append(spec.Episodes, chaos.Episode{
				Kind: chaos.Crash, A: n, Start: 5 * time.Second, Stop: 8 * time.Second,
			})
		}
	}
	return spec
}

// failoverRegimes is the head-to-head ladder: every protocol faces the
// same five fault cocktails, from nothing at all to failures faster
// than any control plane converges.
var failoverRegimes = []string{"clean", "loss", "flap", "crash", "dynamic"}

// specFailover builds one head-to-head cell: the campaign's ring
// traffic under the named regime, with the forwarding-trace invariant
// checker installed so the table can report loops, revisits and drops
// next to availability.
func (c *campaign) specFailover(protocol, regime string) runtime.ClusterSpec {
	cl := topology.Dual(c.nodes)
	spec := runtime.ClusterSpec{
		Nodes:     c.nodes,
		Protocol:  protocol,
		Seed:      c.seed,
		Duration:  c.duration,
		Invariant: &invariant.Config{},
	}
	if c.damping {
		spec.Tunables.FlapDamping = linkmon.DefaultDamping()
	}
	if c.rto {
		spec.Tunables.AdaptiveRTO = linkmon.DefaultRTO()
	}
	for n := 0; n < c.nodes; n++ {
		spec.Flows = append(spec.Flows, runtime.Flow{
			From: n, To: (n + 1) % c.nodes, Interval: 250 * time.Millisecond,
		})
	}
	switch regime {
	case "clean":
		// Nothing: the baseline row every other regime degrades from.
	case "loss":
		// Rail 0's backplane drops a fifth of its frames for the whole
		// run — a gray failure no carrier oracle can see.
		spec.Episodes = append(spec.Episodes, chaos.Episode{
			Comp:   cl.Backplane(0),
			Impair: netsim.Impairment{Loss: 0.2},
		})
	case "flap":
		// Node 1 loses its rail-1 NIC for good, then its only remaining
		// NIC flaps — the drschaos flap campaign's 0.4-duty cell.
		spec.Faults = append(spec.Faults, runtime.Fault{At: time.Second, Comp: cl.NIC(1, 1)})
		spec.Episodes = append(spec.Episodes, chaos.Episode{
			Comp:       cl.NIC(1, 0),
			Start:      5 * time.Second,
			FlapPeriod: 8 * time.Second,
			FlapDuty:   0.4,
		})
	case "crash":
		// Node 1's daemon fail-stops with its link lights on: the
		// carrier oracle keeps vouching for a dead forwarder, the
		// static family blackholes, and only a probing control plane
		// notices. Node 2's rail-0 NIC dies first so the survivors
		// hold non-trivial routes when the crash lands.
		spec.Faults = append(spec.Faults, runtime.Fault{At: time.Second, Comp: cl.NIC(2, 0)})
		spec.Episodes = append(spec.Episodes, chaos.Episode{
			Kind: chaos.Crash, A: 1, Start: 10 * time.Second, Stop: 18 * time.Second,
		})
	case "dynamic":
		// Dai & Foerster's adversary: two NICs on different nodes and
		// rails flapping with incommensurate periods, so mixed-rail
		// cuts open and close continuously — faster than DRS probes
		// converge, slow enough that carrier sensing stays truthful.
		spec.Episodes = append(spec.Episodes,
			chaos.Episode{
				Comp:       cl.NIC(1, 1),
				Start:      time.Second,
				FlapPeriod: 900 * time.Millisecond,
				FlapDuty:   0.5,
			},
			chaos.Episode{
				Comp:       cl.NIC(2, 0),
				Start:      time.Second,
				FlapPeriod: 1300 * time.Millisecond,
				FlapDuty:   0.5,
			})
	}
	return spec
}

// sweep runs the full (protocol × intensity) grid on the parallel
// engine and reduces each run to a table cell. Crash mode doubles the
// grid: every restartable MTTR level runs cold and warm. Failover mode
// replaces the intensity axis with the fixed regime ladder.
func (c *campaign) sweep() ([]cell, error) {
	var specs []runtime.ClusterSpec
	var cells []cell
	if c.mode == "failover" {
		for _, p := range c.protocols {
			for _, rg := range failoverRegimes {
				specs = append(specs, c.specFailover(p, rg))
				cells = append(cells, cell{protocol: p, regime: rg})
			}
		}
	} else {
		for _, p := range c.protocols {
			for _, lv := range c.levels {
				specs = append(specs, c.spec(p, lv, false))
				cells = append(cells, cell{protocol: p, intensity: lv})
				switch {
				case c.mode == "crash" && lv > 0:
					specs = append(specs, c.spec(p, lv, true))
					cells = append(cells, cell{protocol: p, intensity: lv, warm: true})
				case c.mode == "storm":
					specs = append(specs, c.spec(p, lv, true))
					cells = append(cells, cell{protocol: p, intensity: lv, budgeted: true})
				}
			}
		}
	}
	results, err := runtime.RunMany(context.Background(), specs, c.workers)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		for _, f := range res.Flows {
			cells[i].sent += f.Sent
			cells[i].delivered += f.Delivered
		}
		cells[i].flaps = res.Trace.Count(trace.KindLinkDown)
		cells[i].damped = res.Trace.Count(trace.KindRouteDamped)
		cells[i].repairs = len(res.Repairs)
		var total time.Duration
		for _, r := range res.Repairs {
			total += r.Latency()
		}
		if len(res.Repairs) > 0 {
			cells[i].meanRepair = total / time.Duration(len(res.Repairs))
		}
		if c.mode == "crash" {
			cells[i].crashes = res.Trace.Count(trace.KindNodeCrashed)
			cells[i].meanRecovery, cells[i].recovered = crashRecovery(res.Trace, 1)
		}
		if c.mode == "storm" {
			cells[i].crashes = res.Trace.Count(trace.KindNodeCrashed)
			for _, m := range res.Counters {
				cells[i].shed += m[routing.CtrProbeShed] + m[routing.CtrQueryShed]
				cells[i].degraded += m[routing.CtrDegradedEnter]
				if v := m[routing.CtrProbeRetransmits]; v > cells[i].maxRetrans {
					cells[i].maxRetrans = v
				}
				if v := m[routing.CtrQueriesSent]; v > cells[i].maxQueries {
					cells[i].maxQueries = v
				}
			}
		}
		if rep := res.Invariant; rep != nil {
			cells[i].loops = rep.Loops
			cells[i].revisits = rep.Revisits
			cells[i].drops = rep.Undelivered
		}
	}
	return cells, nil
}

// crashRecovery scans a run's trace for the crashed node's recovery
// latency: for each restart, the delay until the node's next repaired
// route (warm restores count — their route-installed events carry the
// restart's timestamp). Restarts that never repair a route before the
// next crash (or the horizon) are excluded from the mean.
func crashRecovery(log *trace.Log, node int) (mean time.Duration, recovered int) {
	events := log.Events()
	var total time.Duration
	for i, ev := range events {
		if ev.Kind != trace.KindNodeRestarted || ev.Node != node {
			continue
		}
	scan:
		for _, later := range events[i+1:] {
			switch {
			case later.Node == node && later.Kind == trace.KindRouteInstalled:
				total += later.At - ev.At
				recovered++
				break scan
			case later.Node == node && later.Kind == trace.KindNodeCrashed:
				break scan // died again before repairing anything
			}
		}
	}
	if recovered > 0 {
		mean = total / time.Duration(recovered)
	}
	return mean, recovered
}

// availability is the cell's delivered fraction.
func (cl *cell) availability() float64 {
	if cl.sent == 0 {
		return 0
	}
	return float64(cl.delivered) / float64(cl.sent)
}

func (c *campaign) title() string {
	var what string
	switch c.mode {
	case "loss":
		what = "backplane-0 frame loss"
	case "flap":
		what = "rail-0 flap duty cycle"
	case "crash":
		what = "node-1 crash MTTR"
	case "failover":
		what = "static fast-failover head-to-head"
	case "storm":
		what = "correlated-failure storm fraction"
	}
	damp := ""
	if c.damping {
		damp = ", damping on"
	}
	rto := ""
	if c.rto {
		rto = ", adaptive rto"
	}
	return fmt.Sprintf("chaos campaign: %s (%d nodes, %v, seed %d%s%s)",
		what, c.nodes, c.duration, c.seed, damp, rto)
}

func (c *campaign) writeTable(w io.Writer, cells []cell) error {
	if _, err := fmt.Fprintf(w, "# %s\n", c.title()); err != nil {
		return err
	}
	if c.mode == "crash" {
		return c.writeCrashTable(w, cells)
	}
	if c.mode == "failover" {
		return c.writeFailoverTable(w, cells)
	}
	if c.mode == "storm" {
		return c.writeStormTable(w, cells)
	}
	fmt.Fprintf(w, "%10s %10s %8s %7s %7s %8s %13s\n",
		"protocol", "intensity", "avail%", "flaps", "damped", "repairs", "mean-failover")
	for i := range cells {
		cl := &cells[i]
		failover := "-"
		if cl.repairs > 0 {
			failover = cl.meanRepair.Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "%10s %10.2f %8.2f %7d %7d %8d %13s\n",
			cl.protocol, cl.intensity, 100*cl.availability(),
			cl.flaps, cl.damped, cl.repairs, failover)
	}
	return nil
}

// writeFailoverTable renders the head-to-head grid: availability side
// by side with the invariant checker's verdict, so a protocol cannot
// look good by looping (the loops column convicts it in the same row)
// and honest loss is distinguishable from misrouting (drops counts
// tracked packets that vanished, excused or not).
func (c *campaign) writeFailoverTable(w io.Writer, cells []cell) error {
	fmt.Fprintf(w, "%15s %8s %8s %6s %9s %6s %8s\n",
		"protocol", "regime", "avail%", "loops", "revisits", "drops", "repairs")
	for i := range cells {
		cl := &cells[i]
		fmt.Fprintf(w, "%15s %8s %8.2f %6d %9d %6d %8d\n",
			cl.protocol, cl.regime, 100*cl.availability(),
			cl.loops, cl.revisits, cl.drops, cl.repairs)
	}
	return nil
}

// writeStormTable renders storm mode's budget off/on row pairs:
// fraction is the share of the cluster that crash-restarted in
// lock-step, shed and degraded sum the budget refusals and
// degraded-mode entries across the cluster, and max-rt / max-qry are
// the worst single node's probe-retransmit and query-frame counts —
// the numbers the budgets bound. An unbudgeted row shows what the
// storm costs without admission control; its budgeted twin shows the
// bound holding.
func (c *campaign) writeStormTable(w io.Writer, cells []cell) error {
	fmt.Fprintf(w, "%10s %9s %7s %8s %8s %8s %6s %9s %7s %8s\n",
		"protocol", "fraction", "budget", "avail%", "crashes", "repairs", "shed", "degraded", "max-rt", "max-qry")
	for i := range cells {
		cl := &cells[i]
		budget := "off"
		if cl.budgeted {
			budget = "on"
		}
		fmt.Fprintf(w, "%10s %9.2f %7s %8.2f %8d %8d %6d %9d %7d %8d\n",
			cl.protocol, cl.intensity, budget, 100*cl.availability(),
			cl.crashes, cl.repairs, cl.shed, cl.degraded, cl.maxRetrans, cl.maxQueries)
	}
	return nil
}

// writeCrashTable renders crash mode's cold/warm row pairs: mttr-s is
// the level (seconds the node stays dead), recovery is the mean delay
// from a restart to the crashed node's next repaired route ("-" when
// no restart repaired anything — baselines without repair accounting,
// or a node that never came back).
func (c *campaign) writeCrashTable(w io.Writer, cells []cell) error {
	fmt.Fprintf(w, "%10s %8s %6s %8s %8s %8s %10s\n",
		"protocol", "mttr-s", "start", "avail%", "crashes", "repairs", "recovery")
	for i := range cells {
		cl := &cells[i]
		start := "cold"
		if cl.warm {
			start = "warm"
		}
		recovery := "-"
		if cl.recovered > 0 {
			recovery = cl.meanRecovery.Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "%10s %8.2f %6s %8.2f %8d %8d %10s\n",
			cl.protocol, cl.intensity, start, 100*cl.availability(),
			cl.crashes, cl.repairs, recovery)
	}
	return nil
}

func (c *campaign) writePlot(w io.Writer, cells []cell) error {
	var series []asciiplot.Series
	variants := []bool{false}
	if c.mode == "crash" {
		variants = []bool{false, true}
	}
	for _, p := range c.protocols {
		for _, warm := range variants {
			name := p
			if c.mode == "crash" {
				if warm {
					name += "(warm)"
				} else {
					name += "(cold)"
				}
			}
			s := asciiplot.Series{Name: name}
			for i := range cells {
				if cells[i].protocol != p || cells[i].warm != warm {
					continue
				}
				s.X = append(s.X, cells[i].intensity)
				s.Y = append(s.Y, 100*cells[i].availability())
			}
			if len(s.X) > 0 {
				series = append(series, s)
			}
		}
	}
	xlabel := "intensity"
	if c.mode == "crash" {
		xlabel = "mttr (s)"
	}
	return asciiplot.Render(w, asciiplot.Config{
		Title:  c.title(),
		XLabel: xlabel,
		YLabel: "availability (%)",
	}, series...)
}
