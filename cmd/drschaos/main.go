// Command drschaos runs chaos campaigns against the routing protocols.
// Instead of the fail-stop faults of the paper's experiments, each
// -mode sweeps a fault ladder and reports how every protocol's delivery
// availability degrades, next to what that mode's faults cost:
//
//   - loss and flap are gray failures: random frame loss on a
//     backplane, or link flapping at increasing duty cycles. The table
//     counts the link flaps each protocol observed and how fast it
//     repaired routes.
//   - crash torments the daemons themselves over a mean-time-to-repair
//     ladder (seconds a crashed daemon stays dead). Every cell runs
//     cold restart and warm restart (crash-time checkpoint restored);
//     the table reports the mean recovery latency from restart to the
//     node's first repaired route.
//   - failover is the static fast-failover head-to-head: every protocol
//     faces a fixed regime ladder — clean, loss, flap, crash and the
//     Dai & Foerster dynamic regime — with the forwarding-trace
//     invariant checker enabled in every cell, so a variant that buys
//     availability by looping is convicted in the same row.
//   - storm is the overload campaign: rail 0's backplane dies and a
//     fraction of the cluster crash-restarts in lock-step. Every cell
//     runs with the DRS control-plane budgets off, then on; the
//     shed/degraded counters and the maximum per-node control-traffic
//     counts show the budgets' bound in the same row as their cost.
//
// The sweep runs on the parallel engine: every cell is an independent
// deterministic simulation, so the output is bit-identical for any
// -workers count.
//
// Usage:
//
//	drschaos [-mode loss|flap|crash|failover|storm] [-protocols list]
//	         [-levels list] [-nodes n] [-duration d] [-seed s]
//	         [-damping] [-rto] [-workers n] [-plot]
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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

// mode is one -mode: everything that differs between campaigns. Flag
// checks, the spec builder, the sweep, the reducer and the writers are
// shared.
type mode struct {
	what           string            // what is swept, for the title line
	levels         string            // default -levels ladder
	protocols      string            // default lineup ("" = the -protocols default)
	minNodes       int               // the smallest -nodes the fault script can run on
	mttr           bool              // levels are MTTRs in seconds (≥ 0), not intensities in [0,1)
	variants       []string          // runs per level (nil: one); the script sees variant true after the first
	script         script            // the fault script every level runs
	regimes        []point           // a fixed ladder of named scripts run instead; -levels is refused
	invariant      *invariant.Config // the forwarding-trace invariant checker, if any
	axis, variant  string            // headers of the level and variant columns
	columns        []column          // the table
	xlabel, noPlot string            // the -plot x axis, or why -plot is refused
}

var modes = map[string]*mode{
	"loss": gray("backplane-0 frame loss", "0,0.05,0.1,0.2,0.4", lossScript),
	"flap": gray("rail-0 flap duty cycle", "0,0.2,0.4,0.6", flapScript),
	// recovery is "-" when no restart repaired anything — baselines
	// without repair accounting, or a node that never came back.
	"crash": {
		what:     "node-1 crash MTTR",
		levels:   "0,2,8",
		minNodes: 3, // the script faults node 2's NIC and torments node 1
		mttr:     true,
		variants: []string{"cold", "warm"},
		script:   crashScript,
		axis:     "mttr-s",
		variant:  "start",
		columns: []column{{"protocol", 10}, {"mttr-s", 8}, {"start", 6}, {"avail%", 8},
			{"crashes", 8}, {"repairs", 8}, {"recovery", 10}},
		xlabel: "mttr (s)",
	},
	// The head-to-head compares the whole static family against the
	// convergence protocols unless the user picked a lineup. Its drops
	// column counts tracked packets that vanished, excused or not, so
	// honest loss is distinguishable from misrouting (loops).
	"failover": {
		what:      "static fast-failover head-to-head",
		protocols: "failover-rotor,failover-arbor,failover-bounce,drs,linkstate,reactive",
		minNodes:  3, // the regimes fault node 2's NIC and torment node 1
		regimes:   failoverRegimes,
		invariant: &invariant.Config{},
		axis:      "regime",
		columns: []column{{"protocol", 15}, {"regime", 8}, {"avail%", 8}, {"loops", 6},
			{"revisits", 9}, {"drops", 6}, {"repairs", 8}},
		noPlot: "-plot needs a numeric intensity axis; -mode failover has none",
	},
	// The budget on/off comparison is a DRS feature; the baselines
	// ignore the overload tunable, so their row pairs would be
	// identical: the lineup is the DRS unless the user picked one.
	// shed and degraded sum the budget refusals and degraded-mode
	// entries across the cluster; max-rt / max-qry are the worst
	// single node's probe-retransmit and query-frame counts — the
	// numbers the budgets bound.
	"storm": {
		what:      "correlated-failure storm fraction",
		levels:    "0,0.25,0.5,0.75",
		protocols: "drs",
		minNodes:  4, // a fraction of the cluster crashes; someone must survive to route
		variants:  []string{"off", "on"},
		script:    stormScript,
		axis:      "fraction",
		variant:   "budget",
		columns: []column{{"protocol", 10}, {"fraction", 9}, {"budget", 7}, {"avail%", 8},
			{"crashes", 8}, {"repairs", 8}, {"shed", 6}, {"degraded", 9}, {"max-rt", 7}, {"max-qry", 8}},
		noPlot: "-plot cannot render storm mode's budget on/off row pairs",
	},
}

// gray builds a gray-failure mode: loss and flap differ only in what
// their script impairs.
func gray(what, levels string, s script) *mode {
	return &mode{
		what:     what,
		levels:   levels,
		minNodes: 2,
		script:   s,
		axis:     "intensity",
		columns: []column{{"protocol", 10}, {"intensity", 10}, {"avail%", 8}, {"flaps", 7},
			{"damped", 7}, {"repairs", 8}, {"mean-failover", 13}},
		xlabel: "intensity",
	}
}

// campaign parameterizes one sweep.
type campaign struct {
	mode      *mode
	protocols []string
	points    []point
	// base is every cell's spec before its protocol and fault script.
	base    runtime.ClusterSpec
	title   string
	workers int
}

// point is one step of a campaign's axis: a fault script at a level,
// labelled for the axis column.
type point struct {
	label  string
	level  float64
	script script
}

// cell is the outcome of one (protocol, point, variant) run.
type cell struct {
	protocol string
	level    float64
	variant  string
	avail    float64           // delivered fraction
	cols     map[string]string // every column's value, by header
}

func run(args []string, stdout, stderr io.Writer) int {
	var c campaign
	flags := flag.NewFlagSet("drschaos", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("mode", "loss", "campaign mode: loss (backplane frame loss), flap (NIC duty-cycle flapping), crash (daemon crash-restart MTTR sweep), failover (static fast-failover head-to-head across fault regimes) or storm (correlated-failure fraction sweep, budgets off vs on)")
	protocols := flags.String("protocols", "drs,reactive,linkstate,static", "protocols to torment, comma separated (failover mode defaults to the static family plus the convergence protocols)")
	levels := flags.String("levels", "", "intensity ladder, comma separated (loss probabilities, flap duty cycles or crash MTTRs in seconds; default per mode)")
	flags.IntVar(&c.base.Nodes, "nodes", 6, "cluster size")
	flags.DurationVar(&c.base.Duration, "duration", 60*time.Second, "simulated horizon per run")
	flags.Uint64Var(&c.base.Seed, "seed", 1, "simulation seed")
	damping := flags.Bool("damping", false, "enable DRS route-flap damping (linkmon defaults)")
	rto := flags.Bool("rto", false, "enable DRS adaptive probe deadlines (linkmon defaults)")
	flags.IntVar(&c.workers, "workers", 0, "worker goroutines (0 = all CPUs)")
	plot := flags.Bool("plot", false, "render availability as an ASCII chart instead of a table")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "drschaos: "+format+"\n", args...)
		return 1
	}

	m, ok := modes[*name]
	if !ok {
		return fail("unknown mode %q (want loss, flap, crash, failover or storm)", *name)
	}
	c.mode = m
	if m.regimes != nil && *levels != "" {
		return fail("-levels is not used by -mode %s (the regime ladder is fixed)", *name)
	}
	if *plot && m.xlabel == "" {
		return fail("%s", m.noPlot)
	}
	protocolList := cmp.Or(m.protocols, *protocols)
	flags.Visit(func(f *flag.Flag) {
		if f.Name == "protocols" {
			protocolList = *protocols
		}
	})
	for _, tok := range strings.Split(protocolList, ",") {
		p := strings.TrimSpace(tok)
		if _, err := runtime.Lookup(p); err != nil {
			return fail("%v", err)
		}
		c.protocols = append(c.protocols, p)
	}
	c.points = m.regimes
	for _, tok := range strings.Split(cmp.Or(*levels, m.levels), ",") {
		if m.regimes != nil {
			break
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		switch {
		case err != nil:
			return fail("bad intensity %q: %v", tok, err)
		case m.mttr && v < 0: // 0 means the node never restarts
			return fail("negative MTTR %v", v)
		case !m.mttr && (v < 0 || v >= 1):
			return fail("intensity %v outside [0,1)", v)
		}
		c.points = append(c.points, point{fmt.Sprintf("%.2f", v), v, m.script})
	}
	if c.base.Nodes < m.minNodes {
		return fail("mode %s needs at least %d nodes, have %d", *name, m.minNodes, c.base.Nodes)
	}
	if c.base.Duration <= 0 {
		return fail("duration must be positive")
	}
	c.base.Invariant = m.invariant
	opts := ""
	if *damping {
		c.base.Tunables.FlapDamping = linkmon.DefaultDamping()
		opts += ", damping on"
	}
	if *rto {
		c.base.Tunables.AdaptiveRTO = linkmon.DefaultRTO()
		opts += ", adaptive rto"
	}
	c.title = fmt.Sprintf("chaos campaign: %s (%d nodes, %v, seed %d%s)",
		m.what, c.base.Nodes, c.base.Duration, c.base.Seed, opts)
	// Ring traffic: every node talks to its successor, so every rail
	// segment carries load and any impairment is felt somewhere.
	for n := 0; n < c.base.Nodes; n++ {
		c.base.Flows = append(c.base.Flows, runtime.Flow{
			From: n, To: (n + 1) % c.base.Nodes, Interval: 250 * time.Millisecond,
		})
	}

	cells, err := c.sweep()
	if err == nil && *plot {
		err = c.writePlot(stdout, cells)
	} else if err == nil {
		err = c.writeTable(stdout, cells)
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
}

// script adds one cell's faults, and any tunable its fault model
// needs, to the cell's spec on the dual-rail cluster cl.
type script func(spec *runtime.ClusterSpec, cl topology.Cluster, level float64, variant bool)

// lossScript degrades rail 0's backplane for the whole run; rail 1
// stays clean, so a protocol that reroutes can dodge the loss.
func lossScript(spec *runtime.ClusterSpec, cl topology.Cluster, loss float64, _ bool) {
	if loss > 0 {
		spec.Episodes = append(spec.Episodes, chaos.Episode{
			Comp:   cl.Backplane(0),
			Impair: netsim.Impairment{Loss: loss},
		})
	}
}

// flapScript: node 1 loses its rail-1 NIC for good at 1 s, then its
// rail-0 NIC — the only path left — flaps with the level as duty
// cycle. Higher duty, longer outages, more route churn.
func flapScript(spec *runtime.ClusterSpec, cl topology.Cluster, duty float64, _ bool) {
	spec.Faults = append(spec.Faults, runtime.Fault{At: time.Second, Comp: cl.NIC(1, 1)})
	if duty > 0 {
		spec.Episodes = append(spec.Episodes, chaos.Episode{
			Comp:       cl.NIC(1, 0),
			Start:      5 * time.Second,
			FlapPeriod: 8 * time.Second,
			FlapDuty:   duty,
		})
	}
}

// crashScript: node 2 loses its rail-0 NIC at 1 s, so by the first
// crash the survivors hold non-default routes — exactly what a warm
// checkpoint preserves and a cold restart must relearn. Node 1 then
// crashes at 10 s and 35 s; the level is the MTTR in seconds (0 = the
// node never comes back, one crash only).
func crashScript(spec *runtime.ClusterSpec, cl topology.Cluster, level float64, warm bool) {
	spec.Faults = append(spec.Faults, runtime.Fault{At: time.Second, Comp: cl.NIC(2, 0)})
	mttr := time.Duration(level * float64(time.Second))
	crashAts := []time.Duration{10 * time.Second, 35 * time.Second}
	if mttr == 0 {
		crashAts = crashAts[:1]
	}
	for _, at := range crashAts {
		cs := chaos.Episode{Kind: chaos.Crash, A: 1, Start: at, Warm: warm && mttr > 0}
		if mttr > 0 {
			cs.Stop = at + mttr
		}
		spec.Episodes = append(spec.Episodes, cs)
	}
}

// stormScript: correlated failure storm. Rail 0's backplane dies at
// 5 s (healing at 20 s) and the level fraction of the cluster crashes
// with it, every victim restarting cold at the same instant — a
// synchronized rejoin burst on a degraded network, the worst case the
// budgets exist for. Adaptive RTO is always on (retransmit pressure is
// the point of the exercise); the variant turns on the
// overload-protection layer.
func stormScript(spec *runtime.ClusterSpec, cl topology.Cluster, fraction float64, budgets bool) {
	spec.Tunables.AdaptiveRTO = linkmon.DefaultRTO()
	spec.Tunables.Lifecycle = true // keep f=0 rows wire-comparable
	if budgets {
		spec.Tunables.Overload = overload.Default()
	}
	spec.Faults = append(spec.Faults,
		runtime.Fault{At: 5 * time.Second, Comp: cl.Backplane(0)},
		runtime.Fault{At: 20 * time.Second, Comp: cl.Backplane(0), Restore: true})
	k := int(fraction * float64(cl.Nodes))
	if fraction > 0 {
		k = max(k, 1)
	}
	k = min(k, cl.Nodes-1) // node 0 always survives to measure from
	for n := 1; n <= k; n++ {
		spec.Episodes = append(spec.Episodes, chaos.Episode{
			Kind: chaos.Crash, A: n, Start: 5 * time.Second, Stop: 8 * time.Second,
		})
	}
}

// failoverRegimes is the head-to-head ladder: every protocol faces the
// same five fault cocktails, from nothing at all to failures faster
// than any control plane converges. clean is the baseline row every
// other regime degrades from; in loss, rail 0's backplane drops a fifth
// of its frames for the whole run — a gray failure no carrier oracle
// can see; flap is the flap campaign's 0.4-duty cell.
var failoverRegimes = []point{
	{"clean", 0, lossScript},
	{"loss", 0.2, lossScript},
	{"flap", 0.4, flapScript},
	{"crash", 0, crashRegime},
	{"dynamic", 0, dynamicRegime},
}

// crashRegime: node 1's daemon fail-stops with its link lights on: the
// carrier oracle keeps vouching for a dead forwarder, the static family
// blackholes, and only a probing control plane notices. Node 2's
// rail-0 NIC dies first so the survivors hold non-trivial routes when
// the crash lands.
func crashRegime(spec *runtime.ClusterSpec, cl topology.Cluster, _ float64, _ bool) {
	spec.Faults = append(spec.Faults, runtime.Fault{At: time.Second, Comp: cl.NIC(2, 0)})
	spec.Episodes = append(spec.Episodes, chaos.Episode{
		Kind: chaos.Crash, A: 1, Start: 10 * time.Second, Stop: 18 * time.Second,
	})
}

// dynamicRegime is Dai & Foerster's adversary: two NICs on different
// nodes and rails flapping with incommensurate periods, so mixed-rail
// cuts open and close continuously — faster than DRS probes converge,
// slow enough that carrier sensing stays truthful.
func dynamicRegime(spec *runtime.ClusterSpec, cl topology.Cluster, _ float64, _ bool) {
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

// sweep runs the full (protocol × point × variant) grid on the
// parallel engine and reduces each run to a table cell.
func (c *campaign) sweep() ([]cell, error) {
	var specs []runtime.ClusterSpec
	var cells []cell
	for _, p := range c.protocols {
		for _, pt := range c.points {
			variants := c.mode.variants
			switch {
			case variants == nil:
				variants = []string{""}
			case c.mode.mttr && pt.level == 0:
				variants = variants[:1] // a node that never restarts has no warm start
			}
			for i, v := range variants {
				// Cells share base's read-only Flows; the scripts
				// append to fault lists that start out empty.
				spec := c.base
				spec.Protocol = p
				pt.script(&spec, topology.Dual(spec.Nodes), pt.level, i > 0)
				specs = append(specs, spec)
				cols := map[string]string{"protocol": p, c.mode.axis: pt.label, c.mode.variant: v}
				cells = append(cells, cell{protocol: p, level: pt.level, variant: v, cols: cols})
			}
		}
	}
	results, err := runtime.RunMany(context.Background(), specs, c.workers)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		cells[i].reduce(res)
	}
	return cells, nil
}

// reduce fills every column any mode's table shows from the cell's run.
func (cl *cell) reduce(res *runtime.Result) {
	sent, delivered := 0, 0
	for _, f := range res.Flows {
		sent += f.Sent
		delivered += f.Delivered
	}
	cl.avail = float64(delivered) / float64(max(sent, 1))
	var repair time.Duration
	for _, r := range res.Repairs {
		repair += r.Latency()
	}
	recovery, recovered := crashRecovery(res.Trace, 1)
	inv := cmp.Or(res.Invariant, &invariant.Report{}) // failover mode's checker
	// Total budget sheds and degraded-mode entries across the cluster,
	// and the worst single node's retransmit and query-frame counts.
	var shed, degraded, maxRetrans, maxQueries int64
	for _, m := range res.Counters {
		shed += m[routing.CtrProbeShed] + m[routing.CtrQueryShed]
		degraded += m[routing.CtrDegradedEnter]
		maxRetrans = max(maxRetrans, m[routing.CtrProbeRetransmits])
		maxQueries = max(maxQueries, m[routing.CtrQueriesSent])
	}
	for head, v := range map[string]any{
		"avail%":        fmt.Sprintf("%.2f", 100*cl.avail),
		"flaps":         res.Trace.Count(trace.KindLinkDown),
		"damped":        res.Trace.Count(trace.KindRouteDamped),
		"repairs":       len(res.Repairs),
		"mean-failover": mean(repair, len(res.Repairs)),
		"crashes":       res.Trace.Count(trace.KindNodeCrashed),
		"recovery":      mean(recovery, recovered),
		"shed":          shed,
		"degraded":      degraded,
		"max-rt":        maxRetrans,
		"max-qry":       maxQueries,
		"loops":         inv.Loops,
		"revisits":      inv.Revisits,
		"drops":         inv.Undelivered,
	} {
		cl.cols[head] = fmt.Sprint(v)
	}
}

// crashRecovery scans a run's trace for the crashed node's recovery
// latency: for each restart, the delay until the node's next repaired
// route (warm restores count — their route-installed events carry the
// restart's timestamp). Restarts that never repair a route before the
// next crash (or the horizon) are excluded from the total and count.
func crashRecovery(log *trace.Log, node int) (total time.Duration, recovered int) {
	restart := time.Duration(-1) // the restart still waiting for a route
	for _, ev := range log.Events() {
		switch {
		case ev.Node != node:
		case ev.Kind == trace.KindNodeRestarted:
			restart = ev.At
		case ev.Kind == trace.KindRouteInstalled && restart >= 0:
			total += ev.At - restart
			recovered++
			restart = -1
		case ev.Kind == trace.KindNodeCrashed:
			restart = -1 // died again before repairing anything
		}
	}
	return total, recovered
}

// mean renders total/n as a latency, "-" when n is 0.
func mean(total time.Duration, n int) string {
	if n == 0 {
		return "-"
	}
	return (total / time.Duration(n)).Round(time.Millisecond).String()
}

// column is one table column: a header and the width every value in
// it is right-aligned to.
type column struct {
	head  string
	width int
}

func (c *campaign) writeTable(w io.Writer, cells []cell) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", c.title)
	row := func(value func(head string) string) {
		sep := ""
		for _, col := range c.mode.columns {
			fmt.Fprintf(&b, "%s%*s", sep, col.width, value(col.head))
			sep = " "
		}
		b.WriteByte('\n')
	}
	row(func(head string) string { return head })
	for _, cl := range cells {
		row(func(head string) string { return cl.cols[head] })
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePlot charts availability against the level: one series per
// protocol and variant, in the order the sweep first meets them.
func (c *campaign) writePlot(w io.Writer, cells []cell) error {
	var series []asciiplot.Series
	for _, cl := range cells {
		name := cl.protocol
		if cl.variant != "" {
			name += "(" + cl.variant + ")"
		}
		k := slices.IndexFunc(series, func(s asciiplot.Series) bool { return s.Name == name })
		if k < 0 {
			k = len(series)
			series = append(series, asciiplot.Series{Name: name})
		}
		series[k].X = append(series[k].X, cl.level)
		series[k].Y = append(series[k].Y, 100*cl.avail)
	}
	return asciiplot.Render(w, asciiplot.Config{
		Title:  c.title,
		XLabel: c.mode.xlabel,
		YLabel: "availability (%)",
	}, series...)
}
