package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"net"
	goruntime "runtime"
	"sort"
	"sync/atomic"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/experiments"
	"drsnet/internal/montecarlo"
	"drsnet/internal/nemesis"
	"drsnet/internal/rng"
	"drsnet/internal/routing"
	"drsnet/internal/runtime"
	"drsnet/internal/topology"
	"drsnet/internal/transport"
)

// sizes fixes every workload's job size. The benchmark runs fullSizes;
// the package test runs the same code at about 1/20 of it.
type sizes struct {
	dualNodes    int
	dualHorizon  time.Duration // fault at 1/3, restore at 2/3
	fatK         int
	fatHorizon   time.Duration // fault at 1/3, restore at 2/3
	covNodes     int
	covSeeds     int
	nemSchedules int
	mcK          int
	mcIterations int64
	liveFrames   int
	liveWarmup   time.Duration
	// ladderDiv divides every ladder iteration count.
	ladderDiv int
}

var fullSizes = sizes{
	dualNodes:    128,
	dualHorizon:  120 * time.Second,
	fatK:         12,
	fatHorizon:   3 * time.Second,
	covNodes:     12,
	covSeeds:     2,
	nemSchedules: 450,
	mcK:          36,
	mcIterations: 12288,
	liveFrames:   500000,
	liveWarmup:   500 * time.Millisecond,
	ladderDiv:    1,
}

// runResult is what one execution of a workload reports.
type runResult struct {
	SetupS float64 `json:"setup_s"`
	// ReadyUnixNano is the wall clock when set-up ended, from which the
	// parent of a child process computes set-up since the spawn.
	ReadyUnixNano int64   `json:"ready_unix_nano"`
	WallS         float64 `json:"wall_s"` // the timed section
	Work          float64 `json:"work"`   // units of work done in it
	Mallocs       uint64  `json:"mallocs"`
	Attempted     int64   `json:"attempted"`
	Failed        int64   `json:"failed"`
	Digest        string  `json:"digest"`
	// Layer holds the per-layer values read at layer boundaries; only
	// a traced run fills it.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Info holds figures printed beside the metrics but not gated.
	Info map[string]float64 `json:"info,omitempty"`
}

// workload is one named set of inputs.
type workload struct {
	name string
	// unit is the unit of work counted by work_per_s.
	unit string
	why  string
	run  func(rc *runCtx) (*runResult, error)
}

var workloads = []workload{
	{"dualrail_n128", "sim_s",
		"the paper's dual-rail cluster at Figure 1's right edge: the O(N^2) probe mesh loads core, linkmon, wire, icmp and shared-medium broadcast",
		runDualRail},
	{"fattree_k12", "sim_s",
		"432-host fat-tree, multi-hop store-and-forward with a deep event queue: simtime and FabricNet.hop dominate",
		runFatTree},
	{"coverage_n12", "runs",
		"702 short-lived 12-node clusters: Build, per-cluster table construction and teardown dominate, so work moved into construction shows as a loss",
		runCoverage},
	{"nemesis_n5", "runs",
		"450 fault schedules on the second engine (manual clock.Wall, transport.Mem and Faults): bypasses simtime and netsim entirely",
		runNemesis},
	{"mc_fattree_k36", "trials",
		"Monte Carlo survivability of an 11664-host fat-tree: touches only topology, conn, rng and montecarlo, the control no simulator change may move",
		runMCFatTree},
	{"live_udp3", "frames",
		"three drsd-style nodes on loopback UDP with the live wall clock, one closed-loop client sending 64-byte datagrams: the operator's view of the core data path",
		runLiveUDP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timedSection measures the wall time and the allocation count of the
// calls between begin and end. On a traced run it also takes the CPU
// profile and the MemStats deltas of the same interval.
type timedSection struct {
	tr *tracer
	t0 time.Time
	m0 goruntime.MemStats
}

func beginTimed(tr *tracer) *timedSection {
	ts := &timedSection{tr: tr}
	goruntime.ReadMemStats(&ts.m0)
	tr.startProfile()
	ts.t0 = time.Now()
	return ts
}

func (ts *timedSection) end(res *runResult) {
	res.WallS = time.Since(ts.t0).Seconds()
	ts.tr.stopProfile()
	var m1 goruntime.MemStats
	goruntime.ReadMemStats(&m1)
	// Counted from the start of the process, not of the timed section:
	// mc_fattree_k36 allocates some twenty objects while timed, and a
	// count that small cannot be held to a bound.
	res.Mallocs = m1.Mallocs
	if ts.tr != nil {
		res.layer("run.wall_s", res.WallS)
		res.layer("run.alloc_mb", float64(m1.TotalAlloc-ts.m0.TotalAlloc)/(1<<20))
		res.layer("run.gc_cycles", float64(m1.NumGC-ts.m0.NumGC))
		res.layer("run.gc_pause_ms", float64(m1.PauseTotalNs-ts.m0.PauseTotalNs)/1e6)
	}
}

func (r *runResult) layer(name string, v float64) {
	if r.Layer == nil {
		r.Layer = make(map[string]float64)
	}
	r.Layer[name] = v
}

func (r *runResult) info(name string, v float64) {
	if r.Info == nil {
		r.Info = make(map[string]float64)
	}
	r.Info[name] = v
}

// digest hashes simulated statistics in a fixed textual form, so that
// two runs agree exactly when nothing observable differs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// ---- dualrail_n128 and fattree_k12 ----------------------------------

func runDualRail(rc *runCtx) (*runResult, error) {
	seed, sz, tr := rc.seed, rc.sz, rc.tr
	sp := tr.begin("generate")
	r := rng.New(seed)
	horizon := sz.dualHorizon
	// The seed places the flow's phase and the fault inside their
	// periods; the job's cost does not depend on either.
	failAt := horizon/3 + time.Duration(r.Intn(1000))*time.Millisecond
	cl := topology.Dual(sz.dualNodes)
	spec := runtime.ClusterSpec{
		Nodes:    sz.dualNodes,
		Seed:     seed,
		Duration: horizon,
		Tunables: runtime.Tunables{ProbeInterval: time.Second},
		Flows:    []runtime.Flow{seededFlow(r, 0, 1, horizon)},
		Faults: []runtime.Fault{
			{At: failAt, Comp: cl.NIC(1, 0)},
			{At: failAt + horizon/3, Comp: cl.NIC(1, 0), Restore: true},
		},
	}
	sp.end()
	return runCluster(rc, spec, failAt, time.Second)
}

func runFatTree(rc *runCtx) (*runResult, error) {
	seed, sz, tr := rc.seed, rc.sz, rc.tr
	sp := tr.begin("generate")
	r := rng.New(seed)
	horizon := sz.fatHorizon
	// The fault falls after the probe round that starts at horizon/3 has
	// drained: how many frames a fault catches in flight, and with them
	// the allocation count, would otherwise depend on the seed.
	failAt := horizon/3 + 50*time.Millisecond + time.Duration(r.Intn(200))*time.Millisecond
	fab, err := topology.FatTree(sz.fatK)
	if err != nil {
		return nil, err
	}
	// The first aggregation switch above host 0's edge switch.
	agg := -1
	fab.SwitchNeighbors(fab.HostSwitch(0, 0), func(neighbor, trunk int) {
		if agg < 0 {
			agg = neighbor
		}
	})
	spec := runtime.ClusterSpec{
		Topology: runtime.TopologySpec{Kind: "fatTree", K: sz.fatK},
		Seed:     seed,
		Duration: horizon,
		Tunables: runtime.Tunables{ProbeInterval: 500 * time.Millisecond},
		Flows:    []runtime.Flow{seededFlow(r, 0, fab.Hosts()-1, horizon)},
		Faults: []runtime.Fault{
			{At: failAt, Comp: fab.Switch(agg)},
			{At: failAt + horizon/3, Comp: fab.Switch(agg), Restore: true},
		},
	}
	sp.end()
	return runCluster(rc, spec, failAt, 250*time.Millisecond)
}

// seededFlow is one 64-byte datagram every 10 ms, its phase and body
// drawn from r. It stops half a second before the horizon so every
// message sent can arrive.
func seededFlow(r *rng.Source, from, to int, horizon time.Duration) runtime.Flow {
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	return runtime.Flow{
		From:     from,
		To:       to,
		Interval: 10 * time.Millisecond,
		Start:    10*time.Millisecond + time.Duration(r.Intn(10000))*time.Microsecond,
		Stop:     horizon - 500*time.Millisecond,
		Payload:  payload,
	}
}

// runCluster builds the spec's cluster and times Cluster.RunUntil to
// the horizon. A traced run advances in slices and reads the event and
// frame counters at each boundary; slicing does not reorder events.
func runCluster(rc *runCtx, spec runtime.ClusterSpec, failAt, slice time.Duration) (*runResult, error) {
	tr := rc.tr
	sp := tr.begin("build")
	c, err := runtime.Build(spec)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("start")
	err = c.Start()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("schedule")
	c.ScheduleFlows()
	c.ScheduleFaults()
	sp.end()

	res := rc.ready(spec.Duration.Seconds())
	if rc.setupOnly {
		return res, nil
	}
	ts := beginTimed(tr)
	if tr == nil {
		c.RunUntil(spec.Duration)
	} else {
		pendingMax := 0
		for at := slice; ; at += slice {
			if at > spec.Duration {
				at = spec.Duration
			}
			sp = tr.begin("advance")
			c.RunUntil(at)
			sp.end()
			pending := c.Scheduler().Pending()
			if pending > pendingMax {
				pendingMax = pending
			}
			sp.count("events", float64(c.Scheduler().Executed()))
			sp.count("pending", float64(pending))
			sp.count("frames_sent", float64(netStats(c).sent))
			if at == spec.Duration {
				break
			}
		}
		res.layer("simtime.pending_max", float64(pendingMax))
	}
	ts.end(res)

	sp = tr.begin("stop")
	c.StopRouters()
	sp.end()
	sp = tr.begin("finish")
	out := c.Finish()
	sp.end()

	// A message is a failed operation when it is lost outside the DRS's
	// detection window: losing what was sent between the fault and its
	// detection is the protocol's specified behaviour.
	tun := c.Spec().Tunables
	window := time.Duration(tun.MissThreshold+1) * tun.ProbeInterval
	d := newDigest()
	var lost, inWindow int64
	for _, f := range out.Flows {
		res.Attempted += int64(f.Sent)
		lost += int64(f.Sent - f.Delivered)
		first := f.Flow.Start
		for i := 0; i < f.Sent; i++ {
			if at := first + time.Duration(i)*f.Flow.Interval; at >= failAt && at < failAt+window {
				inWindow++
			}
		}
		d.add("flow %d>%d sent=%d delivered=%d", f.Flow.From, f.Flow.To, f.Sent, f.Delivered)
		for _, at := range f.Deliveries {
			d.add("%d", at)
		}
	}
	if lost > inWindow {
		res.Failed = lost - inWindow
	}
	res.info("lost_in_window", float64(lost-res.Failed))
	for _, rep := range out.Repairs {
		d.add("repair %+v", rep)
	}
	totals := make(map[string]int64)
	for _, node := range out.Counters {
		for name, v := range node {
			totals[name] += v
		}
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.add("%s=%d", name, totals[name])
	}
	for _, u := range out.Utilization {
		d.add("util %.9g", u)
	}
	res.Digest = d.sum()

	if tr != nil {
		events := float64(c.Scheduler().Executed())
		st := netStats(c)
		res.layer("simtime.events", events)
		res.layer("simtime.ns_per_event", res.WallS*1e9/events)
		res.layer("netsim.frames_sent", float64(st.sent))
		res.layer("netsim.frames_delivered", float64(st.delivered))
		res.layer("netsim.frames_dropped", float64(st.dropped))
		res.layer("netsim.events_per_frame", events/float64(st.sent))
		res.layer("netsim.rail_utilization", out.Utilization[0])
		res.layer("core.probes_sent", float64(totals[routing.CtrProbesSent]))
		res.layer("core.probe_replies", float64(totals[routing.CtrProbeReplies]))
		res.layer("core.data_sent", float64(totals[routing.CtrDataSent]))
		res.layer("core.data_delivered", float64(totals[routing.CtrDataDelivered]))
		res.layer("core.data_forwarded", float64(totals[routing.CtrDataForwarded]))
		res.layer("core.repairs", float64(len(out.Repairs)))
	}
	return res, nil
}

// frameStats is the network's frame accounting summed over rails.
type frameStats struct {
	sent, delivered, dropped int64
}

func netStats(c *runtime.Cluster) frameStats {
	rails := c.Spec().Rails
	if c.Network() == nil {
		rails = 1 // a fabric keeps one counter set for all ports
	}
	var out frameStats
	for rail := 0; rail < rails; rail++ {
		s := c.Net().Stats(rail)
		out.sent += s.FramesSent
		out.delivered += s.FramesDelivered
		out.dropped += s.DroppedTxNIC + s.DroppedSegment + s.DroppedRxNIC + s.DroppedLoss +
			s.DroppedImpaired + s.DroppedNodeDown + s.DroppedPartitioned
	}
	return out
}

// ---- coverage_n12 ---------------------------------------------------

func runCoverage(rc *runCtx) (*runResult, error) {
	seed, sz, tr := rc.seed, rc.sz, rc.tr
	sp := tr.begin("generate")
	r := rng.New(seed)
	cfgs := make([]experiments.CoverageConfig, sz.covSeeds)
	for i := range cfgs {
		cfg := experiments.DefaultCoverageConfig()
		cfg.Nodes = sz.covNodes
		cfg.Workers = 1
		cfg.Seed = seed + uint64(i)
		// The seed places the fault inside the probe period.
		cfg.FailAt += time.Duration(r.Intn(500)) * time.Millisecond
		cfgs[i] = cfg
	}
	comps := topology.Dual(sz.covNodes).Components()
	wantScenarios := comps + comps*(comps-1)/2
	sp.end()

	res := rc.ready(0)
	if rc.setupOnly {
		return res, nil
	}
	d := newDigest()
	var inconsistent int
	ts := beginTimed(tr)
	for _, cfg := range cfgs {
		sp = tr.begin("fault_coverage")
		out, err := experiments.FaultCoverage(cfg)
		sp.end()
		if err != nil {
			return nil, err
		}
		if out.Total.Scenarios != wantScenarios {
			return nil, fmt.Errorf("coverage: %d scenarios, want %d", out.Total.Scenarios, wantScenarios)
		}
		res.Work += float64(out.Total.Scenarios)
		inconsistent += out.Total.Inconsistent
		d.add("total %+v", out.Total)
		classes := make([]string, 0, len(out.Classes))
		for class := range out.Classes {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			d.add("%s %+v", class, out.Classes[class])
		}
	}
	ts.end(res)
	res.Attempted = int64(res.Work)
	res.Failed = int64(inconsistent)
	res.Digest = d.sum()
	if tr != nil {
		res.layer("experiments.coverage_scenarios", res.Work)
		res.layer("experiments.coverage_inconsistent", float64(inconsistent))
	}
	return res, nil
}

// ---- nemesis_n5 -----------------------------------------------------

func runNemesis(rc *runCtx) (*runResult, error) {
	seed, sz, tr := rc.seed, rc.sz, rc.tr
	generate := tr.begin("generate")
	schedules := make([]nemesis.Schedule, sz.nemSchedules)
	for i := range schedules {
		schedules[i] = nemesis.Generate(seed+uint64(i), nemesis.Config{Nodes: 5})
	}
	generate.end()

	res := rc.ready(float64(len(schedules)))
	if rc.setupOnly {
		return res, nil
	}
	d := newDigest()
	var violations int
	var runMs []float64
	ts := beginTimed(tr)
	for i, s := range schedules {
		sp := tr.begin("nemesis_run")
		out, err := nemesis.Run(s)
		sp.end()
		res.Attempted++
		if err != nil {
			res.Failed++
			d.add("%d error %v", i, err)
			continue
		}
		// Violations the fuzzer finds are results, not failures.
		violations += len(out.Violations)
		d.add("%d %d", i, len(out.Violations))
		for _, v := range out.Violations {
			d.add("%s", v)
		}
		if tr != nil {
			runMs = append(runMs, sp.seconds()*1e3)
		}
	}
	ts.end(res)
	res.Digest = d.sum()
	res.info("violations", float64(violations))
	if tr != nil {
		sort.Float64s(runMs)
		res.layer("nemesis.generate_us", generate.seconds()*1e6/float64(len(schedules)))
		res.layer("nemesis.run_ms_p50", quantile(runMs, 0.5))
		res.layer("nemesis.run_ms_max", quantile(runMs, 1))
		res.layer("nemesis.violations", float64(violations))
	}
	return res, nil
}

// ---- mc_fattree_k36 -------------------------------------------------

func runMCFatTree(rc *runCtx) (*runResult, error) {
	seed, sz, tr := rc.seed, rc.sz, rc.tr
	sp := tr.begin("fat_tree")
	fab, err := topology.FatTree(sz.mcK)
	sp.end()
	if err != nil {
		return nil, err
	}
	cfg := montecarlo.FabricConfig{
		Fabric:     fab,
		Q:          0.01,
		Iterations: sz.mcIterations,
		Seed:       seed,
		Workers:    1,
		PairA:      0,
		PairB:      fab.Hosts() - 1,
	}
	res := rc.ready(float64(cfg.Iterations))
	if rc.setupOnly {
		return res, nil
	}
	ts := beginTimed(tr)
	sp = tr.begin("estimate_fabric")
	out, err := montecarlo.EstimateFabric(cfg)
	sp.end()
	ts.end(res)
	if err != nil {
		return nil, err
	}
	res.Attempted = out.Iterations
	d := newDigest()
	d.add("successes %d of %d", out.Successes, out.Iterations)
	res.Digest = d.sum()
	res.info("p_success", out.P)
	return res, nil
}

// ---- live_udp3 ------------------------------------------------------

const (
	liveNodes       = 3
	liveRails       = 2
	liveLossTimeout = 100 * time.Millisecond
)

// liveNode is one node assembled the way cmd/drsd assembles itself.
type liveNode struct {
	tr     *transport.UDP
	clk    *clock.Wall
	router routing.Router
}

func (n *liveNode) stop() {
	if n.router != nil {
		n.router.Stop()
	}
	n.tr.Close()
	n.clk.Stop()
}

// reservePorts finds free loopback ports by binding port 0 and closing
// again: transport.UDP does not expose the address it bound.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		addrs[i] = conn.LocalAddr().String()
		// Held until all are reserved, so no port is handed out twice.
		defer conn.Close()
	}
	return addrs, nil
}

func startLiveNodes(spec runtime.ClusterSpec) ([]*liveNode, error) {
	addrs, err := reservePorts(liveNodes * liveRails)
	if err != nil {
		return nil, err
	}
	peers := make([][]string, liveNodes)
	for n := range peers {
		peers[n] = addrs[n*liveRails : (n+1)*liveRails]
	}
	var nodes []*liveNode
	stopAll := func() {
		for _, n := range nodes {
			n.stop()
		}
	}
	for n := 0; n < liveNodes; n++ {
		tr, err := transport.NewUDP(transport.UDPConfig{Node: n, Listen: peers[n], Peers: peers})
		if err != nil {
			stopAll()
			return nil, err
		}
		node := &liveNode{tr: tr, clk: clock.NewWall()}
		nodes = append(nodes, node)
		node.router, err = runtime.BuildNode(spec, n, tr, node.clk, 0, nil)
		if err != nil {
			stopAll()
			return nil, err
		}
		tr.SetMetrics(node.router.Metrics())
	}
	for _, n := range nodes {
		if err := n.router.Start(); err != nil {
			stopAll()
			return nil, err
		}
	}
	return nodes, nil
}

func runLiveUDP(rc *runCtx) (*runResult, error) {
	seed, sz, tr := rc.seed, rc.sz, rc.tr
	sp := tr.begin("generate")
	r := rng.New(seed)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	sp.end()

	sp = tr.begin("bind_build")
	nodes, err := startLiveNodes(runtime.ClusterSpec{
		Nodes:    liveNodes,
		Rails:    liveRails,
		Tunables: runtime.Tunables{ProbeInterval: 50 * time.Millisecond},
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	defer func() {
		sp := tr.begin("stop")
		for _, n := range nodes {
			n.stop()
		}
		sp.end()
	}()

	// The deliver callback runs on node 1's receive goroutine. It times
	// the datagram and wakes the client, which then sends the next one.
	type arrival struct {
		seq uint64
		lat time.Duration
		ok  bool // body arrived intact
	}
	arrivals := make(chan arrival, 1)
	var sentAt atomic.Int64 // nanoseconds since base
	base := time.Now()
	nodes[1].router.SetDeliverFunc(func(src int, data []byte) {
		lat := time.Since(base) - time.Duration(sentAt.Load())
		a := arrival{lat: lat}
		if len(data) == len(payload) {
			a.seq = binary.BigEndian.Uint64(data)
			a.ok = src == 0 && string(data[8:]) == string(payload[8:])
		}
		select {
		case arrivals <- a:
		default: // a duplicate of a datagram the client gave up on
		}
	})

	sp = tr.begin("warmup")
	time.Sleep(sz.liveWarmup)
	sp.end()

	res := rc.ready(float64(sz.liveFrames))
	if rc.setupOnly {
		return res, nil
	}
	lats := make([]float64, 0, sz.liveFrames)
	timer := time.NewTimer(liveLossTimeout)
	defer timer.Stop()
	buf := make([]byte, len(payload))
	copy(buf, payload)
	ts := beginTimed(tr)
	sp = tr.begin("send_loop")
	for seq := uint64(1); seq <= uint64(sz.liveFrames); seq++ {
		res.Attempted++
		binary.BigEndian.PutUint64(buf, seq)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(liveLossTimeout)
		sentAt.Store(int64(time.Since(base)))
		if err := nodes[0].router.SendData(1, buf); err != nil {
			res.Failed++
			continue
		}
	wait:
		for {
			select {
			case a := <-arrivals:
				if a.seq != seq {
					continue // a late arrival of an earlier datagram
				}
				if !a.ok {
					res.Failed++
				} else {
					lats = append(lats, float64(a.lat)/1e3)
				}
				break wait
			case <-timer.C:
				res.Failed++
				break wait
			}
		}
	}
	sp.end()
	ts.end(res)

	d := newDigest()
	d.add("payload %x delivered %d", payload[8:], len(lats))
	res.Digest = d.sum()
	sort.Float64s(lats)
	p50, p99 := quantile(lats, 0.5), quantile(lats, 0.99)
	res.info("latency_p50_us", p50)
	res.info("latency_p99_us", p99)
	res.info("latency_samples", float64(len(lats)))
	if tr != nil {
		res.layer("live.latency_p50_us", p50)
		res.layer("live.latency_p99_us", p99)
	}
	return res, nil
}

// quantile returns the q-quantile of sorted values (nearest rank), or
// 0 when there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
