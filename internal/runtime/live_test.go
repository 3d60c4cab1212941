package runtime

import (
	"strings"
	"testing"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/core"
	"drsnet/internal/routing"
	"drsnet/internal/simtime"
	"drsnet/internal/trace"
	"drsnet/internal/transport"
)

// liveSpec is the shared 3-node fixture for the hermetic daemon
// tests: DRS over dual rails with a fast probe cadence and the
// crash–restart lifecycle enabled.
func liveSpec(log *trace.Log) ClusterSpec {
	return ClusterSpec{
		Nodes:    3,
		Protocol: ProtoDRS,
		Duration: 2 * time.Second,
		Tunables: Tunables{
			ProbeInterval: 50 * time.Millisecond,
			MissThreshold: 2,
			Lifecycle:     true,
		},
		Trace: log,
	}
}

// buildLiveCluster assembles and starts one router per node over the
// shared in-memory transport, all at incarnation 1.
func buildLiveCluster(t *testing.T, spec ClusterSpec, mem *transport.Mem, clk clock.Clock) []routing.Router {
	t.Helper()
	routers := make([]routing.Router, spec.Nodes)
	for n := range routers {
		r, err := BuildNode(spec, n, mem.Node(n), clk, 1, nil)
		if err != nil {
			t.Fatalf("node %d: %v", n, err)
		}
		if err := r.Start(); err != nil {
			t.Fatalf("node %d start: %v", n, err)
		}
		routers[n] = r
	}
	return routers
}

func daemonStatus(t *testing.T, r routing.Router) core.Status {
	t.Helper()
	d, ok := r.(*core.Daemon)
	if !ok {
		t.Fatalf("router is %T, want *core.Daemon", r)
	}
	return d.Status()
}

func allDirect(s core.Status) bool {
	if len(s.Peers) == 0 {
		return false
	}
	for _, p := range s.Peers {
		if p.Route != "direct" {
			return false
		}
	}
	return true
}

func peerEntry(t *testing.T, s core.Status, peer int) core.PeerStatus {
	t.Helper()
	for _, p := range s.Peers {
		if p.Peer == peer {
			return p
		}
	}
	t.Fatalf("node %d status has no entry for peer %d: %+v", s.Node, peer, s.Peers)
	return core.PeerStatus{}
}

// TestHermeticInPhaseRounds runs three daemons whose 50 ms probe
// rounds start together on a live clock, over the in-memory
// transport. A request and the answering end's round then fall due at
// nearly the same instant, and scheduling jitter decides which comes
// first; that may cost the answering end a probe, never a link.
func TestHermeticInPhaseRounds(t *testing.T) {
	clk := clock.NewWall()
	defer clk.Stop()
	mem := transport.NewMem(3, 2, clk, 200*time.Microsecond)
	log := trace.NewLog(0)
	routers := buildLiveCluster(t, liveSpec(log), mem, clk)
	time.Sleep(5 * time.Second)
	for _, r := range routers {
		r.Stop()
	}
	if n := log.Count(trace.KindLinkDown); n != 0 {
		t.Fatalf("%d link-down events on a fault-free network: %v", n, log.Filter(trace.KindLinkDown))
	}
	// Node 2 answers both its pairs: past its first round it probes a
	// peer only after a round in which no request arrived. Probing
	// every peer on both rails would take 400 probes in 100 rounds.
	if sent := routers[2].Metrics().Counter(routing.CtrProbesSent).Value(); sent >= 200 {
		t.Fatalf("node 2 sent %d probes in 100 rounds; it should mostly answer", sent)
	}
}

// TestHermeticLifecycle is the satellite's in-process version of the
// 3-process smoke test: three DRS daemons over the in-memory
// transport and a drained wall clock converge, one fail-stops without
// a goodbye, the survivors mark every rail to it down, and a warm
// restart from its checkpoint rejoins at incarnation 2 — all under
// plain `go test`, no sockets, no goroutine races, no real time.
func TestHermeticLifecycle(t *testing.T) {
	clk := clock.NewManual()
	mem := transport.NewMem(3, 2, clk, 200*time.Microsecond)
	spec := liveSpec(nil)
	routers := buildLiveCluster(t, spec, mem, clk)

	// Converge: a handful of probe rounds settles every route direct.
	clk.Advance(500 * time.Millisecond)
	for n, r := range routers {
		if s := daemonStatus(t, r); !allDirect(s) || s.Incarnation != 1 {
			t.Fatalf("node %d not converged: %+v", n, s)
		}
	}

	// Crash node 2: snapshot the warm-start image the moment before
	// the process dies (the periodic checkpointer's view), then
	// blackhole its NICs and stop the router without a goodbye.
	cp := routers[2].(*core.Daemon).Checkpoint()
	mem.FailNode(2)
	routers[2].Stop()

	// The survivors' probes time out; every rail to node 2 goes down
	// and its direct route is demoted.
	clk.Advance(500 * time.Millisecond)
	for _, n := range []int{0, 1} {
		s := daemonStatus(t, routers[n])
		p := peerEntry(t, s, 2)
		if p.Route == "direct" {
			t.Fatalf("node %d still routes direct to crashed node 2: %+v", n, p)
		}
		for rail, r := range p.Rails {
			if r.Up {
				t.Fatalf("node %d rail %d to crashed node 2 still up", n, rail)
			}
		}
	}

	// Warm restart: incarnation 2 from the checkpoint. The rejoin
	// broadcast purges the previous life; probes re-establish direct
	// routes on both sides.
	mem.RestoreNode(2)
	r2, err := BuildNode(spec, 2, mem.Node(2), clk, cp.Incarnation+1, cp)
	if err != nil {
		t.Fatalf("warm restart: %v", err)
	}
	if err := r2.Start(); err != nil {
		t.Fatalf("warm restart start: %v", err)
	}
	routers[2] = r2

	clk.Advance(500 * time.Millisecond)
	if s := daemonStatus(t, r2); s.Incarnation != 2 || !allDirect(s) {
		t.Fatalf("restarted node not converged at incarnation 2: %+v", s)
	}
	for _, n := range []int{0, 1} {
		s := daemonStatus(t, routers[n])
		p := peerEntry(t, s, 2)
		if p.Route != "direct" || p.Incarnation != 2 {
			t.Fatalf("node %d did not see the warm rejoin: %+v", n, p)
		}
	}
	for _, r := range routers {
		r.Stop()
	}
}

// parityRun drives one fixed NIC-failure episode over the in-memory
// transport against the given clock and returns the full protocol
// event sequence. advanceTo runs the clock's timers up to an absolute
// virtual instant.
func parityRun(t *testing.T, clk clock.Clock, advanceTo func(time.Duration)) []string {
	t.Helper()
	log := trace.NewLog(4096)
	spec := liveSpec(log)
	mem := transport.NewMem(3, 2, clk, 200*time.Microsecond)
	routers := buildLiveCluster(t, spec, mem, clk)

	advanceTo(325 * time.Millisecond)
	mem.SetNIC(1, 0, false)
	advanceTo(1 * time.Second)
	mem.SetNIC(1, 0, true)
	advanceTo(2 * time.Second)

	for _, r := range routers {
		r.Stop()
	}
	events := log.Events()
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.String()
	}
	if len(out) == 0 {
		t.Fatal("scenario produced no protocol events")
	}
	return out
}

// TestClockParity is the regression behind the clock seam: the same
// scenario driven by the simulator's scheduler (via the simtime.Clock
// adapter) and by a drained wall clock must produce the identical
// protocol event sequence. Both implementations execute timers in
// (deadline, scheduling-order) total order, so any divergence here
// means one of them broke the determinism contract.
func TestClockParity(t *testing.T) {
	sched := simtime.NewScheduler()
	simEvents := parityRun(t, simtime.Clock{Sched: sched}, func(to time.Duration) {
		sched.RunUntil(simtime.Time(to))
	})

	wall := clock.NewManual()
	wallEvents := parityRun(t, wall, func(to time.Duration) {
		wall.RunUntil(to)
	})

	if len(simEvents) != len(wallEvents) {
		t.Fatalf("event count diverged: sim %d, wall %d", len(simEvents), len(wallEvents))
	}
	for i := range simEvents {
		if simEvents[i] != wallEvents[i] {
			t.Fatalf("event %d diverged:\n sim:  %s\n wall: %s", i, simEvents[i], wallEvents[i])
		}
	}
	// The episode must actually exercise the protocol: a link-down on
	// the killed NIC and a recovery after its restore.
	var sawDown, sawUp bool
	for _, e := range simEvents {
		if !sawDown && strings.Contains(e, "link-down") {
			sawDown = true
		}
		if sawDown && strings.Contains(e, "link-up") {
			sawUp = true
		}
	}
	if !sawDown || !sawUp {
		t.Fatalf("scenario missed the fault episode (down=%v up=%v) in %d events", sawDown, sawUp, len(simEvents))
	}
}
