package core

import (
	"reflect"
	"testing"
	"time"

	"drsnet/internal/netsim"
	"drsnet/internal/routing/wire"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// monitored returns d's monitored peers in ascending order.
func monitored(d *Daemon) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int
	for p := 0; p < d.links.Nodes(); p++ {
		if d.links.Monitored(p) {
			out = append(out, p)
		}
	}
	return out
}

func TestStaticSeedsNeverForgotten(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Monitor = []int{1} // node 1 is configured
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(3), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.Clock{Sched: sched}
	d, err := New(netsim.NewTransport(net, 0), clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	// Nobody else runs: node 1 is silent forever, but being configured
	// it must stay monitored (just marked down).
	sched.RunUntil(simtime.Time(10 * time.Second))
	if peers := monitored(d); len(peers) != 1 || peers[0] != 1 {
		t.Fatalf("peers = %v, want the configured peer", peers)
	}
	if d.LinkUp(1, 0) || d.LinkUp(1, 1) {
		t.Fatal("silent configured peer should be marked down")
	}
}

// TestStaticModeIgnoresHellos: the host list is authoritative, as
// deployed. Control types 3, 4 and 6 (the retired hello, goodbye and
// incarnation-stamped hello) are unknown types: a well-formed frame of
// each, from a monitored peer and from one outside the host list, on
// every rail, leaves the monitored set, the routes, the counters, the
// checkpointed view and the trace exactly as a run without them, both
// at the instant they arrive and after further rounds.
func TestStaticModeIgnoresHellos(t *testing.T) {
	retired := [][]byte{
		{3},             // hello
		{4},             // goodbye
		{6, 0, 0, 0, 9}, // hello stamped with incarnation 9
	}
	type outcome struct {
		peers  []int
		routes []Route
		ctrs   map[string]int64
		cp     *Checkpoint
		events []trace.Event
	}
	run := func(inject bool) []outcome {
		cfg := DefaultConfig()
		cfg.Incarnation = 1
		// Node 0 monitors only node 1; node 2 runs but is outside
		// node 0's host list.
		c := buildClusterShape(t, topology.Dual(3), cfg, func(node int, cfg *Config) {
			cfg.Monitor = map[int][]int{0: {1}, 1: {0, 2}, 2: {1}}[node]
		})
		for _, d := range c.daemons {
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
		}
		defer c.stop()
		d := c.daemons[0]
		snapshot := func() outcome {
			out := outcome{peers: monitored(d), ctrs: d.Metrics().Snapshot(),
				cp: d.Checkpoint(), events: c.log.Events()}
			for p := 0; p < 3; p++ {
				out.routes = append(out.routes, d.RouteTo(p))
			}
			return out
		}
		c.runFor(1500 * time.Millisecond)
		if inject {
			for _, src := range []int{1, 2} {
				for rail := 0; rail < 2; rail++ {
					for _, body := range retired {
						d.onFrame(rail, src, wire.Envelope(wire.ProtoControl, body))
					}
				}
			}
		}
		at := snapshot()
		c.runFor(2500 * time.Millisecond)
		return []outcome{at, snapshot()}
	}
	want, got := run(false), run(true)
	for i, when := range []string{"on arrival", "2.5 s later"} {
		w, g := want[i], got[i]
		if len(g.peers) != 1 || g.peers[0] != 1 {
			t.Fatalf("%s: static daemon learned from retired frames: %v", when, g.peers)
		}
		if !reflect.DeepEqual(g.routes, w.routes) {
			t.Errorf("%s: routes %+v, want %+v", when, g.routes, w.routes)
		}
		if !reflect.DeepEqual(g.ctrs, w.ctrs) {
			t.Errorf("%s: counters %v, want %v", when, g.ctrs, w.ctrs)
		}
		if !reflect.DeepEqual(g.cp, w.cp) {
			t.Errorf("%s: checkpoint %+v, want %+v", when, g.cp, w.cp)
		}
		if !reflect.DeepEqual(g.events, w.events) {
			t.Errorf("%s: trace differs: %d events, want %d", when, len(g.events), len(w.events))
		}
	}
}
