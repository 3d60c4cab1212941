package core

import (
	"testing"
	"time"

	"drsnet/internal/linkmon"
	"drsnet/internal/routing"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// newClusterStarting is newCluster with node i's daemon started at
// starts[i] instead of at once (nodes past the list start at once),
// which sets the phase of its probe rounds against the others'.
func newClusterStarting(t testing.TB, n int, cfg Config, starts ...time.Duration) *cluster {
	t.Helper()
	c := buildClusterShape(t, topology.Dual(n), cfg, nil)
	for node, d := range c.daemons {
		var at time.Duration
		if node < len(starts) {
			at = starts[node]
		}
		d := d
		c.sched.At(simtime.Time(at), func() {
			if err := d.Start(); err != nil {
				t.Error(err)
			}
		})
	}
	return c
}

// A relay must not offer a path that has already missed a check. Node
// 1 is cut off entirely; whichever of nodes 0 and 2 notices first
// queries the other, and an offer over the other's still-up but
// already failing rails would install a relay into the void that
// nothing tears down. At every round phase both end up with no route.
func TestRelayOfferNeedsUnmissedPath(t *testing.T) {
	for _, offset := range []time.Duration{100, 300, 600, 900} {
		offset := offset * time.Millisecond
		t.Run(offset.String(), func(t *testing.T) {
			c := newClusterStarting(t, 3, DefaultConfig(), 0, 0, offset)
			defer c.stop()
			c.runFor(3 * time.Second)
			cl := c.net.Cluster()
			c.net.Fail(cl.NIC(1, 0))
			c.net.Fail(cl.NIC(1, 1))
			c.runFor(17 * time.Second)
			for _, node := range []int{0, 2} {
				if rt := c.daemons[node].RouteTo(1); rt.Kind != RouteNone {
					t.Errorf("node %d routes to the isolated node 1 as %+v, want none", node, rt)
				}
			}
		})
	}
}

// Node 0 does not monitor node 2, so no request ever reaches node 2
// from it: node 2 must keep probing node 0 itself, every round on
// both rails, and keep its links up. Toward node 1, which does
// request, node 2 only answers.
func TestAsymmetricMonitorKeepsAnswererProbing(t *testing.T) {
	c := buildClusterShape(t, topology.Dual(3), DefaultConfig(), func(node int, cfg *Config) {
		if node == 0 {
			cfg.Monitor = []int{1}
		}
	})
	for _, d := range c.daemons {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer c.stop()
	c.runFor(2 * time.Second)
	sent := c.daemons[2].Metrics().Counter(routing.CtrProbesSent)
	before := sent.Value()
	const rounds = 5
	c.runFor(rounds * time.Second)
	if got := sent.Value() - before; got != rounds*2 {
		t.Errorf("node 2 sent %d probes in %d rounds, want %d (node 0 on two rails)", got, rounds, rounds*2)
	}
	for rail := 0; rail < 2; rail++ {
		if !c.daemons[2].LinkUp(0, rail) {
			t.Errorf("node 2 thinks its rail %d to the non-monitoring node 0 is down", rail)
		}
	}
	if n := c.log.Count(trace.KindLinkDown); n != 0 {
		t.Errorf("%d spurious link-down events", n)
	}
}

// Node 2's first round toward node 0 waits on the path's grant, and
// no request ever meets it, since node 0 does not monitor node 2.
// That unmet granted wait is no evidence of a dead link: even with a
// miss threshold of 1 nothing goes down.
func TestUnmetGrantedWaitRaisesNoLinkDown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MissThreshold = 1
	c := buildClusterShape(t, topology.Dual(3), cfg, func(node int, cfg *Config) {
		if node == 0 {
			cfg.Monitor = []int{1}
		}
	})
	for _, d := range c.daemons {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer c.stop()
	c.runFor(5 * time.Second)
	if n := c.log.Count(trace.KindLinkDown); n != 0 {
		t.Errorf("%d spurious link-down events", n)
	}
}

// A path already dead at Start: the requester misses its reply in
// rounds 1 and 2 and declares the link down at 2 s. The answering end
// spends round 0 on its granted wait, which no request meets and which
// is no miss, then probes, and declares the link down one round later,
// at 3 s.
func TestPathDeadAtStartAnswererOneRoundLater(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval, cfg.MissThreshold = time.Second, 2
	c := buildClusterShape(t, topology.Dual(2), cfg, nil)
	c.net.Fail(c.net.Cluster().NIC(1, 0))
	for _, d := range c.daemons {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer c.stop()
	c.runFor(5 * time.Second)
	for node, want := range []time.Duration{2 * time.Second, 3 * time.Second} {
		e, ok := c.log.First(trace.KindLinkDown, node)
		if !ok || e.Rail != 0 || e.At != want {
			t.Errorf("node %d: first link-down %+v (found %v), want rail 0 at %v", node, e, ok, want)
		}
	}
}

// The first round already shares exchanges: on Dual(10) the round that
// runs inside Start sends one request per pair and rail, 45 × 2, and
// node 0, the lowest id, never has a request to answer.
func TestFirstRoundSharesExchanges(t *testing.T) {
	c := buildClusterShape(t, topology.Dual(10), DefaultConfig(), nil)
	tap := &echoTap{requests: make([]int, 10), replies: make([]int, 10)}
	c.net.SetTap(tap)
	for _, d := range c.daemons {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer c.stop()
	c.runFor(500 * time.Millisecond)
	total := 0
	for _, n := range tap.requests {
		total += n
	}
	if total != 90 {
		t.Errorf("first round sent %d requests, want 90", total)
	}
	c.runFor(3 * time.Second)
	if tap.replies[0] != 0 {
		t.Errorf("node 0 sent %d replies, want 0", tap.replies[0])
	}
}

// A failure seen from both ends of one exchange: node 0 requests and
// node 1 answers. Whatever the phase of the two daemons' rounds and
// wherever in a round the NIC dies, the answering end declares the
// link down no later than one round after the requesting end.
func TestAnsweringEndDetectsWithinOneRound(t *testing.T) {
	cfg := DefaultConfig()
	for _, phase := range []time.Duration{-750, -500, -250, 0, 250, 500, 750} {
		for _, failAt := range []time.Duration{4050, 4550} {
			phase, failAt := phase*time.Millisecond, failAt*time.Millisecond
			starts := []time.Duration{0, phase}
			if phase < 0 {
				starts = []time.Duration{-phase, 0}
			}
			c := newClusterStarting(t, 2, cfg, starts...)
			c.runFor(failAt)
			c.net.Fail(c.net.Cluster().NIC(1, 0))
			c.runFor(5 * cfg.ProbeInterval)
			c.stop()
			var down [2]time.Duration
			for node := range down {
				e, ok := c.log.First(trace.KindLinkDown, node)
				if !ok || e.Rail != 0 {
					t.Fatalf("phase %v, fail at %v: node %d did not declare rail 0 down (%+v)", phase, failAt, node, e)
				}
				down[node] = e.At
			}
			if down[1] > down[0]+cfg.ProbeInterval {
				t.Errorf("phase %v, fail at %v: requester down at %v, answerer at %v", phase, failAt, down[0], down[1])
			}
		}
	}
}

// The answering end measures no round trip of its own once it stops
// probing; each request hands it the requester's newest sample, so its
// estimate follows the requester's.
func TestAnsweringEndLearnsRequesterRTT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 100 * time.Millisecond
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(2 * time.Second)
	for rail := 0; rail < 2; rail++ {
		req, ok := c.daemons[0].RTT(2, rail)
		if !ok {
			t.Fatalf("requester has no RTT on rail %d", rail)
		}
		ans, ok := c.daemons[2].RTT(0, rail)
		if !ok {
			t.Fatalf("answering end has no RTT on rail %d", rail)
		}
		if ans.Samples < 10 {
			t.Fatalf("rail %d: answering end folded only %d samples", rail, ans.Samples)
		}
		if diff := ans.SRTT - req.SRTT; diff > req.SRTT/4 || -diff > req.SRTT/4 {
			t.Fatalf("rail %d: answering end's SRTT %v strays from the requester's %v", rail, ans.SRTT, req.SRTT)
		}
	}
}

// Latency steering works from the answering end too: node 1 answers
// node 0's requests and moves its own route to node 0 off the
// congested rail on the RTTs those requests carry.
func TestLatencySteeringAtAnsweringEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 100 * time.Millisecond
	cfg.PreferLowLatency = true
	c := newCluster(t, 4, cfg)
	defer c.stop()
	congestRail(c, 0)
	c.runFor(5 * time.Second)
	if rt := c.daemons[1].RouteTo(0); rt.Kind != RouteDirect || rt.Rail != 1 {
		t.Fatalf("answering end's route to node 0 = %+v, want direct on rail 1", rt)
	}
}

// A NIC cut under adaptive deadlines, at ten instants spread across
// one probe round and at two phases of the two daemons' rounds, on a
// fabric whose round trip (tens of microseconds) is far below RTO.Min.
// Each end declares the link down within ProbeInterval +
// (2^MissThreshold − 1)·RTO.Min of the cut, the bound a daemon probing
// the peer itself meets: the requester's next probe expires RTO.Min
// after it leaves and its retransmits back off, and the answering
// end's deadline runs from the last request it heard, which came
// before the cut. An answering end that left the missing request to
// its next round could take two rounds. The bound holds also without
// warm-up, for a cut in the path's first round, before the answering
// end has an RTT sample.
func TestAdaptiveRTOPhaseSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptiveRTO = linkmon.DefaultRTO()
	bound := cfg.ProbeInterval + (1<<cfg.MissThreshold-1)*cfg.AdaptiveRTO.Min
	for _, warm := range []bool{true, false} {
		for _, phase := range []time.Duration{0, 370 * time.Millisecond} {
			// Without warm-up the cut falls in the path's first round,
			// after the first request, which carries no RTT sample,
			// and before the second.
			start := 4 * time.Second
			if !warm {
				start = (phase+cfg.ProbeInterval-1)/cfg.ProbeInterval*cfg.ProbeInterval + time.Millisecond
			}
			for k := 0; k < 10; k++ {
				sweepCut(t, cfg, warm, phase, start+time.Duration(k)*cfg.ProbeInterval/10, bound)
			}
		}
	}
}

// sweepCut cuts node 1's rail-0 NIC at the instant at on a two-node
// cluster whose second daemon starts at phase, and fails t unless both
// ends declare rail 0 down within bound of the cut.
func sweepCut(t *testing.T, cfg Config, warm bool, phase, at, bound time.Duration) {
	t.Helper()
	c := newClusterStarting(t, 2, cfg, 0, phase)
	c.runFor(at)
	cut := time.Duration(c.sched.Now())
	c.net.Fail(c.net.Cluster().NIC(1, 0))
	c.runFor(3 * cfg.ProbeInterval)
	c.stop()
	for node := 0; node < 2; node++ {
		e, ok := c.log.First(trace.KindLinkDown, node)
		if !ok || e.Rail != 0 || e.At-cut > bound {
			t.Errorf("warm %v, phase %v, cut at %v: node %d declared %+v (found %v), want rail 0 down by %v",
				warm, phase, cut, node, e, ok, cut+bound)
		}
	}
}
