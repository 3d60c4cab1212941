package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"drsnet/internal/core"
	"drsnet/internal/linkmon"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/topology"
)

// A fault-free steady-state probe round is the simulator's inner loop:
// ten nodes exchange 180 frames per interval, one request and one
// reply for each of the 45 pairs on each of the two rails. Every
// buffer on that path is scratch or pooled and every round is
// rescheduled without a timer handle, so a round allocates nothing
// (1180 times before the buffer-ownership rule was used, 20 while
// each daemon's round took a cancellable timer). Under adaptive
// deadlines the round also arms 180 deadlines, one per check at each
// end, whose records each daemon recycles once they fire, so it too
// allocates nothing (180 times while every deadline made its own
// record).
func TestSteadyProbeRoundAllocations(t *testing.T) {
	for _, tun := range []Tunables{{}, {AdaptiveRTO: linkmon.DefaultRTO()}} {
		c, err := Build(ClusterSpec{Nodes: 10, Tunables: tun})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		c.RunFor(2 * time.Second) // pools and scratch reach steady size
		interval := c.Spec().Tunables.ProbeInterval
		before := c.Net().Stats(0).FramesDelivered + c.Net().Stats(1).FramesDelivered
		const rounds = 20
		allocs := testing.AllocsPerRun(rounds, func() { c.RunFor(interval) })
		after := c.Net().Stats(0).FramesDelivered + c.Net().Stats(1).FramesDelivered
		if per := (after - before) / (rounds + 1); per != 180 {
			t.Fatalf("adaptive deadlines %v: a round delivered %d frames, want 180", tun.AdaptiveRTO.Enabled(), per)
		}
		if allocs != 0 {
			t.Fatalf("adaptive deadlines %v: a steady probe round allocates %.0f times, want 0", tun.AdaptiveRTO.Enabled(), allocs)
		}
	}
}

// The modes that judge each direction of a link share one exchange per
// pair as the default mode does, and send its 180 frames a round on the
// same cluster: strict link evidence, whose requests acknowledge the
// previous round's reply, and adaptive deadlines, whose answering end
// times the peer's next request instead of probing (360 frames while
// adaptive deadlines probed every ordered pair).
func TestPerDirectionModesShareExchanges(t *testing.T) {
	for name, tun := range map[string]Tunables{
		"strict evidence": {StrictLinkEvidence: true},
		"adaptive RTO":    {AdaptiveRTO: linkmon.DefaultRTO()},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := Build(ClusterSpec{Nodes: 10, Tunables: tun})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			c.RunFor(2 * time.Second)
			before := c.Net().Stats(0).FramesDelivered + c.Net().Stats(1).FramesDelivered
			const rounds = 5
			c.RunFor(rounds * c.Spec().Tunables.ProbeInterval)
			after := c.Net().Stats(0).FramesDelivered + c.Net().Stats(1).FramesDelivered
			if per := (after - before) / rounds; per != 180 {
				t.Fatalf("a round delivered %d frames, want 180", per)
			}
		})
	}
}

// Figure 1's headline with adaptive deadlines on: 90 hosts probing
// every 0.538 s, the round time the cost model gives for a 10% budget,
// load rail 0 by 10% (20% while adaptive deadlines probed every ordered
// pair). The load is measured past the first round, as
// experiments.ProbeOverhead measures it.
func TestAdaptiveRTOFigure1Headline(t *testing.T) {
	const (
		budget   = 0.10
		interval = 538 * time.Millisecond
		horizon  = 10 * time.Second
	)
	c, err := Build(ClusterSpec{Nodes: 90, Seed: 1,
		Tunables: Tunables{ProbeInterval: interval, AdaptiveRTO: linkmon.DefaultRTO()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(interval)
	warm := c.Network().Utilization(0) * interval.Seconds()
	c.RunUntil(horizon)
	c.StopRouters()
	load := (c.Network().Utilization(0)*horizon.Seconds() - warm) / (horizon - interval).Seconds()
	if rel := (load - budget) / budget; rel > 0.15 || rel < -0.15 {
		t.Fatalf("Dual(90) at %v loads rail 0 by %.4f, want within 15%% of %v", interval, load, budget)
	}
}

// The three data-path operations of a DRS daemon, each at its exact
// allocation count on a started ten-node cluster. The counts do not
// depend on the host, so any stray make on these paths fails here.
func TestDataPathAllocations(t *testing.T) {
	const runs = 100
	payload := make([]byte, 64)
	started := func(t *testing.T) *Cluster {
		c, err := Build(ClusterSpec{Nodes: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		c.RunFor(2 * time.Second)
		return c
	}
	sendTo1 := func(t *testing.T, c *Cluster) func() {
		d, _ := c.Daemon(0)
		return func() {
			if err := d.SendData(1, payload); err != nil {
				t.Fatal(err)
			}
			c.RunFor(50 * time.Microsecond)
		}
	}
	for _, tc := range []struct {
		name string
		want float64
		op   func(t *testing.T, c *Cluster) func()
	}{
		{"direct send", 1, sendTo1},
		// After a cross-rail failure every 0→1 datagram crosses a
		// third node's forwarding code.
		{"relay forward", 2, func(t *testing.T, c *Cluster) func() {
			cl := topology.Dual(10)
			c.Net().Fail(cl.NIC(0, 0))
			c.Net().Fail(cl.NIC(1, 1))
			tun := c.Spec().Tunables
			c.RunFor(time.Duration(tun.MissThreshold+3) * tun.ProbeInterval)
			if d, _ := c.Daemon(0); d.RouteTo(1).Kind != core.RouteRelay {
				t.Fatalf("route 0→1 is %+v, want a relay", d.RouteTo(1))
			}
			return sendTo1(t, c)
		}},
		// Node 0 hears a distinct route query each time and answers it
		// with an offer. The frames are built ahead of the measurement.
		// The offer body stays on the stack: core calls the inlinable
		// wire.MarshalOffer directly; only its envelope escapes.
		{"query to offer", 2, func(t *testing.T, c *Cluster) func() {
			frames := make([][]byte, runs+1) // AllocsPerRun warms up once
			for i := range frames {
				q := wire.Query{Origin: 1, Target: 2, Seq: uint32(i + 1), TTL: 1}
				frames[i] = wire.Envelope(wire.ProtoControl, wire.MarshalQuery(q))
			}
			d, _ := c.Daemon(0)
			offers := d.Metrics().Counter(routing.CtrOffersSent)
			next := 0
			t.Cleanup(func() {
				if got := offers.Value(); got != int64(len(frames)) {
					t.Errorf("node 0 sent %d offers for %d queries", got, len(frames))
				}
			})
			return func() {
				if err := c.Net().Send(1, 0, 0, frames[next]); err != nil {
					t.Fatal(err)
				}
				next++
				c.RunFor(time.Millisecond)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.op(t, started(t))
			if got := testing.AllocsPerRun(runs, op); got != tc.want {
				t.Fatalf("%s allocates %v times, want exactly %v", tc.name, got, tc.want)
			}
		})
	}
}

// Forking the coverage campaign's prefix (twelve nodes, two fault
// slots, run to the last traffic slice before the faults) into the
// spent fork of the scenario before reuses every layer's storage, so
// each such fork after the first allocates nothing (396 allocations
// while every scenario forked into a new cluster). Each spent fork has
// run a different fault set past the prefix's instant first, so frames
// are in flight and discovery timeouts pending when it stops.
func TestRecycledForkAllocations(t *testing.T) {
	src := startCluster(t, forkSpec(12, 0, 0), 2900*time.Millisecond)
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1)) // as AllocsPerRun measures
	var spent *Cluster
	for i, comps := range [][]topology.Component{{0}, {2, 25}, {24}, {1, 3}, nil, {5}} {
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		f, err := src.Fork(spent)
		goruntime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if n := m1.Mallocs - m0.Mallocs; i > 1 && n != 0 {
			t.Errorf("fork %d into a spent fork allocates %d times, want 0", i, n)
		}
		if err := f.SetFaults(forkSpec(12, comps...).Faults); err != nil {
			t.Fatal(err)
		}
		f.RunUntil(4100 * time.Millisecond)
		f.StopRouters()
		spent = f
	}
}
