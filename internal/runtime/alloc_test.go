package runtime

import (
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
// each daemon's round took a cancellable timer).
func TestSteadyProbeRoundAllocations(t *testing.T) {
	c, err := Build(ClusterSpec{Nodes: 10})
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
		t.Fatalf("a round delivered %d frames, want 180", per)
	}
	if allocs != 0 {
		t.Fatalf("a steady probe round allocates %.0f times, want 0", allocs)
	}
}

// Adaptive deadlines need a round trip of their own at both ends of a
// pair, so with them every daemon still probes every peer: 360 frames a
// round on the same cluster. Strict link evidence shares one exchange
// per pair, its requests acknowledging the previous round's reply, so
// it sends the 180 frames of the default mode.
func TestPerDirectionModesProbeOrderedPairs(t *testing.T) {
	for name, tc := range map[string]struct {
		tun  Tunables
		want int64
	}{
		"strict evidence": {Tunables{StrictLinkEvidence: true}, 180},
		"adaptive RTO":    {Tunables{AdaptiveRTO: linkmon.DefaultRTO()}, 360},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := Build(ClusterSpec{Nodes: 10, Tunables: tc.tun})
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
			if per := (after - before) / rounds; per != tc.want {
				t.Fatalf("a round delivered %d frames, want %d", per, tc.want)
			}
		})
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
