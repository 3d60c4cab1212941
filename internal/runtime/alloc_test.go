package runtime

import (
	"testing"
	"time"
)

// A fault-free steady-state probe round is the simulator's inner loop:
// ten nodes exchange 360 frames (180 requests, 180 replies) per
// interval. Every buffer on that path is scratch or pooled, so what a
// round allocates is bounded by a constant, not by the frame count
// (1180 before the buffer-ownership rule was used).
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
	if per := (after - before) / (rounds + 1); per != 360 {
		t.Fatalf("a round delivered %d frames, want 360", per)
	}
	if allocs > 20 {
		t.Fatalf("a steady probe round allocates %.0f times, want <= 20", allocs)
	}
}
