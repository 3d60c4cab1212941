package runtime

import (
	"strings"
	"testing"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/netsim"
	"drsnet/internal/trace"
)

// partitionSpec is a small DRS cluster with a five-second partition
// window between nodes 0 and 1 on rail 0 (direction dir), carrying a
// flow straight through the cut.
func partitionSpec(dir netsim.Direction) ClusterSpec {
	return ClusterSpec{
		Nodes:    3,
		Protocol: ProtoDRS,
		Seed:     7,
		Duration: 12 * time.Second,
		Tunables: Tunables{ProbeInterval: 500 * time.Millisecond, MissThreshold: 2,
			StrictLinkEvidence: true},
		Flows: []Flow{{From: 0, To: 1, Interval: 100 * time.Millisecond}},
		Episodes: []chaos.Episode{{
			Kind: chaos.Partition, A: 0, B: 1, Rail: 0, Dir: dir,
			Start: 3 * time.Second, Stop: 8 * time.Second,
		}},
	}
}

// TestAsymmetricPartitionRoutedAround is the asymmetric-fault
// acceptance test: rail 0 carries 1's frames to 0 but eats 0's frames
// to 1 (DirTx). No hardware sensor fires — carrier stays up — yet both
// sides must notice via probe misses (0 never gets replies, 1 never
// hears probes), declare the rail down, and repair the route onto
// rail 1, keeping the flow alive through the window.
func TestAsymmetricPartitionRoutedAround(t *testing.T) {
	spec := partitionSpec(netsim.DirTx)
	c, err := Build(spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	c.ScheduleFlows()
	c.ScheduleFaults()
	c.RunUntil(spec.Duration)
	c.StopRouters()
	run := c.Finish()

	// The cut really ate frames (and only on rail 0).
	if got := c.Network().Stats(0).DroppedPartitioned; got == 0 {
		t.Fatal("partition window passed without a single partition drop")
	}
	if got := c.Network().Stats(1).DroppedPartitioned; got != 0 {
		t.Fatalf("rail 1 recorded %d partition drops, want 0", got)
	}

	// Both endpoints detected the one-way cut and repaired onto rail 1.
	repairedVia1 := map[int]bool{}
	for _, rep := range run.Repairs {
		if rep.Rail == 1 && (rep.Node == 0 && rep.Peer == 1 || rep.Node == 1 && rep.Peer == 0) {
			repairedVia1[rep.Node] = true
		}
	}
	if !repairedVia1[0] || !repairedVia1[1] {
		t.Fatalf("repairs onto rail 1 by node: %v, want both 0 and 1 (repairs %+v)",
			repairedVia1, run.Repairs)
	}
	if run.Trace.Count(trace.KindLinkDown) == 0 {
		t.Fatal("no link-down events across an asymmetric partition")
	}

	// The flow kept delivering inside the partition window (after the
	// repair settles) and after the heal.
	var during, after bool
	for _, at := range run.Flows[0].Deliveries {
		if at >= 5*time.Second && at < 8*time.Second {
			during = true
		}
		if at >= 9*time.Second {
			after = true
		}
	}
	if !during {
		t.Fatal("no deliveries during the partition window — DRS did not route around the cut")
	}
	if !after {
		t.Fatal("no deliveries after the heal")
	}
}

// TestSymmetricPartitionRun: the classic split heals and the flow
// recovers; the whole run is deterministic under a fixed seed.
func TestSymmetricPartitionRun(t *testing.T) {
	a, err := Run(partitionSpec(netsim.DirBoth))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Flows[0].Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	var after bool
	for _, at := range a.Flows[0].Deliveries {
		if at >= 9*time.Second {
			after = true
		}
	}
	if !after {
		t.Fatal("no deliveries after the heal")
	}

	b, err := Run(partitionSpec(netsim.DirBoth))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Flows[0].Sent != b.Flows[0].Sent || a.Flows[0].Delivered != b.Flows[0].Delivered ||
		len(a.Repairs) != len(b.Repairs) {
		t.Fatalf("partitioned runs diverge: %+v/%d repairs vs %+v/%d repairs",
			a.Flows[0], len(a.Repairs), b.Flows[0], len(b.Repairs))
	}
}

// TestPartitionSpecValidation: malformed partition scripts and fabric
// topologies are rejected at Build time with precise errors.
func TestPartitionSpecValidation(t *testing.T) {
	bad := partitionSpec(netsim.DirBoth)
	bad.Episodes[0].B = 9
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "runtime: chaos: partitions[0]: unknown node 9") {
		t.Fatalf("bad partition node: err %v", err)
	}

	fab := partitionSpec(netsim.DirBoth)
	fab.Nodes, fab.Rails = 0, 0
	fab.Topology = TopologySpec{Kind: "fatTree", K: 4}
	fab.Flows = nil
	if _, err := Run(fab); err == nil || !strings.Contains(err.Error(), "dual-rail only") {
		t.Fatalf("fabric partition: err %v", err)
	}
}
