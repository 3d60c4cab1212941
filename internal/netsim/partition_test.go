package netsim

import (
	"testing"
)

// TestPartitionAsymmetric: a directed partition eats frames in one
// direction only — node 1 goes deaf to node 0 on the blocked rail
// while node 0 still hears node 1 — and healing restores delivery.
func TestPartitionAsymmetric(t *testing.T) {
	sched, n := newNet(t, 3)
	var at0, at1 int
	n.SetHandler(0, func(Frame) { at0++ })
	n.SetHandler(1, func(Frame) { at1++ })

	n.Partition(0, 1, 0)
	if !blocked(n, 0, 1, 0) {
		t.Fatal("0→1 on rail 0 not blocked after Partition")
	}
	if blocked(n, 1, 0, 0) {
		t.Fatal("reverse direction blocked by a directed partition")
	}

	// Blocked direction: 0→1 on rail 0 vanishes.
	if err := n.Send(0, 0, 1, []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	// Reverse direction and the other rail still work.
	if err := n.Send(1, 0, 0, []byte("reverse ok")); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(0, 1, 1, []byte("other rail ok")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if at0 != 1 || at1 != 1 {
		t.Fatalf("deliveries: node0=%d node1=%d, want 1 and 1", at0, at1)
	}
	if got := n.Stats(0).DroppedPartitioned; got != 1 {
		t.Fatalf("rail-0 DroppedPartitioned = %d, want 1", got)
	}

	n.Heal(0, 1, 0)
	if blocked(n, 0, 1, 0) {
		t.Fatal("still partitioned after Heal")
	}
	if err := n.Send(0, 0, 1, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if at1 != 2 {
		t.Fatalf("post-heal deliveries to node 1 = %d, want 2", at1)
	}
}

// TestPartitionAllRails: AllRails blocks every segment of the directed
// pair at once, and Heal with AllRails clears them all.
func TestPartitionAllRails(t *testing.T) {
	sched, n := newNet(t, 2)
	delivered := 0
	n.SetHandler(1, func(Frame) { delivered++ })

	n.Partition(0, 1, AllRails)
	for rail := 0; rail < 2; rail++ {
		if !blocked(n, 0, 1, rail) {
			t.Fatalf("rail %d not blocked by AllRails partition", rail)
		}
		if err := n.Send(0, rail, 1, []byte("blocked")); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run(0)
	if delivered != 0 {
		t.Fatalf("deliveries through an AllRails partition: %d", delivered)
	}

	n.Heal(0, 1, AllRails)
	if blocked(n, 0, 1, 0) || blocked(n, 0, 1, 1) {
		t.Fatal("still partitioned after Heal with AllRails")
	}
	if err := n.Send(0, 0, 1, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if delivered != 1 {
		t.Fatalf("post-heal deliveries = %d, want 1", delivered)
	}
}

// TestPartitionBroadcast: a broadcast frame is filtered per receiver —
// the partitioned destination misses it, everyone else gets it.
func TestPartitionBroadcast(t *testing.T) {
	sched, n := newNet(t, 4)
	counts := make([]int, 4)
	for node := 1; node < 4; node++ {
		node := node
		n.SetHandler(node, func(Frame) { counts[node]++ })
	}
	n.Partition(0, 2, 0)
	if err := n.Send(0, 0, Broadcast, []byte("hello all")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if counts[1] != 1 || counts[3] != 1 {
		t.Fatalf("unpartitioned receivers: node1=%d node3=%d, want 1 and 1", counts[1], counts[3])
	}
	if counts[2] != 0 {
		t.Fatal("broadcast delivered through a partition")
	}
}

// TestPartitionInFlightFrame: a frame already on the wire when the
// partition lands is eaten at delivery — the cut takes effect
// immediately, like a filter programmed into the switching fabric.
func TestPartitionInFlightFrame(t *testing.T) {
	sched, n := newNet(t, 2)
	delivered := 0
	n.SetHandler(1, func(Frame) { delivered++ })
	if err := n.Send(0, 0, 1, []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	n.Partition(0, 1, 0)
	sched.Run(0)
	if delivered != 0 {
		t.Fatal("in-flight frame delivered through a partition")
	}
	if got := n.Stats(0).DroppedPartitioned; got != 1 {
		t.Fatalf("DroppedPartitioned = %d, want 1", got)
	}
}

// TestPartitionReachableAndCarrier: the Reachable ground-truth oracle
// sees partitions (a fully cut pair with no relay is unreachable) but
// CarrierUp does not — a partition is a logical fault, the link lights
// stay on. With a third node both rails can relay around the cut.
func TestPartitionReachableAndCarrier(t *testing.T) {
	_, n := newNet(t, 2)
	n.Partition(0, 1, AllRails)
	n.Partition(1, 0, AllRails)
	if n.Reachable(0, 1) || n.Reachable(1, 0) {
		t.Fatal("fully partitioned pair still Reachable")
	}
	if !n.CarrierUp(0, 1, 0) || !n.CarrierUp(0, 1, 1) {
		t.Fatal("partition killed carrier — it must stay electrically up")
	}

	// A relay node restores reachability: 0→2→1 is untouched.
	_, n3 := newNet(t, 3)
	n3.Partition(0, 1, AllRails)
	n3.Partition(1, 0, AllRails)
	if !n3.Reachable(0, 1) {
		t.Fatal("partitioned pair with a live relay reported unreachable")
	}

	// Asymmetric cut: 0→1 blocked everywhere, 1→0 open. Reachability is
	// directional.
	_, na := newNet(t, 2)
	na.Partition(0, 1, AllRails)
	if na.Reachable(0, 1) {
		t.Fatal("blocked direction reported reachable")
	}
	if !na.Reachable(1, 0) {
		t.Fatal("open direction reported unreachable")
	}
}

// TestPartitionValidation: self-partitions and bad rails panic, like
// every other malformed netsim request.
func TestPartitionValidation(t *testing.T) {
	_, n := newNet(t, 2)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("self-partition", func() { n.Partition(0, 0, 0) })
	mustPanic("bad rail", func() { n.Partition(0, 1, 2) })
	mustPanic("bad node", func() { blocked(n, 0, 5, 0) })
}

// blocked reports whether frames from src to dst on rail are blocked;
// with AllRails, whether every rail of the directed pair is.
func blocked(n *Network, src, dst, rail int) bool {
	n.checkNode(src)
	n.checkNode(dst)
	n.checkPartRail(rail)
	for _, r := range n.partRails(rail) {
		if !n.partitioned(src, dst, r) {
			return false
		}
	}
	return true
}
