package netsim

import (
	"testing"
	"time"

	"drsnet/internal/topology"
)

// recordingTap collects every tap callback for inspection.
type recordingTap struct {
	sent      []Frame
	delivered []Frame
}

func (r *recordingTap) FrameSent(at time.Duration, fr Frame) { r.sent = append(r.sent, keep(fr)) }
func (r *recordingTap) FrameDelivered(at time.Duration, fr Frame) {
	r.delivered = append(r.delivered, keep(fr))
}

// TestTapObservesSendAndDelivery: the tap sees every validated send —
// including one that blackholes into a dead NIC — and every actual
// delivery, with the receiving node in Dst.
func TestTapObservesSendAndDelivery(t *testing.T) {
	sched, n := newNet(t, 3)
	tap := &recordingTap{}
	n.SetTap(tap)
	n.SetHandler(1, func(fr Frame) {})
	n.SetHandler(2, func(fr Frame) {})

	if err := n.Send(0, 0, 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	n.Fail(n.Cluster().NIC(2, 0))
	if err := n.Send(2, 0, 1, []byte("eaten")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)

	if len(tap.sent) != 2 {
		t.Fatalf("tap saw %d sends, want 2", len(tap.sent))
	}
	if len(tap.delivered) != 1 {
		t.Fatalf("tap saw %d deliveries, want 1", len(tap.delivered))
	}
	if fr := tap.delivered[0]; fr.Src != 0 || fr.Dst != 1 {
		t.Fatalf("delivered frame = %+v", fr)
	}
}

// TestTapBroadcast: a broadcast reports one send and one delivery per
// live receiver, each stamped with the receiving node.
func TestTapBroadcast(t *testing.T) {
	sched, n := newNet(t, 4)
	tap := &recordingTap{}
	n.SetTap(tap)
	for node := 1; node < 4; node++ {
		n.SetHandler(node, func(fr Frame) {})
	}
	if err := n.Send(0, 0, Broadcast, []byte("all")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(tap.sent) != 1 || tap.sent[0].Dst != Broadcast {
		t.Fatalf("sent = %+v", tap.sent)
	}
	if len(tap.delivered) != 3 {
		t.Fatalf("tap saw %d deliveries, want 3", len(tap.delivered))
	}
	seen := map[int]bool{}
	for _, fr := range tap.delivered {
		seen[fr.Dst] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("delivery nodes = %v", seen)
	}
}

// TestCarrierUp: carrier reflects component state only — a
// fail-stopped daemon behind healthy NICs still shows carrier, while
// any dead component on the path (tx half, segment, rx half) kills it.
func TestCarrierUp(t *testing.T) {
	_, n := newNet(t, 3)
	cl := n.Cluster()
	if !n.CarrierUp(0, 1, 0) {
		t.Fatal("healthy link shows no carrier")
	}

	n.FailNode(1)
	if !n.CarrierUp(0, 1, 0) {
		t.Fatal("crashed daemon must keep link lights on")
	}
	n.RestoreNode(1)

	n.FailDir(cl.NIC(0, 0), DirTx)
	if n.CarrierUp(0, 1, 0) {
		t.Fatal("tx-dead sender NIC shows carrier")
	}
	if !n.CarrierUp(1, 0, 0) {
		t.Fatal("tx-dead NIC must still receive (gray failure)")
	}
	n.RestoreDir(cl.NIC(0, 0), DirTx)

	n.Fail(cl.Backplane(0))
	if n.CarrierUp(0, 1, 0) {
		t.Fatal("dead segment shows carrier")
	}
	if !n.CarrierUp(0, 1, 1) {
		t.Fatal("rail 1 carrier lost with rail 0 segment")
	}
	n.Restore(cl.Backplane(0))

	n.FailDir(cl.NIC(1, 0), DirRx)
	if n.CarrierUp(0, 1, 0) {
		t.Fatal("rx-dead receiver NIC shows carrier")
	}
}

// TestReachable: ground-truth connectivity honours NIC, segment and
// process state, including multi-hop relay chains.
func TestReachable(t *testing.T) {
	_, n := newNet(t, 4)
	cl := n.Cluster()
	if !n.Reachable(0, 3) {
		t.Fatal("healthy cluster disconnected")
	}

	// Kill 0's rail-0 NIC and 3's rail-1 NIC: no direct rail remains,
	// but any relay bridges rail 1 → rail 0.
	n.Fail(cl.NIC(0, 0))
	n.Fail(cl.NIC(3, 1))
	if !n.Reachable(0, 3) {
		t.Fatal("relay path not found")
	}

	// Fail-stop every possible relay: only direct paths remain, and
	// there are none.
	n.FailNode(1)
	n.FailNode(2)
	if n.Reachable(0, 3) {
		t.Fatal("reachable with every relay dead and no direct rail")
	}
	n.RestoreNode(1)
	if !n.Reachable(0, 3) {
		t.Fatal("restored relay not used")
	}

	// A dead destination process is unreachable even with carrier.
	n.FailNode(3)
	if n.Reachable(0, 3) {
		t.Fatal("fail-stopped destination reported reachable")
	}
}

// TestReachableBothBackplanes: with both segments down nothing
// reaches anything.
func TestReachableBothBackplanes(t *testing.T) {
	_, n := newNet(t, 3)
	cl := topology.Dual(3)
	n.Fail(cl.Backplane(0))
	n.Fail(cl.Backplane(1))
	if n.Reachable(0, 1) {
		t.Fatal("reachable across two dead backplanes")
	}
}
