package netsim

import (
	"bytes"
	"testing"
	"time"

	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

func newFatTreeNet(t *testing.T, k int) (*simtime.Scheduler, *FabricNet) {
	t.Helper()
	f, err := topology.FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler()
	n, err := NewFabricNet(sched, f, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sched, n
}

// collect installs a recording handler on every host.
func collect(n *FabricNet) *[]Frame {
	var got []Frame
	for h := 0; h < n.Nodes(); h++ {
		n.SetHandler(h, func(fr Frame) { got = append(got, keep(fr)) })
	}
	return &got
}

func TestFabricNetUnicastAcrossPods(t *testing.T) {
	sched, n := newFatTreeNet(t, 4)
	got := collect(n)

	// Host 0 (pod 0) to host 15 (pod 3): the longest path class —
	// NIC up, edge→agg, agg→core, core→agg, agg→edge, NIC down.
	payload := []byte("cross-pod")
	if err := n.Send(0, 0, 15, payload); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(*got) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(*got))
	}
	fr := (*got)[0]
	if fr.Src != 0 || fr.Dst != 15 || !bytes.Equal(fr.Payload, payload) {
		t.Fatalf("bad delivery %+v", fr)
	}
	// Store-and-forward: six link crossings, each serializing the full
	// frame and paying propagation latency.
	p := DefaultParams()
	wire := len(payload) + p.OverheadBytes
	if wire < p.MinFrameBytes {
		wire = p.MinFrameBytes
	}
	tx := time.Duration(float64(wire*8) / p.Rate * float64(time.Second))
	want := 6 * (tx + p.Latency)
	if at := sched.Now().Duration(); at != want {
		t.Fatalf("cross-pod delivery at %v, want %v (6 store-and-forward hops)", at, want)
	}

	// Same-ToR traffic takes exactly two crossings.
	*got = (*got)[:0]
	if err := n.Send(2, 0, 3, payload); err != nil {
		t.Fatal(err)
	}
	before := sched.Now().Duration()
	sched.Run(0)
	if len(*got) != 1 {
		t.Fatalf("same-ToR: got %d deliveries, want 1", len(*got))
	}
	if at := sched.Now().Duration() - before; at != 2*(tx+p.Latency) {
		t.Fatalf("same-ToR delivery took %v, want %v", at, 2*(tx+p.Latency))
	}
}

func TestFabricNetBroadcastFloods(t *testing.T) {
	sched, n := newFatTreeNet(t, 4)
	got := collect(n)
	if err := n.Send(5, 0, Broadcast, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(*got) != n.Nodes()-1 {
		t.Fatalf("broadcast reached %d hosts, want %d", len(*got), n.Nodes()-1)
	}
	seen := map[int]bool{}
	for _, fr := range *got {
		if fr.Src != 5 {
			t.Fatalf("broadcast delivery with src %d", fr.Src)
		}
		if seen[fr.Dst] {
			t.Fatalf("host %d received the broadcast twice", fr.Dst)
		}
		seen[fr.Dst] = true
	}
}

// Failing a ToR switch severs its single-homed hosts; the drop is
// counted, and restoring the switch heals the path (satellite: Fail on
// a switch component).
func TestFabricNetSwitchFailure(t *testing.T) {
	sched, n := newFatTreeNet(t, 4)
	got := collect(n)
	tor := n.Fabric().Switch(0) // hosts 0 and 1 attach here

	n.Fail(tor)
	if n.ComponentUp(tor) {
		t.Fatal("failed switch reports up")
	}
	if err := n.Send(0, 0, 15, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(15, 0, 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(*got) != 0 {
		t.Fatalf("deliveries through a failed ToR: %d", len(*got))
	}
	if s := n.Stats(0); s.DroppedSegment != 2 {
		t.Fatalf("DroppedSegment = %d, want 2 (one per direction)", s.DroppedSegment)
	}
	if n.Reachable(0, 15) {
		t.Fatal("host 0 should be unreachable with its ToR down")
	}
	// Hosts in other pods are unaffected.
	if !n.Reachable(2, 15) {
		t.Fatal("hosts 2 and 15 should still be connected")
	}

	n.Restore(tor)
	if err := n.Send(0, 0, 15, []byte("z")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(*got) != 1 {
		t.Fatalf("restore did not heal the path: %d deliveries", len(*got))
	}
}

// A trunk failure reroutes through the pod's other aggregation path —
// converged routing, not a drop.
func TestFabricNetTrunkFailureReroutes(t *testing.T) {
	sched, n := newFatTreeNet(t, 4)
	got := collect(n)
	fab := n.Fabric()

	// Fail one edge↔agg trunk out of host 0's ToR (trunks 0 and 1 are
	// edge 0's two uplinks); either way one uplink remains.
	n.Fail(fab.TrunkComp(0))
	if err := n.Send(0, 0, 15, []byte("reroute")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(*got) != 1 {
		t.Fatalf("trunk failure was not routed around: %d deliveries", len(*got))
	}
	// Failing both uplinks leaves no route: counted as a segment drop.
	n.Fail(fab.TrunkComp(1))
	*got = (*got)[:0]
	if err := n.Send(0, 0, 15, []byte("stranded")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(*got) != 0 {
		t.Fatalf("delivery despite both uplinks down")
	}
	if s := n.Stats(0); s.DroppedSegment == 0 {
		t.Fatal("no-route drop was not counted")
	}
	// Same-ToR traffic never leaves the edge switch and still works.
	if err := n.Send(0, 0, 1, []byte("local")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(*got) != 1 {
		t.Fatal("same-ToR delivery should not need uplinks")
	}
}

// Impairments on switch-attached links (satellite: loss, corruption
// and delay on trunks and switches, not just NICs).
func TestFabricNetImpairments(t *testing.T) {
	t.Run("loss on entry switch", func(t *testing.T) {
		sched, n := newFatTreeNet(t, 4)
		got := collect(n)
		entry := n.Fabric().Switch(0)
		if err := n.SetImpairment(entry, Impairment{Loss: 1}); err != nil {
			t.Fatal(err)
		}
		if err := n.Send(0, 0, 15, []byte("eaten")); err != nil {
			t.Fatal(err)
		}
		sched.Run(0)
		if len(*got) != 0 {
			t.Fatal("frame survived a loss-1.0 switch impairment")
		}
		if s := n.Stats(0); s.DroppedImpaired != 1 {
			t.Fatalf("DroppedImpaired = %d, want 1", s.DroppedImpaired)
		}
		n.ClearImpairment(entry)
		if err := n.Send(0, 0, 15, []byte("alive")); err != nil {
			t.Fatal(err)
		}
		sched.Run(0)
		if len(*got) != 1 {
			t.Fatal("clearing the impairment did not heal the path")
		}
	})

	t.Run("corrupt on trunk", func(t *testing.T) {
		sched, n := newFatTreeNet(t, 4)
		got := collect(n)
		fab := n.Fabric()
		// Impair every trunk so the corruption fires whichever path the
		// converged route picks.
		for tr := 0; tr < fab.Trunks(); tr++ {
			if err := n.SetImpairment(fab.TrunkComp(tr), Impairment{Corrupt: 1}); err != nil {
				t.Fatal(err)
			}
		}
		payload := []byte("pristine-bytes")
		if err := n.Send(0, 0, 15, payload); err != nil {
			t.Fatal(err)
		}
		sched.Run(0)
		if len(*got) != 1 {
			t.Fatalf("corrupted frame should still deliver, got %d", len(*got))
		}
		if bytes.Equal((*got)[0].Payload, payload) {
			t.Fatal("payload crossed corrupt trunks unmangled")
		}
		if s := n.Stats(0); s.Corrupted == 0 {
			t.Fatal("corruption not counted")
		}
	})

	t.Run("delay on trunk", func(t *testing.T) {
		sched, n := newFatTreeNet(t, 4)
		got := collect(n)
		fab := n.Fabric()
		const extra = 3 * time.Millisecond
		for tr := 0; tr < fab.Trunks(); tr++ {
			if err := n.SetImpairment(fab.TrunkComp(tr), Impairment{Delay: extra}); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Send(0, 0, 15, []byte("late")); err != nil {
			t.Fatal(err)
		}
		sched.Run(0)
		if len(*got) != 1 {
			t.Fatal("delayed frame vanished")
		}
		// Cross-pod path crosses four trunks; each adds the fixed delay.
		if at := sched.Now().Duration(); at < 4*extra {
			t.Fatalf("delivery at %v, want ≥ %v of accumulated trunk delay", at, 4*extra)
		}
	})

	t.Run("rx delay re-checks NIC state", func(t *testing.T) {
		sched, n := newFatTreeNet(t, 4)
		got := collect(n)
		fab := n.Fabric()
		nic := fab.NIC(15, 0)
		if err := n.SetImpairment(nic, Impairment{Delay: time.Second}); err != nil {
			t.Fatal(err)
		}
		if err := n.Send(0, 0, 15, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		// The NIC dies while the impairment is holding the frame.
		sched.RunUntil(simtime.Time(500 * time.Millisecond))
		n.FailDir(nic, DirRx)
		sched.Run(0)
		if len(*got) != 0 {
			t.Fatal("frame delivered through a NIC that died mid-delay")
		}
		if s := n.Stats(0); s.DroppedRxNIC != 1 {
			t.Fatalf("DroppedRxNIC = %d, want 1", s.DroppedRxNIC)
		}
	})
}

// BCube has no trunks: the wire only connects hosts sharing a switch,
// and inter-switch pairs need protocol-level host relaying (which the
// routing layer, not the fabric, provides).
func TestFabricNetBCubeServerCentric(t *testing.T) {
	f, err := topology.BCube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler()
	n, err := NewFabricNet(sched, f, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(n)

	// Hosts 0 and 1 share level-0 switch 0: port 0 connects them.
	if err := n.Send(0, 0, 1, []byte("row")); err != nil {
		t.Fatal(err)
	}
	// Hosts 0 and 4 share level-1 switch 4: port 1 connects them.
	if err := n.Send(0, 1, 4, []byte("col")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(*got) != 2 {
		t.Fatalf("same-switch sends delivered %d, want 2", len(*got))
	}
	// Hosts 0 and 5 share no switch: the fabric cannot carry it (the
	// DRS's relay machinery can, one transport hop at a time).
	*got = (*got)[:0]
	if err := n.Send(0, 0, 5, []byte("diagonal")); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(0, 1, 5, []byte("diagonal")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(*got) != 0 {
		t.Fatal("no-shared-switch pair delivered without a relay")
	}
	if s := n.Stats(0); s.DroppedSegment != 2 {
		t.Fatalf("DroppedSegment = %d, want 2", s.DroppedSegment)
	}
	// The reachability oracle knows hosts relay: 0 can reach 5 through
	// an intermediate host as long as processes are up.
	if !n.Reachable(0, 5) {
		t.Fatal("oracle should see the host-relay path 0→4→5")
	}
	n.FailNode(4)
	// Other relays exist (0→1→5 via column switches), so still true.
	if !n.Reachable(0, 5) {
		t.Fatal("a single dead relay should not sever BCube(4,1)")
	}
}

func TestFabricNetCarrier(t *testing.T) {
	_, n := newFatTreeNet(t, 4)
	if !n.CarrierUp(0, 15, 0) {
		t.Fatal("healthy fabric should show carrier")
	}
	// A fail-stopped peer process keeps link lights on.
	n.FailNode(15)
	if !n.CarrierUp(0, 15, 0) {
		t.Fatal("carrier must ignore process state")
	}
	n.RestoreNode(15)
	// Peer's delivery NIC down: converged routing has no path.
	n.FailDir(n.Fabric().NIC(15, 0), DirRx)
	if n.CarrierUp(0, 15, 0) {
		t.Fatal("carrier should drop when the peer's rx NIC dies")
	}
	n.RestoreDir(n.Fabric().NIC(15, 0), DirRx)
	// Local tx half down.
	n.FailDir(n.Fabric().NIC(0, 0), DirTx)
	if n.CarrierUp(0, 15, 0) {
		t.Fatal("carrier should drop when the local tx half dies")
	}
}

func TestFabricNetNodeFailBlackholes(t *testing.T) {
	sched, n := newFatTreeNet(t, 4)
	got := collect(n)
	n.FailNode(3)
	if err := n.Send(3, 0, 5, []byte("from-dead")); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(5, 0, 3, []byte("to-dead")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(*got) != 0 {
		t.Fatalf("fail-stopped node exchanged %d frames", len(*got))
	}
	if s := n.Stats(0); s.DroppedNodeDown != 2 {
		t.Fatalf("DroppedNodeDown = %d, want 2", s.DroppedNodeDown)
	}
	// NICs stay electrically up.
	if !n.ComponentUp(n.Fabric().NIC(3, 0)) {
		t.Fatal("FailNode must not touch NIC state")
	}
}

// BenchmarkFabricReachable times the ground-truth oracle the invariant
// checker calls on every originated packet, corner to corner of a
// healthy 432-host fat-tree.
func BenchmarkFabricReachable(b *testing.B) {
	f, err := topology.FatTree(12)
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewFabricNet(simtime.NewScheduler(), f, DefaultParams(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if !n.Reachable(0, f.Hosts()-1) {
			b.Fatal("healthy fat-tree pair unreachable")
		}
	}
}
