package netsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"drsnet/internal/conn"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// parityShapes are the cluster shapes on which both engines can run:
// Network natively, FabricNet on FromCluster of the same shape.
var parityShapes = []topology.Cluster{topology.Dual(4), {Nodes: 4, Rails: 3}}

// enginePair builds both engines for one cluster shape.
func enginePair(t *testing.T, cl topology.Cluster) (*Network, *FabricNet) {
	t.Helper()
	hub, err := New(simtime.NewScheduler(), cl, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := topology.FromCluster(cl)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := NewFabricNet(simtime.NewScheduler(), f, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return hub, fab
}

// TestEngineParity drives one scripted sequence of fault-state changes
// through both engines and compares every state query after every step.
func TestEngineParity(t *testing.T) {
	dirs := []Direction{DirBoth, DirTx, DirRx}
	for _, cl := range parityShapes {
		hub, fab := enginePair(t, cl)
		agree := func(step string) {
			t.Helper()
			for i := 0; i < cl.Components(); i++ {
				c := topology.Component(i)
				if a, b := hub.ComponentUp(c), fab.ComponentUp(c); a != b {
					t.Fatalf("%v after %s: ComponentUp(%d) = %v / %v", cl, step, i, a, b)
				}
				for _, d := range dirs {
					if a, b := hub.DirUp(c, d), fab.DirUp(c, d); a != b {
						t.Fatalf("%v after %s: DirUp(%d, %v) = %v / %v", cl, step, i, d, a, b)
					}
				}
				ia, oka := hub.ImpairmentOn(c)
				ib, okb := fab.ImpairmentOn(c)
				if ia != ib || oka != okb {
					t.Fatalf("%v after %s: ImpairmentOn(%d) = %v,%v / %v,%v", cl, step, i, ia, oka, ib, okb)
				}
			}
			if a, b := hub.FailedComponents(), fab.FailedComponents(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%v after %s: FailedComponents = %v / %v", cl, step, a, b)
			}
			for src := 0; src < cl.Nodes; src++ {
				if a, b := hub.NodeUp(src), fab.NodeUp(src); a != b {
					t.Fatalf("%v after %s: NodeUp(%d) = %v / %v", cl, step, src, a, b)
				}
				for peer := 0; peer < cl.Nodes; peer++ {
					for r := 0; peer != src && r < cl.Rails; r++ {
						if a, b := hub.CarrierUp(src, peer, r), fab.CarrierUp(src, peer, r); a != b {
							t.Fatalf("%v after %s: CarrierUp(%d,%d,%d) = %v / %v", cl, step, src, peer, r, a, b)
						}
					}
				}
			}
		}
		do := func(step string, fn func(Net)) {
			t.Helper()
			fn(hub)
			fn(fab)
			agree(step)
		}
		agree("construction")
		// Pass 1 leaves every component rx-down and impaired, so later
		// steps act on an already degraded network.
		for i := 0; i < cl.Components(); i++ {
			c := topology.Component(i)
			imp := Impairment{Loss: 0.25, Delay: time.Duration(i+1) * time.Microsecond}
			do(fmt.Sprintf("FailDir(%d,tx)", i), func(n Net) { n.FailDir(c, DirTx) })
			do(fmt.Sprintf("FailDir(%d,rx)", i), func(n Net) { n.FailDir(c, DirRx) })
			do(fmt.Sprintf("RestoreDir(%d,tx)", i), func(n Net) { n.RestoreDir(c, DirTx) })
			do(fmt.Sprintf("SetImpairment(%d)", i), func(n Net) {
				if err := n.SetImpairment(c, imp); err != nil {
					t.Fatal(err)
				}
			})
		}
		for node := 0; node < cl.Nodes; node++ {
			do(fmt.Sprintf("FailNode(%d)", node), func(n Net) { n.FailNode(node) })
		}
		// Pass 2 heals in a different order than pass 1 broke.
		for i := cl.Components() - 1; i >= 0; i-- {
			c := topology.Component(i)
			do(fmt.Sprintf("ClearImpairment(%d)", i), func(n Net) { n.ClearImpairment(c) })
			do(fmt.Sprintf("RestoreDir(%d,rx)", i), func(n Net) { n.RestoreDir(c, DirRx) })
		}
		for node := 0; node < cl.Nodes; node++ {
			do(fmt.Sprintf("RestoreNode(%d)", node), func(n Net) { n.RestoreNode(node) })
		}
		if failed := hub.FailedComponents(); failed != nil {
			t.Fatalf("%v: script left %v failed", cl, failed)
		}
	}
}

// TestReachableOraclesAgree compares the two ground-truth oracles the
// invariant referee trusts, with no packets: for every failure set of
// at most two elements drawn from {component down, NIC tx-only down,
// NIC rx-only down, node crashed}, Network.Reachable and
// FabricNet.Reachable give the same answer for every ordered pair.
func TestReachableOraclesAgree(t *testing.T) {
	type element struct {
		name  string
		apply func(Net)
	}
	for _, cl := range parityShapes {
		var elems []element
		for i := 0; i < cl.Components(); i++ {
			c := topology.Component(i)
			elems = append(elems, element{fmt.Sprintf("down(%d)", i), func(n Net) { n.Fail(c) }})
			if i < cl.Nodes*cl.Rails {
				elems = append(elems,
					element{fmt.Sprintf("txdown(%d)", i), func(n Net) { n.FailDir(c, DirTx) }},
					element{fmt.Sprintf("rxdown(%d)", i), func(n Net) { n.FailDir(c, DirRx) }})
			}
		}
		for node := 0; node < cl.Nodes; node++ {
			elems = append(elems, element{fmt.Sprintf("crash(%d)", node), func(n Net) { n.FailNode(node) }})
		}
		check := func(set ...element) {
			hub, fab := enginePair(t, cl)
			var names []string
			for _, e := range set {
				e.apply(hub)
				e.apply(fab)
				names = append(names, e.name)
			}
			for src := 0; src < cl.Nodes; src++ {
				for dst := 0; dst < cl.Nodes; dst++ {
					if a, b := hub.Reachable(src, dst), fab.Reachable(src, dst); a != b {
						t.Fatalf("%v under %v: Reachable(%d,%d) = %v on Network, %v on FabricNet",
							cl, names, src, dst, a, b)
					}
				}
			}
		}
		check()
		for i, a := range elems {
			check(a)
			for _, b := range elems[i+1:] {
				check(a, b)
			}
		}
	}
}

// forEachFailureSet calls fn with every set of at most two whole
// components out of comps, the empty set first.
func forEachFailureSet(comps int, fn func(failed []topology.Component)) {
	fn(nil)
	for a := 0; a < comps; a++ {
		fn([]topology.Component{topology.Component(a)})
		for b := a + 1; b < comps; b++ {
			fn([]topology.Component{topology.Component(a), topology.Component(b)})
		}
	}
}

// TestReachableMatchesAnalyticOracles pins the packet engines'
// Reachable to the analytic evaluators the survivability figures use,
// with no packets: for every whole-component failure set of at most
// two elements, FabricNet.Reachable equals conn.FabricEvaluator on
// FatTree(4) and BCube(4,1), and Network.Reachable equals
// conn.Evaluator on Dual(4), for every ordered pair. All four let
// hosts relay. Under -short the fabrics check the pairs out of the
// first and the last host only.
func TestReachableMatchesAnalyticOracles(t *testing.T) {
	fatTree, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	bcube, err := topology.BCube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*topology.Fabric{fatTree, bcube} {
		ev, err := conn.NewFabricEvaluator(f)
		if err != nil {
			t.Fatal(err)
		}
		sc := ev.NewScratch()
		forEachFailureSet(f.Components(), func(failed []topology.Component) {
			n, err := NewFabricNet(simtime.NewScheduler(), f, DefaultParams(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range failed {
				n.Fail(c)
			}
			for a := 0; a < f.Hosts(); a++ {
				if testing.Short() && a != 0 && a != f.Hosts()-1 {
					continue
				}
				for b := 0; b < f.Hosts(); b++ {
					if got, want := n.Reachable(a, b), ev.PairConnected(sc, failed, a, b); got != want {
						t.Fatalf("%d hosts, failed %v: FabricNet.Reachable(%d,%d) = %v, FabricEvaluator says %v",
							f.Hosts(), failed, a, b, got, want)
					}
				}
			}
		})
	}

	cl := topology.Dual(4)
	ev, err := conn.NewEvaluator(cl)
	if err != nil {
		t.Fatal(err)
	}
	forEachFailureSet(cl.Components(), func(failed []topology.Component) {
		n, err := New(simtime.NewScheduler(), cl, DefaultParams(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range failed {
			n.Fail(c)
		}
		for a := 0; a < cl.Nodes; a++ {
			for b := 0; b < cl.Nodes; b++ {
				if got, want := n.Reachable(a, b), ev.PairConnected(failed, a, b); got != want {
					t.Fatalf("Dual(4), failed %v: Network.Reachable(%d,%d) = %v, Evaluator says %v", failed, a, b, got, want)
				}
			}
		}
	})
}
