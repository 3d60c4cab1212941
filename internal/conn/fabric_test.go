package conn

import (
	"testing"

	"drsnet/internal/rng"
	"drsnet/internal/topology"
)

// On a dual-rail fabric the FabricEvaluator must agree exactly with
// the closed-form dual-rail Evaluator, for every pair, across random
// failure scenarios.
func TestFabricMatchesDualRailEvaluator(t *testing.T) {
	for _, nodes := range []int{3, 5, 9} {
		cl := topology.Dual(nodes)
		dual, err := NewEvaluator(cl)
		if err != nil {
			t.Fatal(err)
		}
		fab, err := topology.FromCluster(cl)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := NewFabricEvaluator(fab)
		if err != nil {
			t.Fatal(err)
		}
		sc := fe.NewScratch()
		r := rng.New(42)
		universe := cl.Components()
		for trial := 0; trial < 300; trial++ {
			f := trial % 7
			idxs := make([]int, f)
			r.SampleK(idxs, universe)
			failed := make([]topology.Component, 0, f)
			for _, idx := range idxs {
				failed = append(failed, topology.Component(idx))
			}
			if got, want := fe.AllConnected(sc, failed), dual.AllConnected(failed); got != want {
				t.Fatalf("n=%d trial=%d failed=%v: fabric AllConnected=%v dual=%v",
					nodes, trial, failed, got, want)
			}
			for a := 0; a < nodes; a++ {
				for b := a + 1; b < nodes; b++ {
					got := fe.PairConnected(sc, failed, a, b)
					want := dual.PairConnected(failed, a, b)
					if got != want {
						t.Fatalf("n=%d trial=%d failed=%v pair (%d,%d): fabric=%v dual=%v",
							nodes, trial, failed, a, b, got, want)
					}
				}
			}
		}
	}
}

func TestFabricFatTreeConnectivity(t *testing.T) {
	f, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFabricEvaluator(f)
	if err != nil {
		t.Fatal(err)
	}
	sc := fe.NewScratch()
	if !fe.AllConnected(sc, nil) {
		t.Fatal("healthy fat-tree should be fully connected")
	}
	// Hosts 0 and 1 share edge switch 0 (ToR); failing it cuts them
	// off from everyone, including each other (single-homed hosts).
	tor := f.Switch(0)
	if fe.PairConnected(sc, []topology.Component{tor}, 0, 2) {
		t.Fatal("host 0 should be severed by its ToR failure")
	}
	if fe.PairConnected(sc, []topology.Component{tor}, 0, 1) {
		t.Fatal("hosts 0,1 have no path with their shared ToR down")
	}
	if !fe.PairConnected(sc, []topology.Component{tor}, 2, 15) {
		t.Fatal("other pods should be unaffected by one ToR failure")
	}
	// Failing one aggregation switch leaves pod reachability intact
	// (k/2 = 2 agg switches per pod).
	agg := f.Switch(8) // first agg switch (edge switches are 0..7)
	if !fe.AllConnected(sc, []topology.Component{agg}) {
		t.Fatal("one agg switch down must not partition a k=4 fat-tree")
	}
	// Failing a host's only NIC isolates exactly that host.
	nic := f.NIC(5, 0)
	reach := fe.hostsReachable(sc, []topology.Component{nic}, 0)
	for h, ok := range reach {
		want := h != 5
		if ok != want {
			t.Fatalf("with host 5's NIC down, reach[%d]=%v want %v", h, ok, want)
		}
	}
}

func TestFabricBCubeHostRelay(t *testing.T) {
	f, err := topology.BCube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFabricEvaluator(f)
	if err != nil {
		t.Fatal(err)
	}
	sc := fe.NewScratch()
	if !fe.AllConnected(sc, nil) {
		t.Fatal("healthy BCube should be fully connected")
	}
	// Hosts 0 and 5 share no switch (different rows and columns); the
	// path must relay through an intermediate host. Fail host 0's
	// level-0 switch and host 5's level-1 switch: still connected via
	// relays (e.g. 0 → sw(4+0) → host 4 → sw(1) → host 5).
	failed := []topology.Component{f.Switch(0), f.Switch(4 + 1)}
	if !fe.PairConnected(sc, failed, 0, 5) {
		t.Fatal("BCube should relay through hosts around failed switches")
	}
	// Failing both of host 0's switches isolates it.
	failed = []topology.Component{f.Switch(0), f.Switch(4 + 0)}
	if fe.PairConnected(sc, failed, 0, 5) {
		t.Fatal("host 0 with both switches down should be isolated")
	}
	// Failing both of host 0's NICs isolates it too.
	failed = []topology.Component{f.NIC(0, 0), f.NIC(0, 1)}
	if fe.PairConnected(sc, failed, 0, 1) {
		t.Fatal("host 0 with both NICs down should be isolated")
	}
}

// Queries through a reused scratch must not allocate.
func TestFabricQueriesZeroAlloc(t *testing.T) {
	f, err := topology.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFabricEvaluator(f)
	if err != nil {
		t.Fatal(err)
	}
	sc := fe.NewScratch()
	failed := []topology.Component{f.Switch(0), f.TrunkComp(3), f.NIC(9, 0)}
	// Warm the queue capacity.
	fe.PairConnected(sc, failed, 1, 100)
	allocs := testing.AllocsPerRun(100, func() {
		fe.PairConnected(sc, failed, 1, 100)
	})
	if allocs != 0 {
		t.Fatalf("PairConnected allocates %v per run, want 0", allocs)
	}
}

// searchFabrics are the shapes the pair-search checks run on: a
// switch-centric fat-tree at two sizes, the server-centric BCube whose
// paths relay through hosts, and the paper's dual-rail cluster.
func searchFabrics(tb testing.TB) []*topology.Fabric {
	tb.Helper()
	var out []*topology.Fabric
	for _, build := range []func() (*topology.Fabric, error){
		func() (*topology.Fabric, error) { return topology.FatTree(4) },
		func() (*topology.Fabric, error) { return topology.FatTree(6) },
		func() (*topology.Fabric, error) { return topology.BCube(4, 1) },
		func() (*topology.Fabric, error) { return topology.FromCluster(topology.Dual(5)) },
	} {
		f, err := build()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// TestPairSearchMatchesBFS: the two-ended pair search answers exactly
// what a single-source search does, for every ordered pair, over
// seeded independent failure sets from sparse to half the fabric down.
func TestPairSearchMatchesBFS(t *testing.T) {
	sets := 100
	if testing.Short() {
		sets = 25
	}
	for _, f := range searchFabrics(t) {
		fe, err := NewFabricEvaluator(f)
		if err != nil {
			t.Fatal(err)
		}
		sc := fe.NewScratch()
		r := rng.New(2)
		var failed []topology.Component
		for _, q := range []float64{0.02, 0.1, 0.25, 0.5} {
			for set := 0; set < sets; set++ {
				failed = rng.AppendBernoulli(r, failed[:0], f.Components(), q)
				for a := 0; a < f.Hosts(); a++ {
					reach := fe.hostsReachable(sc, failed, a)
					for b, want := range reach {
						if got := fe.PairConnected(sc, failed, a, b); got != want {
							t.Fatalf("%s, %d hosts, failed %v: PairConnected(%d,%d) = %v, hostsReachable says %v",
								f.Kind, f.Hosts(), failed, a, b, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFabricEpochWrap: queries straddling the visit-mark wrap still
// answer as a fresh scratch does.
func TestFabricEpochWrap(t *testing.T) {
	f, err := topology.BCube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFabricEvaluator(f)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	var failed []topology.Component
	for _, start := range []int32{1<<31 - 4, 1<<31 - 3, 1<<31 - 2} {
		sc := fe.NewScratch()
		// Leave marks of a whole-fabric search at every vertex, then
		// jump to the last epochs before the wrap.
		fe.AllConnected(sc, nil)
		sc.epoch = start
		for i := 0; i < 8; i++ {
			failed = rng.AppendBernoulli(r, failed[:0], f.Components(), 0.25)
			a, b := r.Intn(f.Hosts()), r.Intn(f.Hosts())
			fresh := fe.NewScratch()
			if got, want := fe.PairConnected(sc, failed, a, b), fe.PairConnected(fresh, failed, a, b); got != want {
				t.Fatalf("start %d, query %d: PairConnected(%d,%d) = %v, fresh scratch says %v", start, i, a, b, got, want)
			}
			if got, want := fe.AllConnected(sc, failed), fe.AllConnected(fresh, failed); got != want {
				t.Fatalf("start %d, query %d: AllConnected = %v, fresh scratch says %v", start, i, got, want)
			}
			if sc.epoch <= 0 {
				t.Fatalf("start %d, query %d: epoch overflowed to %d", start, i, sc.epoch)
			}
		}
		if sc.epoch >= start {
			t.Fatalf("start %d: epoch %d never wrapped", start, sc.epoch)
		}
	}
}

// FuzzFabricPairConnected: the fuzz bytes pick a fabric, a pair and a
// failure set (each further byte fails one component), and the
// two-ended search must agree with the single-source search.
func FuzzFabricPairConnected(f *testing.F) {
	var evals []*FabricEvaluator
	for _, build := range []func() (*topology.Fabric, error){
		func() (*topology.Fabric, error) { return topology.FatTree(4) },
		func() (*topology.Fabric, error) { return topology.BCube(4, 1) },
	} {
		fab, err := build()
		if err != nil {
			f.Fatal(err)
		}
		fe, err := NewFabricEvaluator(fab)
		if err != nil {
			f.Fatal(err)
		}
		evals = append(evals, fe)
	}
	f.Add([]byte{0, 0, 15})
	f.Add([]byte{0, 0, 15, 16, 24})
	f.Add([]byte{1, 0, 5, 16, 20})
	f.Add([]byte{1, 3, 12, 0, 1, 2, 3, 17, 21, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		fe := evals[int(data[0])%len(evals)]
		hosts := int(fe.hosts)
		a, b := int(data[1])%hosts, int(data[2])%hosts
		if a == b {
			b = (a + 1) % hosts
		}
		m := fe.f.Components()
		var failed []topology.Component
		for _, c := range data[3:] {
			failed = append(failed, topology.Component(int(c)%m))
		}
		sc := fe.NewScratch()
		sc.mark(failed)
		got := fe.meet(sc, a, b)
		fe.bfs(sc, a)
		want := sc.visited[b] == sc.epoch
		sc.unmark(failed)
		if got != want {
			t.Fatalf("%s, failed %v: meet(%d,%d) = %v, bfs says %v", fe.f.Kind, failed, a, b, got, want)
		}
	})
}

// hostsReachable returns, for each host, whether it can communicate
// with host a under the failure scenario: the single-source oracle the
// two-ended pair search is checked against.
func (e *FabricEvaluator) hostsReachable(sc *FabricScratch, failed []topology.Component, a int) []bool {
	e.checkHost(a)
	if sc == nil {
		sc = e.NewScratch()
	}
	sc.mark(failed)
	e.bfs(sc, a)
	out := make([]bool, e.f.Hosts())
	for h := range out {
		out[h] = sc.visited[h] == sc.epoch
	}
	out[a] = true
	sc.unmark(failed)
	return out
}
