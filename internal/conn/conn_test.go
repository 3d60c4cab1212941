package conn

import (
	"testing"
	"testing/quick"

	"drsnet/internal/rng"
	"drsnet/internal/topology"
)

func mustEval(t *testing.T, c topology.Cluster) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// refPairConnected is an independent reference implementation: build
// the explicit node graph (edge iff the two nodes share an alive rail)
// and BFS.
func refPairConnected(c topology.Cluster, failed []topology.Component, a, b int) bool {
	alive := make([]bool, c.Rails)
	for i := range alive {
		alive[i] = true
	}
	nicUp := make([][]bool, c.Nodes)
	for i := range nicUp {
		nicUp[i] = make([]bool, c.Rails)
		for k := range nicUp[i] {
			nicUp[i][k] = true
		}
	}
	for _, comp := range failed {
		kind, node, rail := c.Describe(comp)
		if kind == topology.KindBackplane {
			alive[rail] = false
		} else {
			nicUp[node][rail] = false
		}
	}
	attached := func(node, rail int) bool { return alive[rail] && nicUp[node][rail] }
	adj := func(i, j int) bool {
		for k := 0; k < c.Rails; k++ {
			if attached(i, k) && attached(j, k) {
				return true
			}
		}
		return false
	}
	visited := make([]bool, c.Nodes)
	queue := []int{a}
	visited[a] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == b {
			return true
		}
		for j := 0; j < c.Nodes; j++ {
			if !visited[j] && adj(cur, j) {
				visited[j] = true
				queue = append(queue, j)
			}
		}
	}
	return visited[b]
}

func TestKnownScenariosDual(t *testing.T) {
	// Nodes A=0, B=1 in a 5-node dual-rail cluster.
	c := topology.Dual(5)
	e := mustEval(t, c)
	a0 := c.NIC(0, 0)
	a1 := c.NIC(0, 1)
	b0 := c.NIC(1, 0)
	b1 := c.NIC(1, 1)
	bp0 := c.Backplane(0)
	bp1 := c.Backplane(1)

	cases := []struct {
		name   string
		failed []topology.Component
		want   bool
	}{
		{"no failures", nil, true},
		{"one backplane", []topology.Component{bp0}, true},
		{"both backplanes", []topology.Component{bp0, bp1}, false},
		{"A loses both NICs", []topology.Component{a0, a1}, false},
		{"B loses both NICs", []topology.Component{b0, b1}, false},
		{"bp0 down and A's other NIC down", []topology.Component{bp0, a1}, false},
		{"bp0 down and B's other NIC down", []topology.Component{bp0, b1}, false},
		{"bp1 down and A's other NIC down", []topology.Component{bp1, a0}, false},
		{"same-rail NIC pair still direct on other rail", []topology.Component{a0, b0}, true},
		{"cross-rail NICs need a relay (exists)", []topology.Component{a0, b1}, true},
		{"cross-rail plus all relays cut", []topology.Component{a0, b1,
			c.NIC(2, 0), c.NIC(3, 0), c.NIC(4, 0)}, false},
		{"cross-rail, relays cut on mixed rails", []topology.Component{a0, b1,
			c.NIC(2, 0), c.NIC(3, 1), c.NIC(4, 0)}, false},
		{"cross-rail, one relay intact", []topology.Component{a0, b1,
			c.NIC(2, 0), c.NIC(3, 0)}, true},
		{"unrelated NIC failures", []topology.Component{c.NIC(2, 0), c.NIC(3, 1)}, true},
	}
	for _, tc := range cases {
		if got := e.PairConnected(tc.failed, 0, 1); got != tc.want {
			t.Errorf("%s: PairConnected = %v, want %v", tc.name, got, tc.want)
		}
		if ref := refPairConnected(c, tc.failed, 0, 1); ref != tc.want {
			t.Errorf("%s: reference implementation disagrees with expectation (%v)", tc.name, ref)
		}
	}
}

func TestCrossRailRelaysCutOnMixedRailsIsSubtle(t *testing.T) {
	// With A only on rail 1 and B only on rail 0, a relay needs BOTH
	// NICs up. Node 2 keeps rail 1 only, node 3 keeps rail 0 only:
	// neither bridges, and chaining 2→3 is impossible because they do
	// not share a rail with each other... actually they do not share a
	// live path to both endpoints. Verify against the reference.
	c := topology.Dual(4)
	e := mustEval(t, c)
	failed := []topology.Component{
		c.NIC(0, 0), c.NIC(1, 1), // A on rail1 only, B on rail0 only
		c.NIC(2, 0), c.NIC(3, 1), // node2 on rail1 only, node3 on rail0 only
	}
	got := e.PairConnected(failed, 0, 1)
	want := refPairConnected(c, failed, 0, 1)
	if got != want {
		t.Fatalf("PairConnected = %v, reference = %v", got, want)
	}
	if want {
		t.Fatal("expected disconnection: no node bridges the two rails")
	}
}

func TestTwoNodeCluster(t *testing.T) {
	c := topology.Dual(2)
	e := mustEval(t, c)
	// Cross-rail NIC failures with no third node to relay: fail.
	failed := []topology.Component{c.NIC(0, 0), c.NIC(1, 1)}
	if e.PairConnected(failed, 0, 1) {
		t.Fatal("two-node cluster has no relay; cross-rail failures must disconnect")
	}
	// Same-rail failures leave the other rail direct.
	failed = []topology.Component{c.NIC(0, 0), c.NIC(1, 0)}
	if !e.PairConnected(failed, 0, 1) {
		t.Fatal("same-rail failures should leave rail 1 direct")
	}
}

func TestSelfIsAlwaysConnected(t *testing.T) {
	c := topology.Dual(3)
	e := mustEval(t, c)
	failed := []topology.Component{c.NIC(1, 0), c.NIC(1, 1)}
	if !e.PairConnected(failed, 1, 1) {
		t.Fatal("a node must always be connected to itself")
	}
}

func TestAgainstReferenceQuick(t *testing.T) {
	r := rng.New(2024)
	err := quick.Check(func(n8, f8, seed uint8) bool {
		n := int(n8%10) + 2
		c := topology.Dual(n)
		e, err := NewEvaluator(c)
		if err != nil {
			return false
		}
		m := c.Components()
		f := int(f8) % (m + 1)
		sub := r.Split(uint64(seed) ^ uint64(n)<<8 ^ uint64(f)<<16)
		idx := make([]int, f)
		sub.SampleK(idx, m)
		failed := make([]topology.Component, f)
		for i, v := range idx {
			failed[i] = topology.Component(v)
		}
		a := sub.Intn(n)
		b := sub.Intn(n)
		return e.PairConnected(failed, a, b) == refPairConnected(c, failed, a, b)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAgainstReferenceThreeRails(t *testing.T) {
	// Multi-rail chains exercise the rail-closure logic: A on rail 0
	// only, B on rail 2 only, bridged by two partial relays.
	c := topology.Cluster{Nodes: 4, Rails: 3}
	e := mustEval(t, c)
	failed := []topology.Component{
		c.NIC(0, 1), c.NIC(0, 2), // A rail0 only
		c.NIC(1, 0), c.NIC(1, 1), // B rail2 only
		c.NIC(2, 2), // node2 bridges rails 0,1
		c.NIC(3, 0), // node3 bridges rails 1,2
	}
	if !e.PairConnected(failed, 0, 1) {
		t.Fatal("two-hop relay chain across three rails should connect")
	}
	if !refPairConnected(c, failed, 0, 1) {
		t.Fatal("reference disagrees with scenario expectation")
	}
	// Cut the chain.
	failed = append(failed, c.NIC(3, 1))
	if e.PairConnected(failed, 0, 1) {
		t.Fatal("severed relay chain should disconnect")
	}
}

func TestAgainstReferenceQuickMultiRail(t *testing.T) {
	r := rng.New(7)
	err := quick.Check(func(n8, r8, f8, seed uint8) bool {
		n := int(n8%8) + 2
		rails := int(r8%4) + 1
		c := topology.Cluster{Nodes: n, Rails: rails}
		e, err := NewEvaluator(c)
		if err != nil {
			return false
		}
		m := c.Components()
		f := int(f8) % (m + 1)
		sub := r.Split(uint64(seed)<<24 ^ uint64(n)<<16 ^ uint64(rails)<<8 ^ uint64(f))
		idx := make([]int, f)
		sub.SampleK(idx, m)
		failed := make([]topology.Component, f)
		for i, v := range idx {
			failed[i] = topology.Component(v)
		}
		a := sub.Intn(n)
		b := sub.Intn(n)
		return e.PairConnected(failed, a, b) == refPairConnected(c, failed, a, b)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllConnected(t *testing.T) {
	c := topology.Dual(4)
	e := mustEval(t, c)
	if !e.AllConnected(nil) {
		t.Fatal("healthy cluster must be fully connected")
	}
	if e.AllConnected([]topology.Component{c.Backplane(0), c.Backplane(1)}) {
		t.Fatal("both backplanes down cannot be fully connected")
	}
	if e.AllConnected([]topology.Component{c.NIC(2, 0), c.NIC(2, 1)}) {
		t.Fatal("an isolated node breaks full connectivity")
	}
	// One backplane down: everyone still shares rail 1.
	if !e.AllConnected([]topology.Component{c.Backplane(0)}) {
		t.Fatal("single backplane failure should be survivable")
	}
}

func TestAllConnectedImpliesAllPairs(t *testing.T) {
	r := rng.New(99)
	c := topology.Dual(6)
	e := mustEval(t, c)
	m := c.Components()
	for trial := 0; trial < 500; trial++ {
		f := r.Intn(m)
		idx := make([]int, f)
		r.SampleK(idx, m)
		failed := make([]topology.Component, f)
		for i, v := range idx {
			failed[i] = topology.Component(v)
		}
		all := e.AllConnected(failed)
		pairwise := true
		for a := 0; a < c.Nodes && pairwise; a++ {
			for b := a + 1; b < c.Nodes; b++ {
				if !e.PairConnected(failed, a, b) {
					pairwise = false
					break
				}
			}
		}
		if all != pairwise {
			t.Fatalf("trial %d: AllConnected=%v but pairwise=%v (failed=%v)", trial, all, pairwise, failed)
		}
	}
}

func TestAttachedRails(t *testing.T) {
	c := topology.Dual(3)
	e := mustEval(t, c)
	if got := e.allMasks(nil)[0]; got != 0b11 {
		t.Fatalf("healthy attachment = %b", got)
	}
	got := e.allMasks([]topology.Component{c.NIC(0, 0)})[0]
	if got != 0b10 {
		t.Fatalf("attachment after nic(0,0) fail = %b", got)
	}
	got = e.allMasks([]topology.Component{c.Backplane(1)})[0]
	if got != 0b01 {
		t.Fatalf("attachment after backplane(1) fail = %b", got)
	}
}

func TestComponentsReachable(t *testing.T) {
	c := topology.Dual(4)
	e := mustEval(t, c)
	// Isolate node 2.
	failed := []topology.Component{c.NIC(2, 0), c.NIC(2, 1)}
	for a := 0; a < c.Nodes; a++ {
		for b := 0; b < c.Nodes; b++ {
			want := a == b || (a != 2 && b != 2)
			if got := e.PairConnected(failed, a, b); got != want {
				t.Errorf("PairConnected(%d, %d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestNewEvaluatorRejectsBadShapes(t *testing.T) {
	if _, err := NewEvaluator(topology.Cluster{Nodes: 1, Rails: 2}); err == nil {
		t.Fatal("1-node cluster accepted")
	}
	if _, err := NewEvaluator(topology.Cluster{Nodes: 4, Rails: 65}); err == nil {
		t.Fatal("65-rail cluster accepted")
	}
}

func TestLargeFailureListFallback(t *testing.T) {
	// More failed components than the fast path tracks: should fall
	// back to the general path and agree with the reference.
	c := topology.Dual(40)
	e := mustEval(t, c)
	var failed []topology.Component
	for i := 2; i < 38; i++ {
		failed = append(failed, c.NIC(i, 0))
	}
	got := e.PairConnected(failed, 0, 1)
	if ref := refPairConnected(c, failed, 0, 1); got != ref {
		t.Fatalf("fallback path = %v, reference = %v", got, ref)
	}
}

func BenchmarkPairConnectedF4(b *testing.B) {
	c := topology.Dual(63)
	e, err := NewEvaluator(c)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	m := c.Components()
	idx := make([]int, 4)
	failed := make([]topology.Component, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SampleK(idx, m)
		for j, v := range idx {
			failed[j] = topology.Component(v)
		}
		e.PairConnected(failed, 0, 1)
	}
}

func TestGeneralPathAgainstReferenceQuick(t *testing.T) {
	// Force the general (non-fast) path by exceeding the tracked-node
	// budget with many distinct affected nodes.
	r := rng.New(555)
	c := topology.Dual(40)
	e := mustEval(t, c)
	m := c.Components()
	for trial := 0; trial < 200; trial++ {
		f := 33 + r.Intn(20)
		idx := make([]int, f)
		r.SampleK(idx, m)
		failed := make([]topology.Component, f)
		for i, v := range idx {
			failed[i] = topology.Component(v)
		}
		a := r.Intn(40)
		b := r.Intn(40)
		if got, want := e.PairConnected(failed, a, b), refPairConnected(c, failed, a, b); got != want {
			t.Fatalf("trial %d: general path %v, reference %v", trial, got, want)
		}
	}
}

func TestCheckNodePanics(t *testing.T) {
	e := mustEval(t, topology.Dual(3))
	for name, fn := range map[string]func(){
		"PairConnected a": func() { e.PairConnected(nil, -1, 1) },
		"PairConnected b": func() { e.PairConnected(nil, 0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSixtyFourRails(t *testing.T) {
	// The rail mask is a uint64; 64 rails is the documented limit and
	// must work end to end.
	c := topology.Cluster{Nodes: 2, Rails: 64}
	e := mustEval(t, c)
	var failed []topology.Component
	// Cut node 0 from every rail except the last.
	for rail := 0; rail < 63; rail++ {
		failed = append(failed, c.NIC(0, rail))
	}
	if !e.PairConnected(failed, 0, 1) {
		t.Fatal("last rail should still connect")
	}
	failed = append(failed, c.NIC(0, 63))
	if e.PairConnected(failed, 0, 1) {
		t.Fatal("node 0 fully cut should disconnect")
	}
}
