package topology

import (
	"strings"
	"testing"
)

// The dual-rail fabric must keep the Cluster's dense component
// numbering exactly — goldens and stored bitsets depend on it.
func TestFromClusterNumberingIdentity(t *testing.T) {
	for _, n := range []int{2, 3, 12, 90} {
		cl := Dual(n)
		f, err := FromCluster(cl)
		if err != nil {
			t.Fatalf("FromCluster(Dual(%d)): %v", n, err)
		}
		if f.Hosts() != cl.Nodes || f.Ports() != cl.Rails || f.Switches() != cl.Rails || f.Trunks() != 0 {
			t.Fatalf("shape mismatch: hosts=%d ports=%d switches=%d trunks=%d",
				f.Hosts(), f.Ports(), f.Switches(), f.Trunks())
		}
		if f.Components() != cl.Components() {
			t.Fatalf("universe %d != cluster %d", f.Components(), cl.Components())
		}
		for i := 0; i < n; i++ {
			for r := 0; r < cl.Rails; r++ {
				if f.NIC(i, r) != cl.NIC(i, r) {
					t.Fatalf("NIC(%d,%d): fabric %d != cluster %d", i, r, f.NIC(i, r), cl.NIC(i, r))
				}
			}
		}
		for r := 0; r < cl.Rails; r++ {
			if f.Switch(r) != cl.Backplane(r) {
				t.Fatalf("Switch(%d) %d != Backplane %d", r, f.Switch(r), cl.Backplane(r))
			}
			if got, want := f.Name(f.Switch(r)), cl.Name(cl.Backplane(r)); got != want {
				t.Fatalf("switch name %q != backplane name %q", got, want)
			}
		}
		if got, want := f.Name(f.NIC(1, 1)), cl.Name(cl.NIC(1, 1)); got != want {
			t.Fatalf("nic name %q != %q", got, want)
		}
	}
}

func TestFabricDescribeRoundTrip(t *testing.T) {
	f, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < f.Hosts(); h++ {
		for p := 0; p < f.Ports(); p++ {
			kind, a, b := f.Describe(f.NIC(h, p))
			if kind != KindNIC || a != h || b != p {
				t.Fatalf("Describe(NIC(%d,%d)) = %v,%d,%d", h, p, kind, a, b)
			}
		}
	}
	for s := 0; s < f.Switches(); s++ {
		kind, a, _ := f.Describe(f.Switch(s))
		if kind != KindSwitch || a != s {
			t.Fatalf("Describe(Switch(%d)) = %v,%d", s, kind, a)
		}
	}
	for tr := 0; tr < f.Trunks(); tr++ {
		kind, a, _ := f.Describe(f.TrunkComp(tr))
		if kind != KindTrunk || a != tr {
			t.Fatalf("Describe(Trunk(%d)) = %v,%d", tr, kind, a)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	cases := []struct {
		k, hosts, switches, trunks int
	}{
		{2, 2, 5, 4},      // 2 hosts, 2 edge + 2 agg + 1 core
		{4, 16, 20, 32},   // canonical k=4
		{8, 128, 80, 256}, // k=8
	}
	for _, c := range cases {
		f, err := FatTree(c.k)
		if err != nil {
			t.Fatalf("FatTree(%d): %v", c.k, err)
		}
		if f.Hosts() != c.hosts || f.Switches() != c.switches || f.Trunks() != c.trunks {
			t.Fatalf("FatTree(%d): hosts=%d switches=%d trunks=%d, want %d/%d/%d",
				c.k, f.Hosts(), f.Switches(), f.Trunks(), c.hosts, c.switches, c.trunks)
		}
		if f.Ports() != 1 {
			t.Fatalf("FatTree(%d): ports=%d, want 1", c.k, f.Ports())
		}
		// Every edge switch serves exactly k/2 hosts.
		count := make([]int, f.Switches())
		for h := 0; h < f.Hosts(); h++ {
			count[f.HostSwitch(h, 0)]++
		}
		for s, n := range count {
			if s < c.k*c.k/2 && n != c.k/2 {
				t.Fatalf("FatTree(%d): edge switch %d serves %d hosts, want %d", c.k, s, n, c.k/2)
			}
			if s >= c.k*c.k/2 && n != 0 {
				t.Fatalf("FatTree(%d): non-edge switch %d serves hosts", c.k, s)
			}
		}
	}
	if _, err := FatTree(3); err == nil {
		t.Fatal("FatTree(3) should reject odd arity")
	}
	if _, err := FatTree(0); err == nil {
		t.Fatal("FatTree(0) should fail")
	}
	// Arity past the 2^20-host limit fails before allocating anything,
	// however large (k³/4 would overflow an int long before 1<<62).
	for _, k := range []int{162, 1 << 40, 1 << 62} {
		if _, err := FatTree(k); err == nil || !strings.Contains(err.Error(), "above 160") {
			t.Fatalf("FatTree(%d): err = %v, want the host limit", k, err)
		}
	}
}

func TestBCubeShape(t *testing.T) {
	f, err := BCube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hosts() != 16 || f.Ports() != 2 || f.Switches() != 8 || f.Trunks() != 0 {
		t.Fatalf("BCube(4,1): hosts=%d ports=%d switches=%d trunks=%d",
			f.Hosts(), f.Ports(), f.Switches(), f.Trunks())
	}
	// Level-0 switch of host h groups hosts with the same high digit;
	// level-1 groups hosts with the same low digit.
	for h := 0; h < 16; h++ {
		if got, want := f.HostSwitch(h, 0), h/4; got != want {
			t.Fatalf("host %d level-0 switch %d, want %d", h, got, want)
		}
		if got, want := f.HostSwitch(h, 1), 4+h%4; got != want {
			t.Fatalf("host %d level-1 switch %d, want %d", h, got, want)
		}
	}
	// Each switch has exactly n=4 hosts.
	count := make([]int, f.Switches())
	for h := 0; h < f.Hosts(); h++ {
		for p := 0; p < f.Ports(); p++ {
			count[f.HostSwitch(h, p)]++
		}
	}
	for s, n := range count {
		if n != 4 {
			t.Fatalf("switch %d serves %d hosts, want 4", s, n)
		}
	}
	if _, err := BCube(1, 1); err == nil {
		t.Fatal("BCube(1,1) should reject radix < 2")
	}
	if _, err := BCube(2, -1); err == nil {
		t.Fatal("BCube(2,-1) should reject negative level")
	}
}

func TestFabricParse(t *testing.T) {
	f, err := Parse("fatTree:k=4")
	if err != nil || f.Kind != "fatTree" || f.Hosts() != 16 {
		t.Fatalf("Parse(fatTree:k=4) = %v, %v", f, err)
	}
	f, err = Parse("bcube:n=4,k=1")
	if err != nil || f.Kind != "bcube" || f.Hosts() != 16 {
		t.Fatalf("Parse(bcube:n=4,k=1) = %v, %v", f, err)
	}
	f, err = Parse("dualRail:n=12")
	if err != nil || f.Kind != "dualRail" || f.Hosts() != 12 || f.Ports() != 2 {
		t.Fatalf("Parse(dualRail:n=12) = %v, %v", f, err)
	}
	for _, bad := range []string{"", "fatTree", "fatTree:k=3", "mesh:n=4", "bcube:n=x", "fatTree:k"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
	if _, err := Parse("fatTree"); err == nil || !strings.Contains(err.Error(), "k=") {
		t.Fatalf("Parse(fatTree) error should mention k=, got %v", err)
	}
}

func TestFabricValidation(t *testing.T) {
	if _, err := NewFabric("x", 1, 1, 1, []int32{0}, nil); err == nil {
		t.Fatal("1 host should fail")
	}
	if _, err := NewFabric("x", 2, 1, 1, []int32{0, 5}, nil); err == nil {
		t.Fatal("out-of-range switch should fail")
	}
	if _, err := NewFabric("x", 2, 1, 2, []int32{0, 1}, []Trunk{{0, 0}}); err == nil {
		t.Fatal("self-loop trunk should fail")
	}
	if _, err := NewFabric("x", 2, 1, 2, []int32{0}, nil); err == nil {
		t.Fatal("short wiring should fail")
	}
}

func TestSwitchNeighborsDeterministic(t *testing.T) {
	// Declare trunks out of order; adjacency must come back sorted.
	f, err := NewFabric("x", 2, 1, 4, []int32{0, 0}, []Trunk{{0, 3}, {0, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	f.SwitchNeighbors(0, func(nb, tr int) { got = append(got, nb) })
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("neighbors of 0 = %v, want [1 2 3]", got)
	}
}
