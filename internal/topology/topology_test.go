package topology

import (
	"testing"
	"testing/quick"
)

func TestDualShape(t *testing.T) {
	c := Dual(8)
	if c.Nodes != 8 || c.Rails != 2 {
		t.Fatalf("Dual(8) = %+v", c)
	}
	if got, want := c.Components(), 2*8+2; got != want {
		t.Fatalf("Components = %d, want %d (the paper's 2N+2)", got, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		c  Cluster
		ok bool
	}{
		{Cluster{2, 1}, true},
		{Cluster{2, 2}, true},
		{Cluster{1, 2}, false},
		{Cluster{0, 2}, false},
		{Cluster{4, 0}, false},
	} {
		err := tc.c.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.c, err, tc.ok)
		}
	}
}

func TestComponentNumberingRoundTrip(t *testing.T) {
	err := quick.Check(func(n8, r8 uint8) bool {
		n := int(n8%64) + 2
		r := int(r8%4) + 1
		c := Cluster{Nodes: n, Rails: r}
		seen := make(map[Component]bool)
		for node := 0; node < n; node++ {
			for rail := 0; rail < r; rail++ {
				comp := c.NIC(node, rail)
				if seen[comp] {
					return false
				}
				seen[comp] = true
				kind, gotNode, gotRail := c.Describe(comp)
				if kind != KindNIC || gotNode != node || gotRail != rail {
					return false
				}
			}
		}
		for rail := 0; rail < r; rail++ {
			comp := c.Backplane(rail)
			if seen[comp] {
				return false
			}
			seen[comp] = true
			kind, node, gotRail := c.Describe(comp)
			if kind != KindBackplane || node != -1 || gotRail != rail {
				return false
			}
		}
		return len(seen) == c.Components()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	c := Dual(4)
	if got := c.Name(c.NIC(3, 1)); got != "nic(3,1)" {
		t.Fatalf("Name = %q", got)
	}
	if got := c.Name(c.Backplane(0)); got != "backplane(0)" {
		t.Fatalf("Name = %q", got)
	}
	if KindNIC.String() != "nic" || KindBackplane.String() != "backplane" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	c := Dual(4)
	for name, fn := range map[string]func(){
		"NIC node":       func() { c.NIC(4, 0) },
		"NIC rail":       func() { c.NIC(0, 2) },
		"Backplane rail": func() { c.Backplane(2) },
		"Describe":       func() { c.Describe(Component(c.Components())) },
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
