package drsnet

import (
	"math"
	"testing"
	"time"
)

func TestAllPairsPSuccessFacade(t *testing.T) {
	// All-pairs is strictly stricter than the designated pair.
	for _, n := range []int{4, 12, 45} {
		for _, f := range []int{2, 4} {
			all := AllPairsPSuccess(n, f)
			pair := PSuccess(n, f)
			if all > pair {
				t.Fatalf("n=%d f=%d: all-pairs %v exceeds pair %v", n, f, all, pair)
			}
			if all <= 0 || all >= 1 {
				t.Fatalf("n=%d f=%d: all-pairs = %v", n, f, all)
			}
		}
	}
}

func TestClusterAvailabilityFacade(t *testing.T) {
	av, err := ClusterAvailability(10, 1000*time.Hour, 4*time.Hour, 2500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if av.Q <= 0 || av.Q >= 1 {
		t.Fatalf("q = %v", av.Q)
	}
	if !(av.Effective < av.Structural) {
		t.Fatalf("effective %v not below structural %v", av.Effective, av.Structural)
	}
	if av.Nines < 2 {
		t.Fatalf("nines = %d for a 1000h-MTBF cluster", av.Nines)
	}
	wantDowntime := time.Duration((1 - av.Effective) * 365 * 24 * float64(time.Hour))
	if d := av.DowntimePerYear - wantDowntime; d < -time.Second || d > time.Second {
		t.Fatalf("downtime %v inconsistent with effective %v", av.DowntimePerYear, av.Effective)
	}
	if _, err := ClusterAvailability(1, time.Hour, time.Minute, time.Second); err == nil {
		t.Fatal("bad cluster size accepted")
	}
	if _, err := ClusterAvailability(10, 0, time.Minute, time.Second); err == nil {
		t.Fatal("zero MTBF accepted")
	}
}

func TestClusterRestoreNIC(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 3, ProbeInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Run(500 * time.Millisecond)
	if err := c.FailNIC(1, 0); err != nil {
		t.Fatal(err)
	}
	c.Run(500 * time.Millisecond)
	if c.LinkUp(0, 1, 0) {
		t.Fatal("failure unnoticed")
	}
	if err := c.RestoreNIC(1, 0); err != nil {
		t.Fatal(err)
	}
	c.Run(500 * time.Millisecond)
	if !c.LinkUp(0, 1, 0) {
		t.Fatal("restore unnoticed")
	}
	// Validation paths.
	if err := c.RestoreNIC(9, 0); err == nil {
		t.Error("bad node accepted")
	}
	if err := c.RestoreNIC(0, 9); err == nil {
		t.Error("bad rail accepted")
	}
	if err := c.RestoreBackplane(9); err == nil {
		t.Error("bad backplane accepted")
	}
}

func TestCostModelCustomParams(t *testing.T) {
	m := CostModel{LinkRateBits: 1e9, ProbeFrameBytes: 84}
	rt, err := m.ResponseTime(90, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Gigabit: 10× faster than the default net: 0.538s / 10 = 53.8ms.
	want := 0.53827 / 10
	if math.Abs(rt.Seconds()-want) > 1e-3 {
		t.Fatalf("gigabit response = %v, want ~%vs", rt, want)
	}
}

func TestClusterRTTFacade(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 3, ProbeInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, ok := c.RTTOf(0, 1, 0); ok {
		t.Fatal("RTT before first probe reported")
	}
	c.Run(time.Second)
	rtt, ok := c.RTTOf(0, 1, 0)
	if !ok || rtt.Samples == 0 || rtt.SRTT <= 0 {
		t.Fatalf("rtt = %+v, ok = %v", rtt, ok)
	}
	if _, ok := c.RTTOf(9, 1, 0); ok {
		t.Fatal("bad node accepted")
	}
}
