package montecarlo

import (
	"math"
	"testing"

	"drsnet/internal/conn"
	"drsnet/internal/survival"
	"drsnet/internal/topology"
)

func mustFatTree(tb testing.TB, k int) *topology.Fabric {
	tb.Helper()
	f, err := topology.FatTree(k)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestEstimateFabricMatchesDualRailAnalytic checks the fabric
// estimator against Equation 1 on the one shape where the closed form
// applies: a dual-rail cluster rebuilt as a Fabric.
func TestEstimateFabricMatchesDualRailAnalytic(t *testing.T) {
	const n, f = 12, 3
	fab, err := topology.FromCluster(topology.Dual(n))
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateFabric(FabricConfig{
		Fabric:     fab,
		Failures:   f,
		Iterations: 40000,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := survival.PSuccessFloat(n, f)
	if d := math.Abs(res.P - want); d > 0.015 {
		t.Fatalf("P = %.5f, analytic %.5f (|diff| %.5f)", res.P, want, d)
	}
}

// TestEstimateFabricMatchesExactSingleFailure cross-checks the f=1
// estimate on a k=4 fat-tree against exhaustive enumeration of every
// single-component failure.
func TestEstimateFabricMatchesExactSingleFailure(t *testing.T) {
	fab := mustFatTree(t, 4)
	eval, err := conn.NewFabricEvaluator(fab)
	if err != nil {
		t.Fatal(err)
	}
	const a, b = 0, 15
	m := fab.Components()
	ok := 0
	for c := 0; c < m; c++ {
		if eval.PairConnected(nil, []topology.Component{topology.Component(c)}, a, b) {
			ok++
		}
	}
	exact := float64(ok) / float64(m)

	res, err := EstimateFabric(FabricConfig{
		Fabric:     fab,
		Failures:   1,
		Iterations: 50000,
		Seed:       11,
		PairA:      a,
		PairB:      b,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(res.P - exact); d > 3*res.CI95+1e-9 {
		t.Fatalf("P = %.5f, exact %.5f, CI95 %.5f", res.P, exact, res.CI95)
	}
}

func TestEstimateFabricDeterministicAcrossWorkerCounts(t *testing.T) {
	fab := mustFatTree(t, 4)
	base := FabricConfig{
		Fabric:     fab,
		Failures:   5,
		Iterations: 3 * chunkSize, // exercise multiple chunks
		Seed:       42,
	}
	var first Result
	for i, w := range []int{1, 2, 7} {
		cfg := base
		cfg.Workers = w
		res, err := EstimateFabric(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
			continue
		}
		if res != first {
			t.Fatalf("workers=%d: %+v != %+v", w, res, first)
		}
	}
}

func TestEstimateFabricQModel(t *testing.T) {
	fab := mustFatTree(t, 4)
	// Near-zero component unavailability: the pair should almost
	// always communicate.
	res, err := EstimateFabric(FabricConfig{
		Fabric:     fab,
		Q:          1e-4,
		Iterations: 5000,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.99 {
		t.Fatalf("q=1e-4 gives P = %.4f, want ≈ 1", res.P)
	}
	// Heavy unavailability must hurt.
	bad, err := EstimateFabric(FabricConfig{
		Fabric:     fab,
		Q:          0.5,
		Iterations: 5000,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.P >= res.P {
		t.Fatalf("q=0.5 gives P = %.4f, not below q=1e-4's %.4f", bad.P, res.P)
	}
}

func TestEstimateFabricBCubeRelayCounts(t *testing.T) {
	// BCube(2,1): 4 hosts, 2 ports each, 4 switches, no trunks. Host
	// relaying is what connects different-level pairs, so all-pairs
	// survivability with a single failure is still high.
	fab, err := topology.BCube(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateFabric(FabricConfig{
		Fabric:     fab,
		Failures:   1,
		Iterations: 2000,
		Seed:       9,
		AllPairs:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Any single NIC failure leaves its host attached via the other
	// port; any single switch failure leaves the level-peer switches.
	if res.P != 1 {
		t.Fatalf("BCube(2,1) all-pairs under f=1: P = %.4f, want 1", res.P)
	}
}

// TestEstimateFabricPinned pins exact results of all three scoring
// modes: any change to how failures are drawn or how connectivity is
// searched that is not exact shows up here, at every worker count.
func TestEstimateFabricPinned(t *testing.T) {
	ft8, ft4 := mustFatTree(t, 8), mustFatTree(t, 4)
	bc, err := topology.BCube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  FabricConfig
		want Result
	}{
		{"q model", FabricConfig{Fabric: ft8, Q: 0.01, Iterations: 8192, Seed: 1, PairB: ft8.Hosts() - 1},
			Result{Successes: 7853, Iterations: 8192, P: 0.9586181640625, CI95: 0.004313092812521461}},
		{"fixed f", FabricConfig{Fabric: ft4, Failures: 3, Iterations: 20000, Seed: 5, PairB: 15},
			Result{Successes: 16427, Iterations: 20000, P: 0.82135, CI95: 0.005308926521830943}},
		{"all pairs", FabricConfig{Fabric: bc, Failures: 2, Iterations: 20000, Seed: 9, AllPairs: true},
			Result{Successes: 18356, Iterations: 20000, P: 0.9178, CI95: 0.0038067206586246917}},
	} {
		for _, w := range []int{1, 3} {
			cfg := c.cfg
			cfg.Workers = w
			got, err := EstimateFabric(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("%s, workers=%d: %+v, pinned %+v", c.name, w, got, c.want)
			}
		}
	}
}

func TestEstimateFabricConfigErrors(t *testing.T) {
	fab := mustFatTree(t, 4)
	good := func() FabricConfig {
		return FabricConfig{Fabric: fab, Failures: 2, Iterations: 10, Seed: 1}
	}
	for name, mutate := range map[string]func(*FabricConfig){
		"nil fabric":    func(c *FabricConfig) { c.Fabric = nil },
		"both models":   func(c *FabricConfig) { c.Q = 0.1 },
		"neither model": func(c *FabricConfig) { c.Failures = 0 },
		"failures oob":  func(c *FabricConfig) { c.Failures = fab.Components() + 1 },
		"q oob":         func(c *FabricConfig) { c.Failures = 0; c.Q = 1 },
		"q NaN":         func(c *FabricConfig) { c.Failures = 0; c.Q = math.NaN() },
		"f and q NaN":   func(c *FabricConfig) { c.Q = math.NaN() },
		"iterations":    func(c *FabricConfig) { c.Iterations = 0 },
		"workers":       func(c *FabricConfig) { c.Workers = -1 },
		"pair oob":      func(c *FabricConfig) { c.PairB = 99 },
		"pair equal":    func(c *FabricConfig) { c.PairA = 1; c.PairB = 1 },
	} {
		cfg := good()
		mutate(&cfg)
		if _, err := EstimateFabric(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// BenchmarkFatTree10kSurvivability is the scale benchmark from the
// fabric refactor: build a 10k+-host fat-tree (k=36 → 11664 hosts)
// and Monte Carlo-estimate pair survivability on it, with exactly 8
// failed components per scenario and with each of the 36 612
// components failed independently at q = 0.01.
func BenchmarkFatTree10kSurvivability(b *testing.B) {
	for _, c := range []struct {
		name     string
		failures int
		q        float64
	}{
		{"f=8", 8, 0},
		{"q=0.01", 0, 0.01},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fab, err := topology.FatTree(36)
				if err != nil {
					b.Fatal(err)
				}
				res, err := EstimateFabric(FabricConfig{
					Fabric:     fab,
					Failures:   c.failures,
					Q:          c.q,
					Iterations: 512,
					Seed:       1,
					PairA:      0,
					PairB:      fab.Hosts() - 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Iterations != 512 {
					b.Fatalf("ran %d iterations", res.Iterations)
				}
			}
			b.ReportMetric(11664, "hosts")
		})
	}
}
