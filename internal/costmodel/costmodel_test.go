package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFramesPerRound(t *testing.T) {
	p := Defaults()
	if got := p.FramesPerRound(2); got != 2 {
		t.Fatalf("2 nodes: %d frames, want 2 (request+reply)", got)
	}
	if got := p.FramesPerRound(4); got != 12 {
		t.Fatalf("4 nodes: %d frames, want 12 (6 pairs × 2)", got)
	}
	if got := p.FramesPerRound(1); got != 0 {
		t.Fatalf("1 node: %d frames, want 0", got)
	}
	p.OrderedPairs = true
	if got := p.FramesPerRound(4); got != 24 {
		t.Fatalf("ordered pairs 4 nodes: %d frames, want 24", got)
	}
}

func TestPaperHeadlineNinetyHosts(t *testing.T) {
	// "ninety hosts are supported in less than 1 second with only 10%
	// of the bandwidth usage."
	p := Defaults()
	rt, err := p.ResponseTime(90, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rt >= 1 {
		t.Fatalf("90 hosts at 10%% budget take %vs, paper says < 1s", rt)
	}
	n, err := p.MaxNodes(0.10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if n < 90 {
		t.Fatalf("MaxNodes(10%%, 1s) = %d, paper requires ≥ 90", n)
	}
}

func TestResponseTimeQuadratic(t *testing.T) {
	p := Defaults()
	rt1, err := p.ResponseTime(10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := p.ResponseTime(20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// n(n-1): 20·19 / 10·9 = 380/90
	want := rt1 * 380 / 90
	if math.Abs(rt2-want) > 1e-12 {
		t.Fatalf("scaling wrong: rt(20)=%v, want %v", rt2, want)
	}
}

func TestResponseTimeInverseInBudget(t *testing.T) {
	p := Defaults()
	err := quick.Check(func(n8 uint8, budPct uint8) bool {
		n := int(n8%100) + 2
		bud := (float64(budPct%99) + 1) / 100
		rt1, err1 := p.ResponseTime(n, bud)
		rt2, err2 := p.ResponseTime(n, bud/2)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(rt2-2*rt1) < 1e-9*rt1+1e-15
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestOverheadInvertsResponseTime(t *testing.T) {
	p := Defaults()
	for _, n := range []int{2, 10, 90, 128} {
		for _, bud := range FigureBudgets {
			rt, err := p.ResponseTime(n, bud)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Overhead(n, rt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-bud) > 1e-12 {
				t.Fatalf("Overhead(n=%d, rt=%v) = %v, want %v", n, rt, got, bud)
			}
		}
	}
}

func TestMaxNodesBoundary(t *testing.T) {
	p := Defaults()
	for _, bud := range FigureBudgets {
		for _, rtBudget := range []float64{0.1, 0.5, 1, 2} {
			n, err := p.MaxNodes(bud, rtBudget)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := p.ResponseTime(n, bud)
			if err != nil {
				t.Fatal(err)
			}
			if rt > rtBudget {
				t.Fatalf("MaxNodes(%v,%v) = %d but its round takes %v", bud, rtBudget, n, rt)
			}
			rtNext, err := p.ResponseTime(n+1, bud)
			if err != nil {
				t.Fatal(err)
			}
			if rtNext <= rtBudget {
				t.Fatalf("MaxNodes(%v,%v) = %d is not maximal: n+1 fits (%v)", bud, rtBudget, n, rtNext)
			}
		}
	}
}

func TestMaxNodesTooTight(t *testing.T) {
	p := Defaults()
	if _, err := p.MaxNodes(0.0001, 1e-6); err == nil {
		t.Fatal("impossible budget accepted")
	}
}

func TestCurve(t *testing.T) {
	// Figure 1's curves rise: response time grows with cluster size.
	p := Defaults()
	prev := 0.0
	for n := 2; n <= 128; n++ {
		rt, err := p.ResponseTime(n, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		if rt <= prev {
			t.Fatalf("N=%d: response time %v does not exceed N=%d's %v", n, rt, n-1, prev)
		}
		prev = rt
	}
}

func TestBudgetOrdering(t *testing.T) {
	// A bigger budget always means a faster round (Figure 1's curves
	// never cross).
	p := Defaults()
	for n := 2; n <= 128; n += 7 {
		prev := math.Inf(1)
		for _, bud := range FigureBudgets {
			rt, err := p.ResponseTime(n, bud)
			if err != nil {
				t.Fatal(err)
			}
			if rt >= prev {
				t.Fatalf("n=%d: budget %v not faster than smaller budget", n, bud)
			}
			prev = rt
		}
	}
}

func TestOrderedPairsDoublesCost(t *testing.T) {
	base := Defaults()
	doubled := Defaults()
	doubled.OrderedPairs = true
	rt1, err := base.ResponseTime(50, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := doubled.ResponseTime(50, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt2-2*rt1) > 1e-12 {
		t.Fatalf("ordered pairs: %v, want exactly double %v", rt2, rt1)
	}
}

func TestValidation(t *testing.T) {
	p := Defaults()
	if _, err := p.ResponseTime(1, 0.1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := p.ResponseTime(10, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := p.ResponseTime(10, 1.5); err == nil {
		t.Error("budget > 1 accepted")
	}
	if _, err := p.Overhead(10, 0); err == nil {
		t.Error("zero response time accepted")
	}
	bad := Params{LinkRate: 0, FrameBytes: 84}
	if _, err := bad.ResponseTime(10, 0.1); err == nil {
		t.Error("zero link rate accepted")
	}
	bad = Params{LinkRate: 1e8, FrameBytes: 0}
	if _, err := bad.ResponseTime(10, 0.1); err == nil {
		t.Error("zero frame size accepted")
	}
}
