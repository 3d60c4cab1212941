package costmodel

import (
	"math"
	"testing"
)

func TestSwitchedScalesLinearly(t *testing.T) {
	p := Defaults()
	p.Switched = true
	rt10, err := p.ResponseTime(10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rt20, err := p.ResponseTime(20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// (n-1): 19/9.
	want := rt10 * 19 / 9
	if math.Abs(rt20-want) > 1e-12 {
		t.Fatalf("switched scaling wrong: rt(20)=%v, want %v", rt20, want)
	}
}

func TestSwitchedBeatsHub(t *testing.T) {
	hub := Defaults()
	sw := Defaults()
	sw.Switched = true
	for _, n := range []int{4, 16, 64, 128} {
		hrt, err := hub.ResponseTime(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		srt, err := sw.ResponseTime(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if srt >= hrt {
			t.Fatalf("n=%d: switch (%v) not faster than hub (%v)", n, srt, hrt)
		}
		// The advantage is exactly the medium-sharing factor n: the
		// hub carries all n(n-1) frames of the round, the busiest
		// switch port only its own n-1.
		if ratio := hrt / srt; math.Abs(ratio-float64(n)) > 1e-9 {
			t.Fatalf("n=%d: hub/switch ratio %v, want %v", n, ratio, float64(n))
		}
	}
}

func TestSwitchedFramesPerRoundPort(t *testing.T) {
	p := Defaults()
	p.Switched = true
	if got := p.FramesPerRoundPort(10); got != 9 {
		t.Fatalf("per-pair port frames = %d, want 9", got)
	}
	if got := p.FramesPerRoundPort(1); got != 0 {
		t.Fatalf("1 node port frames = %d, want 0", got)
	}
}

func TestSwitchedMaxNodesMaximal(t *testing.T) {
	p := Defaults()
	p.Switched = true
	for _, bud := range FigureBudgets {
		for _, rtBudget := range []float64{0.1, 0.5, 1} {
			n, err := p.MaxNodes(bud, rtBudget)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := p.ResponseTime(n, bud)
			if err != nil {
				t.Fatal(err)
			}
			if rt > rtBudget {
				t.Fatalf("MaxNodes(%v,%v)=%d does not fit (%v)", bud, rtBudget, n, rt)
			}
			rtNext, err := p.ResponseTime(n+1, bud)
			if err != nil {
				t.Fatal(err)
			}
			if rtNext <= rtBudget {
				t.Fatalf("MaxNodes(%v,%v)=%d not maximal (n+1 takes %v)", bud, rtBudget, n, rtNext)
			}
		}
	}
}

func TestSwitchedMaxNodesDwarfsHub(t *testing.T) {
	hub := Defaults()
	sw := Defaults()
	sw.Switched = true
	hn, err := hub.MaxNodes(0.10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := sw.MaxNodes(0.10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if sn <= 10*hn {
		t.Fatalf("switched MaxNodes %d not dramatically above hub %d", sn, hn)
	}
}

func TestSwitchedOverheadInverts(t *testing.T) {
	p := Defaults()
	p.Switched = true
	rt, err := p.ResponseTime(50, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	over, err := p.Overhead(50, rt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(over-0.15) > 1e-12 {
		t.Fatalf("Overhead = %v, want 0.15", over)
	}
}
