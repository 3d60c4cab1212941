package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanAbsDeviation(t *testing.T) {
	d, err := MeanAbsDeviation([]float64{1, 2, 3}, []float64{2, 2, 1})
	if err != nil || !almostEqual(d, 1, 1e-12) {
		t.Fatalf("MAD = %v, %v; want 1", d, err)
	}
	if _, err := MeanAbsDeviation([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch not reported")
	}
	if _, err := MeanAbsDeviation(nil, nil); err != ErrEmpty {
		t.Fatal("empty series not reported")
	}
}

func TestMeanAbsDeviationIdenticalSeriesIsZero(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		d, err := MeanAbsDeviation(xs, xs)
		return err == nil && d == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbsDeviation(t *testing.T) {
	d, err := MaxAbsDeviation([]float64{1, 5, 3}, []float64{2, 2, 1})
	if err != nil || d != 3 {
		t.Fatalf("MaxAbsDeviation = %v, %v; want 3", d, err)
	}
}

func TestBernoulliCI(t *testing.T) {
	if ci := BernoulliCI(50, 100, 1.96); !almostEqual(ci, 1.96*math.Sqrt(0.25/100), 1e-12) {
		t.Fatalf("CI = %v", ci)
	}
	if ci := BernoulliCI(0, 0, 1.96); !math.IsInf(ci, 1) {
		t.Fatalf("CI with n=0 = %v, want +Inf", ci)
	}
	// All successes => zero width under normal approximation.
	if ci := BernoulliCI(10, 10, 1.96); ci != 0 {
		t.Fatalf("CI = %v, want 0", ci)
	}
}
