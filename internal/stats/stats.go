// Package stats provides the small set of statistics used by the
// survivability experiments: the mean and maximum absolute deviation
// between two series (the y-axis of the paper's Figure 3) and
// confidence intervals for Bernoulli estimators.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by reductions over empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// MeanAbsDeviation returns the mean of |a[i]-b[i]| over paired series.
// This is the convergence metric of the paper's Figure 3: the mean
// absolute difference between simulated and analytic P[Success] over
// all node counts for a fixed failure count.
func MeanAbsDeviation(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: series length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum / float64(len(a)), nil
}

// MaxAbsDeviation returns max |a[i]-b[i]|.
func MaxAbsDeviation(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: series length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// BernoulliCI returns the half-width of a normal-approximation
// confidence interval for a proportion estimated from k successes out
// of n trials, at the given z score (1.96 ≈ 95%).
func BernoulliCI(k, n int64, z float64) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	p := float64(k) / float64(n)
	return z * math.Sqrt(p*(1-p)/float64(n))
}
