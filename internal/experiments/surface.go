package experiments

import (
	"fmt"
	"io"

	"drsnet/internal/availability"
	"drsnet/internal/parallel"
)

// SurfaceResult is the IID availability surface: P[pair connected]
// (or all-pairs connected) for every per-component unavailability q
// and cluster size N in the request, row-major over Qs × Sizes.
type SurfaceResult struct {
	Qs       []float64
	Sizes    []int
	AllPairs bool
	P        [][]float64 // P[qi][ni]
}

// DefaultSurfaceQs are the unavailability levels drsavail prints.
func DefaultSurfaceQs() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.1}
}

// DefaultSurfaceSizes are the cluster sizes drsavail prints.
func DefaultSurfaceSizes() []int {
	return []int{4, 8, 12, 16, 32, 64}
}

// Surface computes the availability surface on the parallel sweep
// engine: every (q, N) cell is an independent Equation 1 mixture,
// sharded across workers (0 = GOMAXPROCS) and written into its own
// slot, so the surface is bit-identical for every worker count.
func Surface(qs []float64, sizes []int, allPairs bool, workers int) (*SurfaceResult, error) {
	if len(qs) == 0 || len(sizes) == 0 {
		return nil, fmt.Errorf("experiments: empty availability surface")
	}
	res := &SurfaceResult{Qs: qs, Sizes: sizes, AllPairs: allPairs}
	res.P = make([][]float64, len(qs))
	for i := range res.P {
		res.P[i] = make([]float64, len(sizes))
	}
	cells := len(qs) * len(sizes)
	err := parallel.ForEach(nil, workers, cells, func(i int) error {
		qi, ni := i/len(sizes), i%len(sizes)
		var (
			p   float64
			err error
		)
		if allPairs {
			p, err = availability.AllPairsIID(sizes[ni], qs[qi])
		} else {
			p, err = availability.PSuccessIID(sizes[ni], qs[qi])
		}
		if err != nil {
			return err
		}
		res.P[qi][ni] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// WriteSurface renders the surface as the q × N matrix drsavail
// prints.
func WriteSurface(w io.Writer, res *SurfaceResult) error {
	if _, err := fmt.Fprintf(w, "%8s", "q \\ N"); err != nil {
		return err
	}
	for _, n := range res.Sizes {
		fmt.Fprintf(w, " %9d", n)
	}
	fmt.Fprintln(w)
	for qi, q := range res.Qs {
		fmt.Fprintf(w, "%8.3f", q)
		for ni := range res.Sizes {
			fmt.Fprintf(w, " %9.6f", res.P[qi][ni])
		}
		fmt.Fprintln(w)
	}
	return nil
}
