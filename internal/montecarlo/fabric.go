package montecarlo

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"drsnet/internal/conn"
	"drsnet/internal/rng"
	"drsnet/internal/stats"
	"drsnet/internal/topology"
)

// FabricConfig describes one Monte Carlo estimation over a general
// switched fabric, where Equation 1's closed form does not apply.
// Exactly one failure model must be selected:
//
//   - Failures > 0 draws exactly that many failed components uniformly
//     at random per scenario (the paper's fixed-f model);
//   - Q > 0 fails each component independently with probability Q (the
//     steady-state IID model used by the availability extension).
type FabricConfig struct {
	// Fabric is the system under test.
	Fabric *topology.Fabric

	// Failures is the exact number of failed components per scenario
	// (fixed-f model). Zero selects the Q model instead.
	Failures int

	// Q is the independent per-component failure probability
	// (IID model). Zero selects the fixed-f model instead.
	Q float64

	// Iterations is the number of random scenarios to draw.
	Iterations int64

	// Seed selects the random stream. The same FabricConfig always
	// produces the same FabricResult regardless of worker count.
	Seed uint64

	// Workers is the number of concurrent estimator goroutines;
	// 0 means GOMAXPROCS.
	Workers int

	// PairA, PairB designate the monitored pair (defaults 0 and 1).
	PairA, PairB int

	// AllPairs, if set, scores a scenario as a success only when every
	// pair of hosts can communicate.
	AllPairs bool
}

func (c *FabricConfig) normalize() error {
	if c.Fabric == nil {
		return fmt.Errorf("montecarlo: Fabric not set")
	}
	if err := c.Fabric.Validate(); err != nil {
		return err
	}
	m := c.Fabric.Components()
	switch {
	case math.IsNaN(c.Q):
		return fmt.Errorf("montecarlo: q is NaN")
	case c.Failures > 0 && c.Q > 0:
		return fmt.Errorf("montecarlo: set Failures or Q, not both")
	case c.Failures == 0 && c.Q == 0:
		return fmt.Errorf("montecarlo: set Failures (fixed-f) or Q (IID)")
	case c.Failures < 0 || c.Failures > m:
		return fmt.Errorf("montecarlo: failures=%d outside [0,%d]", c.Failures, m)
	case c.Q < 0 || c.Q >= 1:
		return fmt.Errorf("montecarlo: q=%v outside [0,1)", c.Q)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("montecarlo: iterations must be positive, have %d", c.Iterations)
	}
	if c.Workers < 0 {
		return fmt.Errorf("montecarlo: negative worker count %d", c.Workers)
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PairA == 0 && c.PairB == 0 {
		c.PairB = 1
	}
	hosts := c.Fabric.Hosts()
	if c.PairA < 0 || c.PairA >= hosts || c.PairB < 0 || c.PairB >= hosts {
		return fmt.Errorf("montecarlo: pair (%d,%d) outside fabric of %d hosts",
			c.PairA, c.PairB, hosts)
	}
	if c.PairA == c.PairB {
		return fmt.Errorf("montecarlo: pair nodes must differ")
	}
	return nil
}

// EstimateFabric runs the Monte Carlo estimation described by cfg.
// Like Estimate, work is divided into fixed-size chunks drawing from
// independent RNG substreams keyed by chunk index, so the result is
// identical for every worker count.
func EstimateFabric(cfg FabricConfig) (Result, error) {
	if err := cfg.normalize(); err != nil {
		return Result{}, err
	}
	eval, err := conn.NewFabricEvaluator(cfg.Fabric)
	if err != nil {
		return Result{}, err
	}

	nChunks := (cfg.Iterations + chunkSize - 1) / chunkSize
	parent := rng.New(cfg.Seed)
	bern := rng.NewBernoulli(cfg.Q) // shared read-only by every worker
	m := cfg.Fabric.Components()
	var next int64 // atomic chunk cursor
	var successes int64

	var wg sync.WaitGroup
	workers := cfg.Workers
	if int64(workers) > nChunks {
		workers = int(nChunks)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := *parent // private copy, as in Estimate
			sc := eval.NewScratch()
			idx := make([]int, cfg.Failures)
			failed := make([]topology.Component, 0, max(cfg.Failures, 8))
			var localSucc int64
			for {
				chunk := atomic.AddInt64(&next, 1) - 1
				if chunk >= nChunks {
					break
				}
				sub := local.Split(uint64(chunk))
				iters := int64(chunkSize)
				if rem := cfg.Iterations - chunk*chunkSize; rem < iters {
					iters = rem
				}
				for i := int64(0); i < iters; i++ {
					failed = failed[:0]
					if cfg.Failures > 0 {
						sub.SampleK(idx, m)
						for _, v := range idx {
							failed = append(failed, topology.Component(v))
						}
					} else {
						failed = rng.AppendBernoulli(sub, &bern, failed, m)
					}
					ok := false
					if cfg.AllPairs {
						ok = eval.AllConnected(sc, failed)
					} else {
						ok = eval.PairConnected(sc, failed, cfg.PairA, cfg.PairB)
					}
					if ok {
						localSucc++
					}
				}
			}
			atomic.AddInt64(&successes, localSucc)
		}()
	}
	wg.Wait()

	p := float64(successes) / float64(cfg.Iterations)
	return Result{
		Successes:  successes,
		Iterations: cfg.Iterations,
		P:          p,
		CI95:       stats.BernoulliCI(successes, cfg.Iterations, 1.96),
	}, nil
}
