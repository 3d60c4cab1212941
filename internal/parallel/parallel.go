// Package parallel is the shared sweep engine behind every
// embarrassingly parallel experiment in this repository: the Figure 2
// analytic curves, the E5c fault-coverage campaign, the all-pairs
// survivability sweep, the Figure 1 cost surface and the availability
// grids. It provides deterministic work-sharding with ordered result
// collection: work items are indexed 0..n-1, workers pull indices from
// a shared cursor, and every result lands in its own index slot — so
// the output of a sweep is bit-identical regardless of the worker
// count or goroutine scheduling.
//
// The contract every caller relies on:
//
//   - fn(i) must depend only on i (and immutable shared state), never
//     on which worker runs it or in what order items complete;
//   - results are returned in index order;
//   - a worker-count of 0 means GOMAXPROCS;
//   - cancellation via context stops the sweep at the next item
//     boundary; items already dispatched run to completion;
//   - when several items fail, the error of the LOWEST index wins, so
//     error reporting is deterministic too;
//   - a panic inside fn is re-raised in the calling goroutine (not
//     lost in a worker), preserving the serial code's panic behaviour.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count for a sweep of n items:
// requests ≤ 0 mean GOMAXPROCS, and the result never exceeds n (there
// is no point parking idle goroutines on a short sweep). For n ≤ 0 it
// returns 1 so the engine's bookkeeping stays trivial.
func Workers(requested, n int) int {
	if n <= 0 {
		return 1
	}
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// panicError carries a worker panic back to the calling goroutine.
type panicError struct {
	index int
	value any
}

// ForEach runs fn(i) for every i in [0, n) across workers goroutines
// (0 = GOMAXPROCS) and waits for completion. Indices are handed out
// through an atomic cursor, so the items themselves may complete in
// any order; determinism comes from callers writing results into
// per-index slots. The first error by index order is returned; once
// any item fails (or ctx is cancelled) no new items are dispatched.
// A nil ctx means context.Background().
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers, n)

	var (
		cursor int64
		stop   atomic.Bool
		mu     sync.Mutex
		errIdx = n // lowest failing index seen so far
		errVal error
		pnc    *panicError
		wg     sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, errVal = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	done := ctx.Done()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				select {
				case <-done:
					stop.Store(true)
					return
				default:
				}
				i := int(atomic.AddInt64(&cursor, 1) - 1)
				if i >= n {
					return
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if pnc == nil || i < pnc.index {
								pnc = &panicError{index: i, value: r}
							}
							mu.Unlock()
							stop.Store(true)
							err = fmt.Errorf("parallel: item %d panicked", i)
						}
					}()
					return fn(i)
				}()
				if err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if pnc != nil {
		panic(pnc.value)
	}
	if errVal != nil {
		return errVal
	}
	return ctx.Err()
}

// Map runs fn(i) for every i in [0, n) across workers goroutines and
// returns the results in index order. Error and cancellation semantics
// match ForEach; on error the partial results are discarded.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
