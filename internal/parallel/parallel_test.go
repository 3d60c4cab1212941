package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, n, want int
	}{
		{0, 1000, maxprocs},
		{-3, 1000, maxprocs},
		{4, 1000, 4},
		{8, 3, 3},
		{0, 0, 1},
		{5, -1, 1},
	}
	for _, tc := range cases {
		if got := Workers(tc.requested, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.requested, tc.n, got, tc.want)
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 500
		var visits [n]int32
		err := ForEach(nil, workers, n, func(i int) error {
			atomic.AddInt32(&visits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		got, err := Map(context.Background(), workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int {
		out, err := Map(nil, workers, 257, func(i int) (int, error) { return 3*i + 1, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d diverges at %d", workers, i)
			}
		}
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	// Every odd index fails; the reported error must be index 1's
	// regardless of completion order.
	for _, workers := range []int{1, 4, 16} {
		err := ForEach(nil, workers, 64, func(i int) error {
			if i%2 == 1 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 1" {
			t.Fatalf("workers=%d: err = %v, want item 1", workers, err)
		}
	}
}

func TestForEachStopsDispatchAfterError(t *testing.T) {
	var dispatched int32
	boom := errors.New("boom")
	err := ForEach(nil, 1, 1000, func(i int) error {
		atomic.AddInt32(&dispatched, 1)
		if i == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// With one worker the dispatch stops immediately after the failure.
	if n := atomic.LoadInt32(&dispatched); n != 5 {
		t.Fatalf("dispatched %d items after error, want 5", n)
	}
}

func TestForEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := ForEach(ctx, 2, 100000, func(i int) error {
		if atomic.AddInt32(&ran, 1) == 10 {
			cancel()
		}
		time.Sleep(time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&ran); n >= 100000 {
		t.Fatal("cancellation did not stop the sweep")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		if s, ok := r.(string); !ok || s != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", r)
		}
	}()
	_ = ForEach(nil, 4, 32, func(i int) error {
		if i == 7 {
			panic("kaboom")
		}
		return nil
	})
	t.Fatal("unreachable: ForEach should have panicked")
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	if err := ForEach(nil, 8, 0, func(i int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty sweep")
	}
	out, err := Map(nil, 8, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map on empty sweep: %v, %v", out, err)
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	out, err := Map(nil, 2, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if out != nil {
		t.Fatalf("partial results returned: %v", out)
	}
}
