package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestManualAdvanceRacesAfterFunc drives a manual Wall's Advance from
// one goroutine while others concurrently register and cancel timers —
// the exact overlap the nemesis runner produces when daemons arm
// probe timers while the harness drains the clock. Under -race this is
// the memory-safety gate; the accounting check catches lost timers.
func TestManualAdvanceRacesAfterFunc(t *testing.T) {
	clk := NewManual()
	var fired, cancelled, registered atomic.Int64

	const workers = 4
	const perWorker = 200
	stop := make(chan struct{})
	driverDone := make(chan struct{})

	// Driver: advance in small steps until told to stop.
	go func() {
		defer close(driverDone)
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := time.Duration(i%7) * 100 * time.Microsecond
				registered.Add(1)
				cancel := clk.AfterFunc(d, func() { fired.Add(1) })
				// Some timers are cancelled immediately; a successful
				// cancel must mean the callback never runs.
				if (i+w)%5 == 0 && cancel() {
					cancelled.Add(1)
				}
			}
		}()
	}

	// Let the workers finish, stop the driver, then drain whatever is
	// still pending (Advance is single-driver: wait for the goroutine
	// to exit before draining from this one).
	wg.Wait()
	close(stop)
	<-driverDone
	clk.Advance(time.Second)

	if pending(clk) != 0 {
		t.Fatalf("%d timers still pending after the final drain", pending(clk))
	}
	if got := fired.Load() + cancelled.Load(); got != registered.Load() {
		t.Fatalf("fired %d + cancelled %d = %d, want %d registered",
			fired.Load(), cancelled.Load(), got, registered.Load())
	}
}

// TestNowRacesAdvance reads Now from several goroutines while a manual
// Wall's driver advances it and timers fire, then does the same against
// a live Wall's dispatcher. Now takes no lock, so under -race this is
// its memory-safety gate; every reader must also see time move only
// forward.
func TestNowRacesAdvance(t *testing.T) {
	const readers = 4
	read := func(t *testing.T, clk *Wall, stop <-chan struct{}) {
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := clk.Now()
				for {
					select {
					case <-stop:
						return
					default:
					}
					now := clk.Now()
					if now < last {
						t.Errorf("Now went backwards: %v then %v", last, now)
						return
					}
					last = now
				}
			}()
		}
		wg.Wait()
	}

	t.Run("manual", func(t *testing.T) {
		clk := NewManual()
		var fired atomic.Int64
		call := func(any) { fired.Add(1) }
		stop := make(chan struct{})
		go func() {
			defer close(stop)
			for i := 0; i < 2000; i++ {
				clk.AfterCall(time.Duration(i%3)*time.Microsecond, call, nil)
				clk.Advance(time.Microsecond)
			}
		}()
		read(t, clk, stop)
		clk.Advance(time.Second)
		if fired.Load() != 2000 {
			t.Fatalf("fired %d timers, want 2000", fired.Load())
		}
	})

	t.Run("live", func(t *testing.T) {
		clk := NewWall()
		defer clk.Stop()
		const timers = 200
		var fired atomic.Int64
		stop := make(chan struct{})
		call := func(any) {
			if fired.Add(1) == timers {
				close(stop)
			}
		}
		for i := 0; i < timers; i++ {
			clk.AfterCall(time.Duration(i%5)*100*time.Microsecond, call, nil)
		}
		done := make(chan struct{})
		go func() { read(t, clk, stop); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d live timers fired within 10s", fired.Load(), timers)
		}
	})
}
