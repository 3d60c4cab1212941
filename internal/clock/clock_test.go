package clock

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"drsnet/internal/simtime"
)

func TestManualOrdering(t *testing.T) {
	w := NewManual()
	var got []int
	w.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	w.AfterFunc(10*time.Millisecond, func() { got = append(got, 0) })
	w.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) }) // same deadline: scheduling order breaks the tie
	if n := w.Advance(15 * time.Millisecond); n != 2 {
		t.Fatalf("Advance ran %d timers, want 2", n)
	}
	if n := w.Advance(10 * time.Millisecond); n != 1 {
		t.Fatalf("second Advance ran %d timers, want 1", n)
	}
	want := []int{0, 1, 2}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if w.Now() != 25*time.Millisecond {
		t.Fatalf("Now = %v, want 25ms", w.Now())
	}
}

func TestManualReentrantScheduling(t *testing.T) {
	w := NewManual()
	var fired []time.Duration
	w.AfterFunc(10*time.Millisecond, func() {
		fired = append(fired, w.Now())
		w.AfterFunc(5*time.Millisecond, func() {
			fired = append(fired, w.Now())
		})
	})
	// The nested timer lands inside the window and must run in the
	// same drain, at its own deadline.
	if n := w.RunUntil(30 * time.Millisecond); n != 2 {
		t.Fatalf("RunUntil ran %d timers, want 2", n)
	}
	if fired[0] != 10*time.Millisecond || fired[1] != 15*time.Millisecond {
		t.Fatalf("fired at %v, want [10ms 15ms]", fired)
	}
}

func TestManualCancel(t *testing.T) {
	w := NewManual()
	ran := false
	cancel := w.AfterFunc(10*time.Millisecond, func() { ran = true })
	if !cancel() {
		t.Fatal("first cancel reported not pending")
	}
	if cancel() {
		t.Fatal("second cancel reported pending")
	}
	w.Advance(time.Second)
	if ran {
		t.Fatal("cancelled timer ran")
	}
	if pending(w) != 0 {
		t.Fatalf("Pending = %d, want 0", pending(w))
	}
}

// Timer records are reused once they leave the heap; the cancel
// function of a timer that already fired (or was cancelled and
// discarded) must not reach the record's next tenant.
func TestStaleCancelMissesRecycledTimer(t *testing.T) {
	w := NewManual()
	fired := 0
	cancelFired := w.AfterFunc(time.Millisecond, func() { fired++ })
	cancelDropped := w.AfterFunc(2*time.Millisecond, func() { t.Error("cancelled timer fired") })
	if !cancelDropped() {
		t.Fatal("pending timer not cancellable")
	}
	w.Advance(3 * time.Millisecond) // both records are now free
	for i := 0; i < 2; i++ {
		w.AfterFunc(time.Millisecond, func() { fired++ })
	}
	if cancelFired() || cancelDropped() {
		t.Fatal("stale cancel reported a pending timer")
	}
	if w.Advance(time.Millisecond); fired != 3 {
		t.Fatalf("fired %d timers, want 3: a stale cancel hit a reused record", fired)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		w.AfterFunc(time.Millisecond, func() {})
		w.Advance(time.Millisecond)
	}); allocs > 1 {
		t.Fatalf("AfterFunc + fire allocates %v times, want <= 1", allocs)
	}
}

func TestAfterCallAllocatesNothing(t *testing.T) {
	w := NewManual()
	fired := 0
	call := func(arg any) { fired++ }
	w.AfterCall(time.Millisecond, call, w)
	w.Advance(time.Millisecond)
	if allocs := testing.AllocsPerRun(100, func() {
		w.AfterCall(time.Millisecond, call, w)
		w.Advance(time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("AfterCall + fire allocates %v times, want 0", allocs)
	}
	if fired != 102 { // warm-up, AllocsPerRun's own warm-up, 100 runs
		t.Fatalf("fired %d timers, want 102", fired)
	}
}

func TestManualPastTargetClamps(t *testing.T) {
	w := NewManual()
	w.Advance(50 * time.Millisecond)
	if n := w.RunUntil(10 * time.Millisecond); n != 0 {
		t.Fatalf("RunUntil past target ran %d timers", n)
	}
	if w.Now() != 50*time.Millisecond {
		t.Fatalf("Now moved backwards to %v", w.Now())
	}
}

func TestLiveWallFires(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	w.AfterFunc(20*time.Millisecond, func() {
		mu.Lock()
		order = append(order, 1)
		mu.Unlock()
		close(done)
	})
	// Scheduled later but due sooner: the dispatcher must re-arm.
	w.AfterFunc(time.Millisecond, func() {
		mu.Lock()
		order = append(order, 0)
		mu.Unlock()
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timers did not fire within 5s")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("fire order %v, want [0 1]", order)
	}
}

func TestLiveWallCancel(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	var mu sync.Mutex
	ran := false
	cancel := w.AfterFunc(50*time.Millisecond, func() {
		mu.Lock()
		ran = true
		mu.Unlock()
	})
	if !cancel() {
		t.Fatal("cancel reported not pending")
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if ran {
		t.Fatal("cancelled timer ran")
	}
}

// TestLiveWallChainAllocations: the live dispatcher sleeps between the
// links of a timer chain without allocating, so a chain of n timers
// costs O(1) objects, not O(n). An idle daemon's probe timers are such
// a chain.
func TestLiveWallChainAllocations(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	chain := func(n int) uint64 {
		done := make(chan struct{})
		left := n
		var step func(any)
		step = func(any) {
			if left--; left == 0 {
				close(done)
				return
			}
			w.AfterCall(20*time.Microsecond, step, nil)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w.AfterCall(20*time.Microsecond, step, nil)
		<-done
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	chain(10) // warm the record pool
	short, long := chain(10), chain(1000)
	if long > short+50 {
		t.Fatalf("a chain of 1000 timers allocated %d objects, one of 10 allocated %d: the dispatcher allocates per sleep", long, short)
	}
}

func TestLiveWallStopIdempotent(t *testing.T) {
	w := NewWall()
	w.Stop()
	w.Stop() // must not panic or double-close
}

func TestLiveWallMonotonicNow(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	a := w.Now()
	time.Sleep(time.Millisecond)
	if b := w.Now(); b <= a {
		t.Fatalf("Now not monotonic: %v then %v", a, b)
	}
}

// clockOp is one step of an ordering script run against both Clock
// implementations.
type clockOp struct {
	kind   byte          // 'f' AfterFunc, 'c' AfterCall, 'x' cancel, 'r' run until d
	d      time.Duration // delay, or the absolute target of 'r'
	handle int           // 'x': index into the AfterFunc handles, in scheduling order
	nested time.Duration // 'f'/'c' with nested > 0: the callback schedules the other kind this far out
}

// replayClock runs ops on c, draining through runUntil, and returns
// every observable event: each firing with its label and time, and
// each cancel's result.
func replayClock(c Clock, runUntil func(time.Duration), ops []clockOp) []string {
	var log []string
	var handles []func() bool
	var schedule func(kind byte, d, nested time.Duration, label string)
	schedule = func(kind byte, d, nested time.Duration, label string) {
		fire := func() {
			log = append(log, fmt.Sprintf("%s@%v", label, c.Now()))
			if nested > 0 {
				other := byte('c')
				if kind == 'c' {
					other = 'f'
				}
				schedule(other, nested, 0, label+"/n")
			}
		}
		if kind == 'f' {
			handles = append(handles, c.AfterFunc(d, fire))
			return
		}
		c.AfterCall(d, func(fn any) { fn.(func())() }, fire)
	}
	for i, op := range ops {
		switch op.kind {
		case 'f', 'c':
			schedule(op.kind, op.d, op.nested, fmt.Sprint(i))
		case 'x':
			log = append(log, fmt.Sprintf("cancel %d %v", op.handle, handles[op.handle]()))
		case 'r':
			runUntil(op.d)
		}
	}
	return log
}

// TestAfterCallOrderMatchesSimtime runs each script on a manual Wall
// and on simtime.Clock: AfterFunc and AfterCall share one sequence, so
// ties break identically, cancels agree, a stale cancel of a recycled
// record misses, and timers scheduled from callbacks interleave the
// same way.
func TestAfterCallOrderMatchesSimtime(t *testing.T) {
	ms := time.Millisecond
	scripts := map[string][]clockOp{
		"ties across kinds": {
			{kind: 'f', d: 10 * ms}, {kind: 'c', d: 10 * ms}, {kind: 'f', d: 10 * ms},
			{kind: 'c', d: 5 * ms}, {kind: 'c', d: 10 * ms}, {kind: 'r', d: 20 * ms},
		},
		"cancel and stale cancel of recycled records": {
			{kind: 'f', d: ms}, {kind: 'f', d: 2 * ms}, {kind: 'c', d: 2 * ms},
			{kind: 'x', handle: 1}, {kind: 'x', handle: 1}, {kind: 'r', d: 3 * ms},
			// Both AfterFunc records are free now; these reuse them.
			{kind: 'c', d: ms}, {kind: 'f', d: ms}, {kind: 'c', d: 2 * ms},
			{kind: 'x', handle: 0}, {kind: 'x', handle: 1}, {kind: 'r', d: 4 * ms},
			{kind: 'x', handle: 2}, {kind: 'r', d: 10 * ms},
		},
		"scheduled from callbacks": {
			{kind: 'f', d: 10 * ms, nested: 5 * ms}, {kind: 'c', d: 10 * ms, nested: 5 * ms},
			{kind: 'c', d: 15 * ms}, {kind: 'f', d: 15 * ms}, {kind: 'c', d: 12 * ms, nested: 3 * ms},
			{kind: 'r', d: 14 * ms}, {kind: 'x', handle: 1}, {kind: 'f', d: ms, nested: ms},
			{kind: 'r', d: 40 * ms},
		},
		"zero delay and a past target": {
			{kind: 'r', d: 5 * ms}, {kind: 'c'}, {kind: 'f'}, {kind: 'c', d: ms, nested: 1},
			{kind: 'r', d: 5 * ms}, {kind: 'r', d: 7 * ms},
		},
	}
	for name, ops := range scripts {
		w := NewManual()
		wall := replayClock(w, func(t time.Duration) { w.RunUntil(t) }, ops)
		sched := simtime.NewScheduler()
		sim := replayClock(simtime.Clock{Sched: sched}, func(t time.Duration) { sched.RunUntil(simtime.Time(t)) }, ops)
		if !reflect.DeepEqual(wall, sim) {
			t.Errorf("%s:\nWall    %v\nsimtime %v", name, wall, sim)
		}
		if pending(w) != sched.Pending() {
			t.Errorf("%s: Wall has %d pending, simtime %d", name, pending(w), sched.Pending())
		}
	}
}

func TestSimAdapter(t *testing.T) {
	sched := simtime.NewScheduler()
	var c Clock = simtime.Clock{Sched: sched}
	ran := false
	c.AfterFunc(10*time.Millisecond, func() { ran = true })
	cancel := c.AfterFunc(20*time.Millisecond, func() { t.Error("cancelled simtime timer ran") })
	if !cancel() {
		t.Fatal("cancel reported not pending")
	}
	sched.Run(0)
	if !ran {
		t.Fatal("simtime timer did not run")
	}
	if c.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms", c.Now())
	}
}

// pending returns the number of scheduled, uncancelled timers.
func pending(w *Wall) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, t := range w.timers {
		if t.call != nil {
			n++
		}
	}
	return n
}
