package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Wall is a Clock backed by real time. It comes in two modes:
//
//   - Live (NewWall): Now is the monotonic time elapsed since the
//     clock was created, and timers fire from a single dispatcher
//     goroutine driven by the operating system. This is the daemon
//     mode.
//   - Manual (NewManual): time is virtual and only advances when the
//     test calls Advance or RunUntil, which execute every due timer
//     synchronously on the caller's goroutine. This is the drained
//     mode the hermetic multi-daemon tests run under.
//
// In both modes timers execute in (deadline, scheduling-order) total
// order — the same order simtime uses — so a scenario driven through
// a manual Wall unfolds identically to the same scenario under the
// simulator's clock.
type Wall struct {
	mu      sync.Mutex
	timers  timerHeap
	free    []*wallTimer // fired or discarded records, for reuse
	seq     uint64
	manual  bool
	now     time.Duration // manual mode only
	start   time.Time     // live mode epoch
	kick    chan struct{} // live mode: wakes the dispatcher on a new head
	done    chan struct{} // live mode: closed by Stop
	stopped bool
}

// NewWall returns a live Wall: Now tracks the monotonic clock and
// timers fire in real time. Call Stop to shut down the dispatcher
// goroutine.
func NewWall() *Wall {
	w := &Wall{
		start: time.Now(),
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go w.loop()
	return w
}

// NewManual returns a drained Wall for tests: time stands still until
// Advance or RunUntil moves it, executing due timers synchronously.
func NewManual() *Wall {
	return &Wall{manual: true}
}

func (w *Wall) nowLocked() time.Duration {
	if w.manual {
		return w.now
	}
	return time.Since(w.start)
}

// Now implements Clock.
func (w *Wall) Now() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nowLocked()
}

// AfterFunc implements Clock. A negative delay is clamped to zero —
// unlike the simulator, a real clock cannot treat "slightly in the
// past" as a protocol bug, because the wall moved while the caller
// computed d.
func (w *Wall) AfterFunc(d time.Duration, fn func()) (cancel func() bool) {
	if fn == nil {
		panic("clock: nil timer function")
	}
	if d < 0 {
		d = 0
	}
	w.mu.Lock()
	var t *wallTimer
	if n := len(w.free); n > 0 {
		t, w.free = w.free[n-1], w.free[:n-1]
	} else {
		t = new(wallTimer)
	}
	seq := w.seq
	*t = wallTimer{at: w.nowLocked() + d, seq: seq, fn: fn}
	w.seq++
	heap.Push(&w.timers, t)
	newHead := w.timers[0] == t
	live := !w.manual && !w.stopped
	w.mu.Unlock()
	if live && newHead {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	return func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		// A record is reused once its timer has left the heap; seq
		// tells this timer from a later tenant of the same record.
		if t.seq != seq || t.fn == nil {
			return false
		}
		t.fn = nil
		return true
	}
}

// popLocked removes the heap's head and keeps its record for reuse.
// Callers have read what they need from it, and hold w.mu.
func (w *Wall) popLocked() {
	w.free = append(w.free, heap.Pop(&w.timers).(*wallTimer))
}

// Pending returns the number of scheduled, uncancelled timers.
func (w *Wall) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, t := range w.timers {
		if t.fn != nil {
			n++
		}
	}
	return n
}

// Stop shuts down a live Wall's dispatcher goroutine. Pending timers
// never fire. Stop is idempotent and a no-op on a manual Wall.
func (w *Wall) Stop() {
	w.mu.Lock()
	if w.manual || w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	w.mu.Unlock()
	close(w.done)
}

// Advance moves a manual Wall forward by d, executing every timer due
// in the window in (deadline, scheduling-order) order. Timers that
// callbacks schedule inside the window also run. It returns the
// number of timers executed. Negative d is clamped to zero.
func (w *Wall) Advance(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	w.mu.Lock()
	target := w.now + d
	w.mu.Unlock()
	return w.RunUntil(target)
}

// RunUntil advances a manual Wall to absolute time t (clamped: a
// target in the past is a no-op), executing every due timer
// synchronously on the caller's goroutine. It returns the number of
// timers executed. It panics on a live Wall, where the dispatcher
// owns execution.
func (w *Wall) RunUntil(t time.Duration) int {
	if !w.manual {
		panic("clock: RunUntil on a live Wall")
	}
	n := 0
	for {
		w.mu.Lock()
		if t < w.now {
			w.mu.Unlock()
			return n
		}
		var fn func()
		for len(w.timers) > 0 {
			head := w.timers[0]
			if head.fn == nil { // cancelled
				w.popLocked()
				continue
			}
			if head.at > t {
				break
			}
			fn, head.fn = head.fn, nil
			w.now = head.at
			w.popLocked()
			break
		}
		if fn == nil {
			w.now = t
			w.mu.Unlock()
			return n
		}
		w.mu.Unlock()
		fn()
		n++
	}
}

// loop is the live-mode dispatcher: it sleeps until the earliest
// deadline (or a kick, when a sooner timer arrives), then runs every
// due timer outside the lock.
func (w *Wall) loop() {
	for {
		w.mu.Lock()
		now := time.Since(w.start)
		var due []func()
		for len(w.timers) > 0 {
			head := w.timers[0]
			if head.fn == nil { // cancelled
				w.popLocked()
				continue
			}
			if head.at > now {
				break
			}
			due = append(due, head.fn)
			head.fn = nil
			w.popLocked()
		}
		wait := time.Duration(-1)
		if len(w.timers) > 0 {
			wait = w.timers[0].at - now
		}
		w.mu.Unlock()

		for _, fn := range due {
			fn()
		}
		if len(due) > 0 {
			// Callbacks may have scheduled or cancelled; recompute
			// before sleeping.
			select {
			case <-w.done:
				return
			default:
			}
			continue
		}

		var tc <-chan time.Time
		var tm *time.Timer
		if wait >= 0 {
			tm = time.NewTimer(wait)
			tc = tm.C
		}
		select {
		case <-tc:
		case <-w.kick:
		case <-w.done:
			if tm != nil {
				tm.Stop()
			}
			return
		}
		if tm != nil {
			tm.Stop()
		}
	}
}

// wallTimer is one scheduled callback. Cancellation nils fn in place;
// the heap lazily discards dead entries when they surface, and records
// that leave the heap are recycled (AfterFunc then allocates only the
// cancel function it returns).
type wallTimer struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// timerHeap orders timers by (deadline, sequence) — the same total
// order simtime uses, which is what makes drained-mode execution
// reproduce the simulator's event sequence.
type timerHeap []*wallTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *timerHeap) Push(x any) { *h = append(*h, x.(*wallTimer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

var _ Clock = (*Wall)(nil)
