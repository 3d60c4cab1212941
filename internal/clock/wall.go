package clock

import (
	"sync"
	"sync/atomic"
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
	timers  []*wallTimer // binary min-heap ordered by (at, seq)
	free    []*wallTimer // fired or discarded records, for reuse
	seq     uint64
	manual  bool
	now     atomic.Int64  // manual mode only: written under mu, read lock-free
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

// Now implements Clock. It takes no lock: manual and start never
// change after construction, and manual time is an atomic.
func (w *Wall) Now() time.Duration {
	if w.manual {
		return time.Duration(w.now.Load())
	}
	return time.Since(w.start)
}

// callFunc runs the func() that AfterFunc stores as a timer's arg.
func callFunc(fn any) { fn.(func())() }

// AfterFunc implements Clock. A negative delay is clamped to zero —
// unlike the simulator, a real clock cannot treat "slightly in the
// past" as a protocol bug, because the wall moved while the caller
// computed d.
func (w *Wall) AfterFunc(d time.Duration, fn func()) (cancel func() bool) {
	if fn == nil {
		panic("clock: nil timer function")
	}
	t, seq := w.schedule(d, callFunc, fn)
	return func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		// A record is reused once its timer has left the heap; seq
		// tells this timer from a later tenant of the same record.
		if t.seq != seq || t.call == nil {
			return false
		}
		t.call, t.arg = nil, nil
		return true
	}
}

// AfterCall implements Clock: AfterFunc without a handle, allocating
// nothing once the record pool is warm. Negative d is clamped to zero.
func (w *Wall) AfterCall(d time.Duration, call func(any), arg any) {
	if call == nil {
		panic("clock: nil timer function")
	}
	w.schedule(d, call, arg)
}

// schedule queues call(arg) d from now on a recycled record and
// returns the record with the sequence number it holds it under.
func (w *Wall) schedule(d time.Duration, call func(any), arg any) (*wallTimer, uint64) {
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
	*t = wallTimer{at: w.Now() + d, seq: seq, call: call, arg: arg}
	w.seq++
	w.push(t)
	newHead := w.timers[0] == t
	live := !w.manual && !w.stopped
	w.mu.Unlock()
	if live && newHead {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	return t, seq
}

// popLocked removes the heap's head and keeps its record for reuse.
// Callers have read what they need from it, and hold w.mu.
func (w *Wall) popLocked() {
	t := w.pop()
	t.call, t.arg = nil, nil
	w.free = append(w.free, t)
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
	return w.RunUntil(w.Now() + d)
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
		if t < w.Now() {
			w.mu.Unlock()
			return n
		}
		var call func(any)
		var arg any
		for len(w.timers) > 0 {
			head := w.timers[0]
			if head.call == nil { // cancelled
				w.popLocked()
				continue
			}
			if head.at > t {
				break
			}
			call, arg = head.call, head.arg
			w.now.Store(int64(head.at))
			w.popLocked()
			break
		}
		if call == nil {
			w.now.Store(int64(t))
			w.mu.Unlock()
			return n
		}
		w.mu.Unlock()
		call(arg)
		n++
	}
}

// loop is the live-mode dispatcher: it sleeps until the earliest
// deadline (or a kick, when a sooner timer arrives), then runs every
// due timer outside the lock. It sleeps on one reused timer, so an
// idle daemon's timer chain allocates nothing per sleep.
func (w *Wall) loop() {
	var due []wallCall
	tm := time.NewTimer(time.Hour)
	tm.Stop()
	for {
		w.mu.Lock()
		now := w.Now()
		due = due[:0]
		for len(w.timers) > 0 {
			head := w.timers[0]
			if head.call == nil { // cancelled
				w.popLocked()
				continue
			}
			if head.at > now {
				break
			}
			due = append(due, wallCall{head.call, head.arg})
			w.popLocked()
		}
		wait := time.Duration(-1)
		if len(w.timers) > 0 {
			wait = w.timers[0].at - now
		}
		w.mu.Unlock()

		for i, c := range due {
			c.call(c.arg)
			due[i] = wallCall{} // drop the reference for the collector
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
		if wait >= 0 {
			tm.Reset(wait)
			tc = tm.C
		}
		select {
		case <-tc:
		case <-w.kick:
		case <-w.done:
			tm.Stop()
			return
		}
		// go.mod's go 1.22 keeps the buffered timer channel: a tick
		// that fired while a kick woke us must be drained before the
		// next Reset. A late tick only costs one spurious pass.
		if tc != nil && !tm.Stop() {
			select {
			case <-tm.C:
			default:
			}
		}
	}
}

// wallCall is one due callback, copied out of its record so the
// record can be recycled before the callback runs.
type wallCall struct {
	call func(any)
	arg  any
}

// wallTimer is one scheduled callback, call(arg). Cancellation nils
// call in place; the heap lazily discards dead entries when they
// surface, and records that leave the heap are recycled, so AfterCall
// allocates nothing and AfterFunc only the cancel function it returns.
type wallTimer struct {
	at   time.Duration
	seq  uint64
	call func(any)
	arg  any
}

// less orders timers by (deadline, sequence) — the same total order
// simtime uses, which is what makes drained-mode execution reproduce
// the simulator's event sequence.
func (t *wallTimer) less(u *wallTimer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// push inserts t into the heap, sifting a hole up from the end.
// Callers hold w.mu.
func (w *Wall) push(t *wallTimer) {
	w.timers = append(w.timers, nil)
	h := w.timers
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = t
}

// pop removes and returns the heap's minimum, sifting the last entry
// down from the root. Callers hold w.mu and a non-empty heap.
func (w *Wall) pop() *wallTimer {
	h := w.timers
	top := h[0]
	n := len(h) - 1
	t := h[n]
	h[n] = nil
	h = h[:n]
	w.timers = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(t) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = t
	return top
}
