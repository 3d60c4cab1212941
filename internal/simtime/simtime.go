// Package simtime provides the virtual clock and deterministic event
// scheduler underneath the packet-level network simulator.
//
// The scheduler is strictly single-threaded: events run one at a time,
// in timestamp order, with ties broken by scheduling order. Given the
// same initial events, a simulation therefore always unfolds
// identically — the property every protocol experiment in this
// repository relies on.
package simtime

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of
// the simulation.
type Time int64

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t - u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Timer is a handle to a scheduled event; it can be cancelled.
type Timer struct {
	at        Time
	seq       uint64
	fn        func()
	call      func(any) // handle-free path: call(arg) instead of fn()
	arg       any
	cancelled bool
	pooled    bool // recycled after firing; never escapes to callers
	index     int  // heap index, -1 once popped
}

// Cancel prevents the event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op. Cancel reports
// whether the event was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.cancelled || t.index == -2 {
		return false
	}
	t.cancelled = true
	return true
}

// When returns the simulated time the timer fires at.
func (t *Timer) When() Time { return t.at }

// Scheduler is a deterministic discrete-event executor.
// It is not safe for concurrent use; simulations are single-threaded
// by design (parallelism in this repository lives one level up, across
// independent simulations).
type Scheduler struct {
	now  Time
	heap []*Timer // binary min-heap ordered by (at, seq)
	seq  uint64
	// executed counts events that have run (for tests and tracing).
	executed uint64

	// Timer recycling for the handle-free AtCall path. Fired pooled
	// timers go back on the free list; timers handed out by At never
	// do, because the caller may still hold the handle.
	free []*Timer
	slab []Timer // block-allocated backing store for pooled timers
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Executed returns the number of events that have run.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending returns the number of scheduled, uncancelled events.
func (s *Scheduler) Pending() int {
	n := 0
	for _, t := range s.heap {
		if !t.cancelled {
			n++
		}
	}
	return n
}

func (s *Scheduler) checkAt(at Time) {
	if at < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", at, s.now))
	}
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: that is always a protocol bug, and silently reordering time
// would destroy determinism.
func (s *Scheduler) At(at Time, fn func()) *Timer {
	s.checkAt(at)
	if fn == nil {
		panic("simtime: nil event function")
	}
	t := &Timer{at: at, seq: s.seq, fn: fn}
	s.seq++
	s.push(t)
	return t
}

// AtCall schedules call(arg) to run at absolute time at. Unlike At it
// returns no handle and allocates nothing in steady state: the timer
// comes from an internal pool and is recycled once it fires. Use it on
// hot paths (per-frame delivery events) where the event is never
// cancelled; `call` should be a long-lived bound value (a method
// value stored once, not a fresh closure per call).
func (s *Scheduler) AtCall(at Time, call func(any), arg any) {
	s.checkAt(at)
	if call == nil {
		panic("simtime: nil event function")
	}
	var t *Timer
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		t.cancelled = false
	} else {
		if len(s.slab) == cap(s.slab) {
			s.slab = make([]Timer, 0, 128)
		}
		s.slab = s.slab[:len(s.slab)+1]
		t = &s.slab[len(s.slab)-1]
		t.pooled = true
	}
	t.at, t.seq, t.call, t.arg = at, s.seq, call, arg
	s.seq++
	s.push(t)
}

// After schedules fn to run d from now. Negative d panics.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	return s.At(s.now.Add(d), fn)
}

// AfterFunc schedules fn to run d from now and returns a cancel
// function — the shape the clock.Clock seam exposes, so a Scheduler
// can sit directly behind a Clock adapter. The returned function
// reports whether the event was still pending.
func (s *Scheduler) AfterFunc(d time.Duration, fn func()) (cancel func() bool) {
	return s.After(d, fn).Cancel
}

// Step runs the next pending event, advancing the clock to its
// timestamp. It reports whether an event ran (false when the queue is
// empty).
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		t := s.pop()
		if t.cancelled {
			s.recycle(t)
			continue
		}
		s.now = t.at
		s.executed++
		if t.call != nil {
			call, arg := t.call, t.arg
			s.recycle(t)
			call(arg)
		} else {
			t.fn()
		}
		return true
	}
	return false
}

// recycle returns a pooled timer to the free list. Timers created by
// At are left for the garbage collector — their handles may still be
// referenced by the caller.
func (s *Scheduler) recycle(t *Timer) {
	if !t.pooled {
		return
	}
	t.call, t.arg, t.fn = nil, nil, nil
	s.free = append(s.free, t)
}

// Run executes events until the queue is empty or the event budget is
// exhausted. A zero or negative budget means no limit. It returns the
// number of events executed.
func (s *Scheduler) Run(budget int) int {
	n := 0
	for budget <= 0 || n < budget {
		if !s.Step() {
			break
		}
		n++
	}
	return n
}

// RunUntil executes all events with timestamps ≤ deadline and then
// advances the clock to the deadline. It returns the number of events
// executed.
func (s *Scheduler) RunUntil(deadline Time) int {
	if deadline < s.now {
		panic(fmt.Sprintf("simtime: RunUntil(%v) before now %v", deadline, s.now))
	}
	n := 0
	for {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		if s.Step() {
			n++
		}
	}
	s.now = deadline
	return n
}

// peek returns the timestamp of the next uncancelled event.
func (s *Scheduler) peek() (Time, bool) {
	for len(s.heap) > 0 {
		t := s.heap[0]
		if t.cancelled {
			s.recycle(s.pop())
			continue
		}
		return t.at, true
	}
	return 0, false
}

// less orders timers by (time, sequence) — a total order, so any
// correct heap yields the identical execution sequence.
func (t *Timer) less(u *Timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// push inserts t into the heap and sifts it up.
func (s *Scheduler) push(t *Timer) {
	s.heap = append(s.heap, t)
	h := s.heap
	i := len(h) - 1
	t.index = i
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		h[i].index = i
		h[p].index = p
		i = p
	}
}

// pop removes and returns the minimum timer, marking it fired.
func (s *Scheduler) pop() *Timer {
	h := s.heap
	n := len(h)
	top := h[0]
	last := h[n-1]
	h[n-1] = nil
	s.heap = h[:n-1]
	if n > 1 {
		h = s.heap
		h[0] = last
		last.index = 0
		i := 0
		for {
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			min := l
			if r := l + 1; r < len(h) && h[r].less(h[l]) {
				min = r
			}
			if !h[min].less(h[i]) {
				break
			}
			h[i], h[min] = h[min], h[i]
			h[i].index = i
			h[min].index = min
			i = min
		}
	}
	top.index = -2 // mark fired/expired
	return top
}
