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

// Timer is one scheduled event. At returns it as a handle that can
// be cancelled. A caller can also own one outright: embedded in the
// record an event carries, bound once with Bind and scheduled with
// LaneTimer each time the record moves on, so the record and its
// place in the queue are one allocation.
type Timer struct {
	at   Time
	seq  uint64
	call func(any) // the event is call(arg); At's fn runs through callFunc
	arg  any
	// sched is set while the timer is pending and cleared when it
	// leaves the queue: Cancel reads it to tell pending from fired and
	// keep the scheduler's live count exact, a Lane to tell whether its
	// tail has run, and LaneTimer to refuse a timer still queued.
	sched     *Scheduler
	next      *Timer // the timer behind this one in its Lane
	cancelled bool
	pooled    bool // recycled after firing; never escapes to callers
}

// callFunc runs the func() that At stores as a timer's arg.
func callFunc(fn any) { fn.(func())() }

// Bind sets the event an owned timer runs: call(arg). Bind it once,
// to a long-lived method value and the record the timer lives in, and
// schedule it with LaneTimer as often as needed.
func (t *Timer) Bind(call func(any), arg any) { t.call, t.arg = call, arg }

// Cancel prevents the event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op. Cancel reports
// whether the event was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.cancelled || t.sched == nil {
		return false
	}
	t.cancelled = true
	t.sched.live--
	return true
}

// When returns the simulated time the timer fires at.
func (t *Timer) When() Time { return t.at }

// Lane is a FIFO of events whose times never decrease — the arrivals
// of one serializing link. Only its head sits in the scheduler's heap;
// the rest wait in line behind it, so a link with a thousand frames in
// flight costs the heap one entry. The zero value is an empty lane. A
// Lane that has been passed to LaneTimer must not be copied.
type Lane struct {
	// tail is the last timer to join, and seq the sequence number it
	// joined with. Timers hold no pointer back to their lane, so the
	// lane is empty once that timer has left the queue (sched is nil)
	// or been scheduled again for a later event (its seq moved on).
	tail *Timer
	seq  uint64
}

// queued reports whether the lane's tail is still waiting to run.
func (l *Lane) queued() bool {
	return l.tail != nil && l.tail.seq == l.seq && l.tail.sched != nil
}

// Scheduler is a deterministic discrete-event executor.
// It is not safe for concurrent use; simulations are single-threaded
// by design (parallelism in this repository lives one level up, across
// independent simulations).
type Scheduler struct {
	now Time
	// heap is a binary min-heap ordered by (at, seq) holding every
	// pending timer that is not waiting behind a lane head.
	heap []*Timer
	seq  uint64
	// executed counts events that have run (for tests and tracing);
	// live counts scheduled events that have neither run nor been
	// cancelled.
	executed uint64
	live     int

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
func (s *Scheduler) Pending() int { return s.live }

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
	t := &Timer{at: at, seq: s.seq, call: callFunc, arg: fn, sched: s}
	s.seq++
	s.live++
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
	var t *Timer
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		if len(s.slab) == cap(s.slab) {
			s.slab = make([]Timer, 0, 128)
		}
		s.slab = s.slab[:len(s.slab)+1]
		t = &s.slab[len(s.slab)-1]
		t.pooled = true
	}
	t.Bind(call, arg)
	s.LaneTimer(nil, at, t)
}

// LaneTimer schedules the caller-owned timer t, bound with Bind, to
// fire at absolute time at, queued on lane l — the arrival of a frame
// on the link l stands for — or on no lane when l is nil. Its contract
// is AtCall's: t is never cancelled, nothing is allocated, and events
// run in exactly (at, scheduling order), because a lane only ever
// holds events in that order: an event no earlier than the lane's tail
// joins the lane, and one that is earlier (a jittered or delayed
// arrival overtaking the link's queue) goes straight onto the heap.
// Once t has fired it may be scheduled again, from inside its own
// event too; scheduling it while it is still pending panics.
func (s *Scheduler) LaneTimer(l *Lane, at Time, t *Timer) {
	s.checkAt(at)
	if t.call == nil {
		panic("simtime: nil event function")
	}
	if t.sched != nil {
		panic("simtime: LaneTimer on a pending timer")
	}
	t.at, t.seq, t.sched, t.cancelled = at, s.seq, s, false
	s.seq++
	s.live++
	if l != nil {
		queued := l.queued()
		if queued && at >= l.tail.at {
			// In lane order: wait behind the tail, out of the heap.
			l.tail.next = t
			l.tail, l.seq = t, t.seq
			return
		}
		if !queued {
			l.tail, l.seq = t, t.seq // the new head
		}
	}
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
		s.live--
		call, arg := t.call, t.arg
		s.recycle(t)
		call(arg)
		return true
	}
	return false
}

// recycle returns a pooled timer to the free list, dropping the event
// it held. Timers created by At are left for the garbage collector —
// their handles may still be referenced by the caller — and owned
// timers stay with their owners.
func (s *Scheduler) recycle(t *Timer) {
	if !t.pooled {
		return
	}
	t.call, t.arg = nil, nil
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
	s.heap = append(s.heap, nil)
	h := s.heap
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

// pop removes and returns the minimum timer. When it heads a lane, the
// lane's next timer takes its place at the root — it is no earlier, so
// one sift down restores the heap.
func (s *Scheduler) pop() *Timer {
	h := s.heap
	top := h[0]
	top.sched = nil
	t := top.next
	top.next = nil
	if t == nil {
		n := len(h) - 1
		t = h[n]
		h[n] = nil
		h = h[:n]
		s.heap = h
		if n == 0 {
			return top
		}
	}
	// Sift t down from the root.
	n := len(h)
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
