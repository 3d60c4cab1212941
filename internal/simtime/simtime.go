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
// of one serializing link. Only its head is queued in the scheduler;
// the rest wait in line behind it, so a link with a thousand frames in
// flight costs the queue one timer, and the lane heads of many links
// due at one instant can share a heap entry. The zero value is an
// empty lane. A Lane that has been passed to LaneTimer must not be
// copied.
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

// Scheduler is a deterministic discrete-event executor. It queues
// every pending timer that is not waiting behind a lane head in a
// binary min-heap whose entries each hold one timer or a run of timers
// due at one instant; events run in exactly (at, seq) order either way.
// It is not safe for concurrent use; simulations are single-threaded
// by design (parallelism in this repository lives one level up, across
// independent simulations).
type Scheduler struct {
	now Time
	// heap is ordered by each entry's key, its head's (at, seq).
	heap []entry
	seq  uint64
	// runs holds every run by its number (runs[0] is unused, so that
	// zero means none); idle numbers the retired ones, which keep
	// their capacity. Entries and the index name runs by number: an
	// entry moved while the collector runs then pays one write
	// barrier, not two, and the index holds no pointers at all.
	runs []*run
	idle []int32
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

	index [1 << indexBits]slot // instant -> the run open there (see file)
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
// is AtCall's: t is never cancelled, nothing is allocated in steady
// state, and events run in exactly (at, scheduling order), because a
// lane only ever holds events in that order: an event no earlier than
// the lane's tail joins the lane, and one that is earlier (a jittered
// or delayed arrival overtaking the link's queue) is queued in the
// scheduler directly, as the head of an empty lane is.
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
		if s.heap[0].head.cancelled {
			s.recycle(s.pop())
			continue
		}
		return s.heap[0].at, true
	}
	return 0, false
}

// entry is one heap entry: a lone timer (run 0) or the run it heads,
// keyed by its head's (at, seq) so that sifting compares values
// instead of chasing timers.
type entry struct {
	at   Time
	seq  uint64
	head *Timer
	run  int32
}

// less orders entries by (time, sequence) — a total order, so any
// correct heap yields the identical execution sequence.
func (e *entry) less(f *entry) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// run is a FIFO of timers due at one instant, in seq order; q[i] is
// its head. One heap entry stands for the whole run, keyed by that
// head, so two runs — or a run and lone timers — at one instant still
// pop in exactly (at, seq) order.
type run struct {
	q []*Timer
	i int
}

// slot is one line of the instant index: the instant it last saw, how
// many lone timers were filed there, and the run open there.
type slot struct {
	at   Time
	lone int32
	run  int32
}

const (
	// runAfter is how many timers at one instant go into the heap
	// alone before the next opens a run: a hub's lockstep pairs are
	// cheaper as lone entries than as a run.
	runAfter    = 2
	indexBits   = 6 // the instant index has 1<<indexBits slots
	firstRuns   = 16
	firstRunCap = 8
)

// firstBlock is a scheduler's first allocation, made on first use:
// firstRuns runs of firstRunCap timers, the run table and free list
// that number them, and a heap of firstRuns entries, so a short-lived
// scheduler does not grow them from nil.
type firstBlock struct {
	runs  [firstRuns]run
	slots [firstRuns * firstRunCap]*Timer
	table [firstRuns + 1]*run
	idle  [firstRuns]int32
	heap  [firstRuns]entry
}

func (s *Scheduler) firstUse() {
	b := new(firstBlock)
	s.heap = b.heap[:0]
	s.runs = b.table[:1]
	s.idle = b.idle[:0]
	for i := range b.runs {
		r := &b.runs[i]
		r.q = b.slots[i*firstRunCap : i*firstRunCap : (i+1)*firstRunCap]
		s.idle = append(s.idle, int32(len(s.runs)))
		s.runs = append(s.runs, r)
	}
}

// file files the heap-resident timer t. It joins the run open at its
// instant when that run is live there and its tail is older;
// otherwise file returns the entry t needs of its own, lone or as the
// head of a new run. The index is a lossy cache: a stale or colliding
// slot only costs grouping, never order.
func (s *Scheduler) file(t *Timer) (entry, bool) {
	sl := &s.index[uint64(t.at)*0x9e3779b97f4a7c15>>(64-indexBits)]
	if sl.at != t.at {
		// The run left here needs no clearing: t joins it only while
		// it is live at t's instant.
		sl.at, sl.lone = t.at, 1
		return entry{at: t.at, seq: t.seq, head: t}, false
	}
	if sl.lone < runAfter {
		sl.lone++
		return entry{at: t.at, seq: t.seq, head: t}, false
	}
	if sl.run != 0 {
		if r := s.runs[sl.run]; r.i < len(r.q) {
			if tail := r.q[len(r.q)-1]; tail.at == t.at && tail.seq < t.seq {
				r.q = append(r.q, t)
				return entry{}, true
			}
		}
	}
	var n int32
	if k := len(s.idle); k > 0 {
		n = s.idle[k-1]
		s.idle = s.idle[:k-1]
	} else {
		n = int32(len(s.runs))
		s.runs = append(s.runs, &run{q: make([]*Timer, 0, firstRunCap)})
	}
	r := s.runs[n]
	r.q = append(r.q, t)
	sl.run = n
	return entry{at: t.at, seq: t.seq, head: t, run: n}, false
}

// push files t and, unless it joined a run, sifts its entry up.
func (s *Scheduler) push(t *Timer) {
	if s.heap == nil {
		s.firstUse()
	}
	e, joined := s.file(t)
	if joined {
		return
	}
	s.heap = append(s.heap, entry{})
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the minimum timer. When the root's run
// still holds timers, its next one re-keys the root. When the popped
// timer heads a lane, the lane's next timer is filed; if it needs an
// entry of its own and the root is left empty, it takes the root in
// place — it is no earlier, so one sift down restores the heap.
func (s *Scheduler) pop() *Timer {
	h := s.heap
	root := &h[0]
	top := root.head
	top.sched = nil
	succ := top.next
	top.next = nil
	if n := root.run; n != 0 {
		r := s.runs[n]
		r.q[r.i] = nil
		if r.i++; r.i < len(r.q) {
			next := r.q[r.i]
			s.siftDown(entry{at: root.at, seq: next.seq, head: next, run: n})
			if succ != nil {
				s.push(succ)
			}
			return top
		}
		r.q, r.i = r.q[:0], 0
		s.idle = append(s.idle, n)
	}
	if succ != nil {
		if e, joined := s.file(succ); !joined {
			s.siftDown(e)
			return top
		}
	}
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(last)
	}
	return top
}

// siftDown puts e at the root in place of the entry there and sifts it
// down.
func (s *Scheduler) siftDown(e entry) {
	h := s.heap
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(&h[c]) {
			c = r
		}
		if !h[c].less(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// queued counts the heap-resident timers: lane heads and every timer
// not on a lane, cancelled ones included until they pop.
func (s *Scheduler) queued() int {
	n := 0
	for i := range s.heap {
		if k := s.heap[i].run; k != 0 {
			n += len(s.runs[k].q) - s.runs[k].i
		} else {
			n++
		}
	}
	return n
}
