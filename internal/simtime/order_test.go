package simtime

import (
	"sort"
	"testing"
)

// orderRig interprets a byte script of scheduler operations — At,
// AtCall and LaneTimer over several lanes, Cancel, Step and RunUntil —
// against a reference model. Every event may schedule a child when it
// runs. Lane events ride records that own their timers, drawn from a
// rig-held freelist the way the simulator's frames are: once its event
// has run, a record goes back on the freelist — often while it is
// still its lane's stale tail — or reschedules itself onto another
// lane from inside that event, as a fabric hop does. After each
// operation the rig checks Pending against a brute-force count, the
// timers the heap queues against what lanes promise, and every run
// against its order; at the end the executed sequence must be the
// uncancelled events sorted by (at, seq). A burst files many lane
// heads at one instant, so that they share runs; the rig counts how
// runs form and retire, watching the heap root before each pop.
type orderRig struct {
	t       testing.TB
	s       *Scheduler
	lanes   []Lane
	fire    func(any) // AtCall events: arg is the event id
	fireRec func(any) // lane events: arg is the record

	evs     []orderEv
	fired   []int
	handles []int      // ids of the events scheduled through At
	free    []*laneRec // records whose events have run; the last is reused first

	laneLive []int  // events queued on each lane, not yet run
	laneLast []Time // time of the last event to join each lane
	direct   int    // live events pushed straight onto the heap
	cancels  int    // successful cancels (their timers may linger in the heap)
	fallback int    // lane events that went to the heap out of lane order
	refused  int    // LaneTimer calls on a pending record, each of which panicked

	root    rootView // the heap root as the last operation or event left it
	joined  int      // timers filed onto the heap that joined a run
	split   int      // lane successors refused by the run at their instant, opening a second
	reused  int      // lane successors that took an emptied root in place
	retired int      // runs emptied by a pop
}

// rootView is the heap root seen before a pop. When ok, the root holds
// an uncancelled timer, so the next pop is the one that runs it.
type rootView struct {
	ok   bool
	n    int    // heap entries
	run  bool   // the root is a run
	left int    // timers the root entry holds
	succ *Timer // the root timer's lane successor
}

// laneRec is a caller-owned record with its own timer, like a
// simulator frame; id is the event it carries now.
type laneRec struct {
	tm Timer
	id int
}

type orderEv struct {
	at        Time
	timer     *Timer   // At only
	rec       *laneRec // lane events only
	lane      int      // -1 when the event did not join a lane
	hopTo     int      // the lane a thenHop record moves on to
	then      int      // what a lane event's record does once the event has run
	spawn     byte     // schedules a child when non-zero
	cancelled bool
	fired     bool
}

const (
	kindAt = iota
	kindAtCall
	kindLane // at no earlier than the lane's tail
	kindLaneAny
)

// burstAtCalls is how many AtCall events a burst adds at its instant
// at most, beside its lane heads.
const burstAtCalls = 8

// What a lane event's record does once its event has run.
const (
	thenFree = iota // back on top of the freelist
	thenPark        // to the bottom of the freelist, unused while later events draw others
	thenHop         // rescheduled onto the next lane, from inside its own event
)

func newOrderRig(t testing.TB, lanes int) *orderRig {
	r := &orderRig{
		t:        t,
		s:        NewScheduler(),
		lanes:    make([]Lane, lanes),
		laneLive: make([]int, lanes),
		laneLast: make([]Time, lanes),
	}
	r.fire = func(arg any) { r.run(arg.(int)) }
	r.fireRec = func(arg any) { r.run(arg.(*laneRec).id) }
	return r
}

// schedule adds one event; its seq is its id, since the rig schedules
// everything the scheduler sees. A lane event rides rec, or a record
// from the freelist when rec is nil.
func (r *orderRig) schedule(kind, lane int, at Time, spawn byte, then int, rec *laneRec) {
	id := len(r.evs)
	ev := orderEv{at: at, lane: -1, spawn: spawn}
	switch kind {
	case kindAt:
		heap := len(r.s.heap)
		ev.timer = r.s.At(at, func() { r.run(id) })
		r.filed(heap)
		r.handles = append(r.handles, id)
		r.direct++
	case kindAtCall:
		heap := len(r.s.heap)
		r.s.AtCall(at, r.fire, id)
		r.filed(heap)
		r.direct++
	default:
		if rec == nil {
			rec = r.takeRec()
		}
		rec.id = id
		ev.rec, ev.then, ev.hopTo = rec, then, (lane+1)%len(r.lanes)
		if kind == kindLane && r.laneLast[lane] > at {
			at = r.laneLast[lane]
		}
		ev.at = at
		heap := len(r.s.heap)
		r.s.LaneTimer(&r.lanes[lane], at, &rec.tm)
		if r.laneLive[lane] == 0 || at < r.laneLast[lane] {
			r.filed(heap)
		}
		if r.laneLive[lane] > 0 && at < r.laneLast[lane] {
			r.direct++
			r.fallback++
		} else {
			ev.lane = lane
			r.laneLive[lane]++
			r.laneLast[lane] = at
		}
	}
	r.evs = append(r.evs, ev)
}

// filed counts the timer just queued in the heap as a join when the
// heap, which held heap entries before, gained none.
func (r *orderRig) filed(heap int) {
	if len(r.s.heap) == heap {
		r.joined++
	}
}

// burst files one lane event on every lane at a single instant, and up
// to burstAtCalls AtCall events beside them. It first queues lane b a
// head one tick earlier with a successor at the burst's instant: that
// successor is older than every timer the burst files, so when it is
// promoted the run open there must refuse it.
func (r *orderRig) burst(a, b byte) {
	at := r.s.Now() + 1 + Time(a%4)
	lane := int(b) % len(r.lanes)
	r.schedule(kindLane, lane, at-1, 0, thenFree, nil)
	r.schedule(kindLane, lane, at, 0, thenFree, nil)
	for i := 1; i < len(r.lanes); i++ {
		r.schedule(kindLane, (lane+i)%len(r.lanes), at, 0, thenFree, nil)
	}
	for i := 0; i < int(a>>2)%(burstAtCalls+1); i++ {
		r.schedule(kindAtCall, 0, at, 0, thenFree, nil)
	}
}

// look records the heap root before the next pop.
func (r *orderRig) look() {
	r.root = rootView{n: len(r.s.heap)}
	if r.root.n == 0 {
		return
	}
	e := &r.s.heap[0]
	if e.head.cancelled {
		return
	}
	q := r.queue(e)
	r.root.ok, r.root.run, r.root.succ = true, e.run != 0, e.head.next
	r.root.left = len(q)
}

// popped tells, from the root seen before the pop that ran the current
// event, what that pop did with the root and the lane successor.
func (r *orderRig) popped() {
	v := r.root
	r.root.ok = false
	if !v.ok {
		return
	}
	if v.left == 1 {
		if v.run {
			r.retired++
		}
		if v.succ != nil && len(r.s.heap) == v.n {
			r.reused++
		}
	}
	if v.succ == nil {
		return
	}
	for i := range r.s.heap {
		e := &r.s.heap[i]
		if e.head != v.succ || e.run == 0 {
			continue
		}
		for j := range r.s.heap {
			if f := &r.s.heap[j]; j != i && f.run != 0 && f.at == e.at && r.queue(f)[len(r.queue(f))-1].seq > e.seq {
				r.split++
				return
			}
		}
	}
}

// queue returns the timers heap entry e holds, head first.
func (r *orderRig) queue(e *entry) []*Timer {
	if e.run == 0 {
		return []*Timer{e.head}
	}
	run := r.s.runs[e.run]
	return run.q[run.i:]
}

func (r *orderRig) takeRec() *laneRec {
	if n := len(r.free); n > 0 {
		rec := r.free[n-1]
		r.free = r.free[:n-1]
		return rec
	}
	rec := &laneRec{}
	rec.tm.Bind(r.fireRec, rec)
	return rec
}

func (r *orderRig) run(id int) {
	ev := &r.evs[id]
	if ev.fired || ev.cancelled || r.s.Now() != ev.at {
		r.t.Fatalf("event %d (at %v) ran at %v: fired %v, cancelled %v", id, ev.at, r.s.Now(), ev.fired, ev.cancelled)
	}
	ev.fired = true
	r.popped()
	e := *ev // scheduling below may move r.evs
	r.fired = append(r.fired, id)
	if e.lane >= 0 {
		r.laneLive[e.lane]--
	} else {
		r.direct--
	}
	r.check()
	if b := e.spawn; b != 0 {
		r.schedule(int(b%3), int(b)%len(r.lanes), r.s.Now()+Time(b%5), b/2, int(b>>2)%3, nil)
	}
	switch {
	case e.rec == nil:
	case e.then == thenHop:
		r.schedule(kindLane, e.hopTo, r.s.Now()+Time(id%3), 0, thenFree, e.rec)
	case e.then == thenPark:
		r.free = append([]*laneRec{e.rec}, r.free...)
	default:
		r.free = append(r.free, e.rec)
	}
	r.look()
}

func (r *orderRig) cancel(i int) {
	if len(r.handles) == 0 {
		return
	}
	ev := &r.evs[r.handles[i%len(r.handles)]]
	want := !ev.fired && !ev.cancelled
	if got := ev.timer.Cancel(); got != want {
		r.t.Fatalf("Cancel = %v, want %v", got, want)
	}
	if want {
		ev.cancelled = true
		r.direct--
		r.cancels++
	}
}

// repend schedules the most recent still-pending lane record again,
// which must panic and leave the scheduler untouched.
func (r *orderRig) repend(lane int) {
	var rec *laneRec
	for k := len(r.evs) - 1; k >= 0 && rec == nil; k-- {
		if ev := &r.evs[k]; ev.rec != nil && !ev.fired {
			rec = ev.rec
		}
	}
	if rec == nil {
		return
	}
	defer func() {
		if recover() != nil {
			r.refused++
		}
	}()
	r.s.LaneTimer(&r.lanes[lane], r.s.Now(), &rec.tm)
	r.t.Fatalf("LaneTimer rescheduled the pending record of event %d", rec.id)
}

// check compares Pending with a brute-force count, and the timers the
// heap queues with one per non-empty lane plus every event pushed
// directly (cancelled timers stay queued until they reach the root);
// runs may only make the entries fewer than the timers.
func (r *orderRig) check() {
	r.t.Helper()
	live := 0
	for i := range r.evs {
		if !r.evs[i].fired && !r.evs[i].cancelled {
			live++
		}
	}
	if got := r.s.Pending(); got != live {
		r.t.Fatalf("Pending() = %d, want %d", got, live)
	}
	lo := r.direct
	for _, n := range r.laneLive {
		if n > 0 {
			lo++
		}
	}
	q := r.s.queued()
	if q < lo || q > lo+r.cancels {
		r.t.Fatalf("heap queues %d timers, want %d..%d", q, lo, lo+r.cancels)
	}
	if h := len(r.s.heap); h > q {
		r.t.Fatalf("heap holds %d entries for %d timers", h, q)
	}
	for i := range r.s.heap {
		e := &r.s.heap[i]
		if e.head.at != e.at || e.head.seq != e.seq {
			r.t.Fatalf("entry %d is keyed (%v, %d), its head is (%v, %d)", i, e.at, e.seq, e.head.at, e.head.seq)
		}
		q := r.queue(e)
		if q[0] != e.head {
			r.t.Fatalf("entry %d is not keyed by its run's head", i)
		}
		for j, t := range q[1:] {
			if prev := q[j]; t.at != e.at || t.seq <= prev.seq || t.sched == nil {
				r.t.Fatalf("run at %v holds (%v, %d) after seq %d", e.at, t.at, t.seq, prev.seq)
			}
		}
	}
}

// exec runs the script: three bytes per operation.
func (r *orderRig) exec(script []byte) {
	for ; len(script) >= 3; script = script[3:] {
		op, a, b := script[0], script[1], script[2]
		now := r.s.Now()
		lane := int(b) % len(r.lanes)
		switch op % 10 {
		case 0:
			r.schedule(kindAt, 0, now+Time(a), op/10, thenFree, nil)
		case 1:
			r.schedule(kindAtCall, 0, now+Time(a), op/10, thenFree, nil)
		case 2:
			r.schedule(kindLane, lane, now+Time(a%4), op/10, thenFree, nil)
		case 3:
			r.schedule(kindLaneAny, lane, now+Time(a), op/10, thenFree, nil)
		case 4:
			r.cancel(int(a))
		case 5:
			for i := 0; i <= int(a%4); i++ {
				r.s.Step()
			}
		case 6:
			r.s.RunUntil(now + Time(a))
		case 7:
			r.schedule(kindLane, lane, now+Time(a%4), op/10, thenHop, nil)
		case 8:
			r.schedule(kindLane, lane, now+Time(a%4), op/10, thenPark, nil)
		case 9:
			if op/10%2 == 1 {
				r.burst(a, b)
			} else {
				r.repend(lane)
			}
		}
		r.check()
		r.look()
	}
	r.s.Run(0)
	r.check()

	var want []int
	for id, ev := range r.evs {
		if !ev.cancelled {
			want = append(want, id)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := r.evs[want[i]], r.evs[want[j]]
		if a.at != b.at {
			return a.at < b.at
		}
		return want[i] < want[j]
	})
	if len(r.fired) != len(want) {
		r.t.Fatalf("ran %d events, want %d", len(r.fired), len(want))
	}
	for i := range want {
		if r.fired[i] != want[i] {
			r.t.Fatalf("event %d ran at position %d, want event %d (at %v)", r.fired[i], i, want[i], r.evs[want[i]].at)
		}
	}
	if got := r.s.Executed(); got != uint64(len(want)) {
		r.t.Fatalf("Executed() = %d, want %d", got, len(want))
	}
}

// lcgScript returns n operations drawn from a fixed generator; with
// monotone set it never emits the out-of-lane-order lane event.
func lcgScript(seed uint64, n int, monotone bool) []byte {
	out := make([]byte, 0, 3*n)
	for len(out) < 3*n {
		seed = seed*6364136223846793005 + 1442695040888963407
		op := byte(seed >> 56)
		if monotone && op%10 == 3 {
			continue
		}
		out = append(out, op, byte(seed>>40), byte(seed>>32))
	}
	return out
}

// burstScript files bursts onto fresh and busy instants between steps
// and drains; run on five lanes it joins runs, splits one and reuses
// the root for a promoted successor, and retires runs.
var burstScript = []byte{
	19, 5, 0, 5, 3, 0, 5, 3, 0, // burst at now+2 with one AtCall, then 8 steps
	19, 33, 1, 39, 37, 2, 5, 1, 0, // two bursts at one instant, then 2 steps
	2, 0, 3, 19, 30, 3, 6, 1, 0, // a lane event at now, a burst at now+3, run to now+1
	59, 7, 4, 6, 9, 0, // a burst, run past it
}

func TestSchedulerOrderTable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     uint64
		ops      int
		lanes    int
		monotone bool
		script   []byte // replaces the generated script when set
		refused  int    // LaneTimer calls on a pending record the script makes
	}{
		{name: "one-lane", seed: 1, ops: 400, lanes: 1},
		{name: "four-lanes", seed: 2, ops: 2000, lanes: 4},
		{name: "many-lanes", seed: 3, ops: 3000, lanes: 16},
		{name: "monotone", seed: 4, ops: 3000, lanes: 8, monotone: true},
		{name: "monotone-one-lane", seed: 5, ops: 1000, lanes: 1, monotone: true},
		// A lane event, then LaneTimer on its still-queued record.
		{name: "pending-timer-panics", lanes: 2, script: []byte{2, 5, 0, 9, 0, 1}, refused: 1},
		{name: "burst", lanes: 5, script: burstScript},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newOrderRig(t, tc.lanes)
			if tc.script != nil {
				r.exec(tc.script)
				if r.refused != tc.refused {
					t.Fatalf("%d LaneTimer calls on a pending record panicked, want %d", r.refused, tc.refused)
				}
				if tc.refused == 0 {
					r.requireRuns()
				}
				return
			}
			r.exec(lcgScript(tc.seed, tc.ops, tc.monotone))
			if tc.monotone && r.fallback != 0 {
				t.Fatalf("%d lane events took the heap fallback in a monotone script", r.fallback)
			}
			if !tc.monotone && r.fallback == 0 {
				t.Fatal("script never exercised the heap fallback")
			}
			r.requireRuns()
		})
	}
}

// requireRuns fails unless the script joined a run, split one, reused
// an emptied root for a lane successor and retired a run.
func (r *orderRig) requireRuns() {
	r.t.Helper()
	for _, c := range []struct {
		n    int
		what string
	}{
		{r.joined, "joined a run"},
		{r.split, "refused a lane successor a join, opening a second run"},
		{r.reused, "reused an emptied root in place"},
		{r.retired, "retired a run"},
	} {
		if c.n == 0 {
			r.t.Errorf("script never %s", c.what)
		}
	}
}

// TestLaneHeapHoldsOneEntryPerLane: a thousand monotone arrivals on
// each of four lanes queue four timers in the heap, the lane heads.
func TestLaneHeapHoldsOneEntryPerLane(t *testing.T) {
	s := NewScheduler()
	lanes := make([]Lane, 4)
	var ran []int
	record := func(arg any) { ran = append(ran, arg.(int)) }
	timers := make([]Timer, 4000)
	for i := range timers {
		timers[i].Bind(record, i)
		s.LaneTimer(&lanes[i%4], Time(i/4), &timers[i])
	}
	if s.queued() != 4 || len(s.heap) > 4 || s.Pending() != 4000 {
		t.Fatalf("heap queues %d timers in %d entries, pending %d; want 4, at most 4 and 4000", s.queued(), len(s.heap), s.Pending())
	}
	s.Run(0)
	for i, v := range ran {
		if v != i {
			t.Fatalf("position %d ran event %d", i, v)
		}
	}
	if len(s.heap) != 0 || s.Pending() != 0 {
		t.Fatalf("heap %d, pending %d after draining", len(s.heap), s.Pending())
	}
}

func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{2, 5, 0, 2, 3, 1, 3, 0, 0, 5, 0, 0})
	f.Add([]byte{0, 10, 0, 4, 0, 0, 9, 4, 1, 6, 20, 0, 3, 1, 1})
	f.Add(lcgScript(7, 200, false))
	f.Add([]byte{7, 1, 0, 8, 2, 1, 2, 0, 0, 5, 3, 0, 9, 0, 0, 2, 1, 1, 5, 3, 0})
	f.Add(burstScript)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*1000 {
			script = script[:3*1000]
		}
		newOrderRig(t, 5).exec(script)
	})
}
