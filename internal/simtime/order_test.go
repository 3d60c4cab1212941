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
// operation the rig checks Pending against a brute-force count and the
// heap size against what lanes promise; at the end the executed
// sequence must be the uncancelled events sorted by (at, seq).
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
		ev.timer = r.s.At(at, func() { r.run(id) })
		r.handles = append(r.handles, id)
		r.direct++
	case kindAtCall:
		r.s.AtCall(at, r.fire, id)
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
		r.s.LaneTimer(&r.lanes[lane], at, &rec.tm)
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

// check compares Pending with a brute-force count, and the heap size
// with one entry per non-empty lane plus every event pushed directly
// (cancelled timers stay in the heap until they reach its root).
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
	if h := len(r.s.heap); h < lo || h > lo+r.cancels {
		r.t.Fatalf("heap holds %d timers, want %d..%d", h, lo, lo+r.cancels)
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
			r.repend(lane)
		}
		r.check()
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

func TestSchedulerOrderTable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     uint64
		ops      int
		lanes    int
		monotone bool
		script   []byte // replaces the generated script when set
	}{
		{name: "one-lane", seed: 1, ops: 400, lanes: 1},
		{name: "four-lanes", seed: 2, ops: 2000, lanes: 4},
		{name: "many-lanes", seed: 3, ops: 3000, lanes: 16},
		{name: "monotone", seed: 4, ops: 3000, lanes: 8, monotone: true},
		{name: "monotone-one-lane", seed: 5, ops: 1000, lanes: 1, monotone: true},
		// A lane event, then LaneTimer on its still-queued record.
		{name: "pending-timer-panics", lanes: 2, script: []byte{2, 5, 0, 9, 0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newOrderRig(t, tc.lanes)
			if tc.script != nil {
				r.exec(tc.script)
				if r.refused != 1 {
					t.Fatalf("%d LaneTimer calls on a pending record panicked, want 1", r.refused)
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
		})
	}
}

// TestLaneHeapHoldsOneEntryPerLane: a thousand monotone arrivals on
// each of four lanes cost the heap four entries.
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
	if len(s.heap) != 4 || s.Pending() != 4000 {
		t.Fatalf("heap %d, pending %d; want 4 and 4000", len(s.heap), s.Pending())
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
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*1000 {
			script = script[:3*1000]
		}
		newOrderRig(t, 5).exec(script)
	})
}
