package simtime

import (
	"sort"
	"testing"
)

// orderRig interprets a byte script of scheduler operations — At,
// AtCall and LaneCall over several lanes, Cancel, Step and RunUntil —
// against a reference model. Every event may schedule a child when it
// runs. After each operation the rig checks Pending against a
// brute-force count and the heap size against what lanes promise; at
// the end the executed sequence must be the uncancelled events sorted
// by (at, seq).
type orderRig struct {
	t     testing.TB
	s     *Scheduler
	lanes []Lane
	fire  func(any)

	evs     []orderEv
	fired   []int
	handles []int // ids of the events scheduled through At

	laneLive []int  // events queued on each lane, not yet run
	laneLast []Time // time of the last event to join each lane
	direct   int    // live events pushed straight onto the heap
	cancels  int    // successful cancels (their timers may linger in the heap)
	fallback int    // lane events that went to the heap out of lane order
}

type orderEv struct {
	at        Time
	timer     *Timer // At only
	lane      int    // -1 when the event did not join a lane
	spawn     byte   // schedules a child when non-zero
	cancelled bool
	fired     bool
}

const (
	kindAt = iota
	kindAtCall
	kindLane // at no earlier than the lane's tail
	kindLaneAny
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
	return r
}

// schedule adds one event; its seq is its id, since the rig schedules
// everything the scheduler sees.
func (r *orderRig) schedule(kind, lane int, at Time, spawn byte) {
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
		l := &r.lanes[lane]
		if kind == kindLane && r.laneLast[lane] > at {
			at = r.laneLast[lane]
		}
		ev.at = at
		r.s.LaneCall(l, at, r.fire, id)
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

func (r *orderRig) run(id int) {
	ev := &r.evs[id]
	if ev.fired || ev.cancelled || r.s.Now() != ev.at {
		r.t.Fatalf("event %d (at %v) ran at %v: fired %v, cancelled %v", id, ev.at, r.s.Now(), ev.fired, ev.cancelled)
	}
	ev.fired = true
	r.fired = append(r.fired, id)
	if ev.lane >= 0 {
		r.laneLive[ev.lane]--
	} else {
		r.direct--
	}
	r.check()
	if ev.spawn != 0 {
		b := ev.spawn
		r.schedule(int(b%3), int(b)%len(r.lanes), r.s.Now()+Time(b%5), b/2)
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
		switch op % 7 {
		case 0:
			r.schedule(kindAt, 0, now+Time(a), op/7)
		case 1:
			r.schedule(kindAtCall, 0, now+Time(a), op/7)
		case 2:
			r.schedule(kindLane, int(b)%len(r.lanes), now+Time(a%4), op/7)
		case 3:
			r.schedule(kindLaneAny, int(b)%len(r.lanes), now+Time(a), op/7)
		case 4:
			r.cancel(int(a))
		case 5:
			for i := 0; i <= int(a%4); i++ {
				r.s.Step()
			}
		case 6:
			r.s.RunUntil(now + Time(a))
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
// monotone set it never emits the out-of-lane-order LaneCall.
func lcgScript(seed uint64, n int, monotone bool) []byte {
	out := make([]byte, 0, 3*n)
	for len(out) < 3*n {
		seed = seed*6364136223846793005 + 1442695040888963407
		op := byte(seed >> 56)
		if monotone && op%7 == 3 {
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
	}{
		{"one-lane", 1, 400, 1, false},
		{"four-lanes", 2, 2000, 4, false},
		{"many-lanes", 3, 3000, 16, false},
		{"monotone", 4, 3000, 8, true},
		{"monotone-one-lane", 5, 1000, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newOrderRig(t, tc.lanes)
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
	for i := 0; i < 4000; i++ {
		s.LaneCall(&lanes[i%4], Time(i/4), record, i)
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
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*1000 {
			script = script[:3*1000]
		}
		newOrderRig(t, 5).exec(script)
	})
}
