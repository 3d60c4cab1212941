package simtime

import (
	"testing"
	"time"
)

func TestOrderingByTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(time.Second), func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break unstable: %v", order)
		}
	}
}

func TestClockAdvancesOnlyAtEvents(t *testing.T) {
	s := NewScheduler()
	fired := Time(-1)
	s.After(5*time.Second, func() { fired = s.Now() })
	if s.Now() != 0 {
		t.Fatal("clock moved before Step")
	}
	if !s.Step() {
		t.Fatal("Step found no event")
	}
	if fired != Time(5*time.Second) {
		t.Fatalf("event saw now = %v", fired)
	}
	if s.Step() {
		t.Fatal("Step ran a phantom event")
	}
}

func TestEventsScheduledDuringEvents(t *testing.T) {
	s := NewScheduler()
	var log []string
	s.After(time.Second, func() {
		log = append(log, "a")
		s.After(time.Second, func() { log = append(log, "c") })
		s.After(0, func() { log = append(log, "b") }) // same timestamp, runs after current
	})
	s.Run(0)
	if want := []string{"a", "b", "c"}; len(log) != 3 || log[0] != want[0] || log[1] != want[1] || log[2] != want[2] {
		t.Fatalf("log = %v", log)
	}
	if s.Executed() != 3 {
		t.Fatalf("executed = %d", s.Executed())
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel reported not pending")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel reported pending")
	}
	s.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Clock does not advance for cancelled events.
	if s.Now() != 0 {
		t.Fatalf("now = %v after cancelled event", s.Now())
	}
}

func TestCancelAfterFiring(t *testing.T) {
	s := NewScheduler()
	tm := s.After(0, func() {})
	s.Run(0)
	if tm.Cancel() {
		t.Fatal("Cancel after firing reported pending")
	}
}

func TestCancelNil(t *testing.T) {
	var tm *Timer
	if tm.Cancel() {
		t.Fatal("nil Cancel reported pending")
	}
}

func TestRunBudget(t *testing.T) {
	s := NewScheduler()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		s.After(time.Millisecond, reschedule)
	}
	s.After(time.Millisecond, reschedule)
	if n := s.Run(100); n != 100 {
		t.Fatalf("Run(100) executed %d", n)
	}
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.After(d, func() { fired = append(fired, s.Now()) })
	}
	n := s.RunUntil(Time(2 * time.Second))
	if n != 2 || len(fired) != 2 {
		t.Fatalf("RunUntil ran %d events (%v)", n, fired)
	}
	if s.Now() != Time(2*time.Second) {
		t.Fatalf("now = %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	// Deadline between events still advances the clock.
	s.RunUntil(Time(2500 * time.Millisecond))
	if s.Now() != Time(2500*time.Millisecond) {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.After(time.Second, func() {})
	s.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(0, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	s.After(-time.Second, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event function did not panic")
		}
	}()
	s.After(time.Second, nil)
}

func TestRunUntilPastPanics(t *testing.T) {
	s := NewScheduler()
	s.After(time.Second, func() {})
	s.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil in the past did not panic")
		}
	}()
	s.RunUntil(0)
}

func TestTimeHelpers(t *testing.T) {
	tt := Time(0).Add(1500 * time.Millisecond)
	if tt != Time(1500*time.Millisecond) {
		t.Fatalf("Add = %v", tt)
	}
	if tt.Duration() != 1500*time.Millisecond {
		t.Fatalf("Duration = %v", tt.Duration())
	}
	if tt.String() != "1.5s" {
		t.Fatalf("String = %q", tt.String())
	}
}

func TestManyEventsStress(t *testing.T) {
	s := NewScheduler()
	const n = 10000
	var count int
	// Schedule in a scrambled but deterministic order.
	for i := 0; i < n; i++ {
		at := Time((i*7919)%n) * Time(time.Millisecond)
		s.At(at, func() { count++ })
	}
	prev := Time(-1)
	for s.Step() {
		if s.Now() < prev {
			t.Fatal("time went backwards")
		}
		prev = s.Now()
	}
	if count != n {
		t.Fatalf("ran %d events, want %d", count, n)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%64)*time.Microsecond, fn)
		if i%64 == 63 {
			s.Run(0)
		}
	}
	s.Run(0)
}

func TestAtCallSharesOrderingWithAt(t *testing.T) {
	s := NewScheduler()
	var order []int
	record := func(arg any) { order = append(order, arg.(int)) }
	s.At(Time(time.Second), func() { order = append(order, 0) })
	s.AtCall(Time(time.Second), record, 1)
	s.At(Time(time.Second), func() { order = append(order, 2) })
	s.AtCall(Time(time.Second), record, 3)
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("AtCall/At interleaving unstable: %v", order)
		}
	}
}

func TestAtCallRecyclesTimers(t *testing.T) {
	s := NewScheduler()
	fired := 0
	count := func(any) { fired++ }
	// Self-rescheduling chain: steady state must reuse one pooled timer.
	var step func(any)
	step = func(arg any) {
		fired++
		if fired < 1000 {
			s.AtCall(s.Now().Add(time.Millisecond), step, nil)
		}
	}
	s.AtCall(Time(0), step, nil)
	s.Run(0)
	if fired != 1000 {
		t.Fatalf("fired = %d", fired)
	}
	if len(s.free) != 1 {
		t.Fatalf("free list has %d timers, want 1 recycled", len(s.free))
	}
	// A burst reuses the free list before growing the slab.
	for i := 0; i < 10; i++ {
		s.AtCall(s.Now().Add(time.Millisecond), count, nil)
	}
	s.Run(0)
	if fired != 1010 {
		t.Fatalf("burst fired = %d", fired)
	}
	if len(s.free) != 10 {
		t.Fatalf("free list has %d timers after burst, want 10", len(s.free))
	}
}

func TestHeapStressAgainstReferenceOrder(t *testing.T) {
	// Pseudo-random interleaved schedule; execution must sort stably
	// by (time, scheduling order).
	s := NewScheduler()
	type ev struct {
		at  Time
		seq int
	}
	var want []ev
	var got []ev
	seed := uint64(0x9e3779b97f4a7c15)
	seq := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		for i := 0; i < 40; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			at := s.Now().Add(time.Duration(seed % 97))
			e := ev{at: at, seq: seq}
			seq++
			want = append(want, e)
			if seed%3 == 0 {
				s.AtCall(at, func(arg any) { got = append(got, arg.(ev)) }, e)
			} else {
				s.At(at, func() { got = append(got, e) })
			}
		}
	}
	schedule(0)
	s.After(time.Duration(200), func() { schedule(1) })
	s.Run(0)
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	// got must be sorted by (at, seq).
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("events out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestSimultaneousLaneHeadsShareARun: the heads of 432 lanes due at one
// instant share a few heap entries, and their successors, promoted as
// the heads run, join a run at their own instant; all run in seq
// order.
func TestSimultaneousLaneHeadsShareARun(t *testing.T) {
	const lanes = 432
	s := NewScheduler()
	ls := make([]Lane, lanes)
	timers := make([]Timer, 2*lanes)
	var ran []int
	record := func(arg any) { ran = append(ran, arg.(int)) }
	for i := range timers {
		timers[i].Bind(record, i)
		s.LaneTimer(&ls[i%lanes], Time(10+10*(i/lanes)), &timers[i])
	}
	if s.queued() != lanes || len(s.heap) > runAfter+1 {
		t.Fatalf("heap queues %d timers in %d entries, want %d in at most %d", s.queued(), len(s.heap), lanes, runAfter+1)
	}
	s.Step()
	if s.queued() != lanes || len(s.heap) > 2*(runAfter+1) {
		t.Fatalf("after one step the heap queues %d timers in %d entries, want %d in at most %d", s.queued(), len(s.heap), lanes, 2*(runAfter+1))
	}
	s.Run(0)
	if len(ran) != len(timers) {
		t.Fatalf("ran %d events, want %d", len(ran), len(timers))
	}
	for i, v := range ran {
		if v != i {
			t.Fatalf("position %d ran event %d", i, v)
		}
	}
}

// lockstep is a fabric in miniature: every lane holds depth frames,
// one tick apart, and each frame re-arms itself on its lane depth
// ticks on once it has run, so every lane's head falls due at the
// same instant.
type lockstep struct {
	s      *Scheduler
	lanes  []Lane
	frames []lockFrame
	depth  int
}

type lockFrame struct {
	tm   Timer
	l    *lockstep
	lane int
}

func newLockstep(lanes, depth int) *lockstep {
	l := &lockstep{s: NewScheduler(), lanes: make([]Lane, lanes), frames: make([]lockFrame, lanes*depth), depth: depth}
	for i := range l.frames {
		f := &l.frames[i]
		f.l, f.lane = l, i%lanes
		f.tm.Bind(hopFrame, f)
		l.s.LaneTimer(&l.lanes[f.lane], Time(1+i/lanes), &f.tm)
	}
	return l
}

func hopFrame(arg any) {
	f := arg.(*lockFrame)
	s := f.l.s
	s.LaneTimer(&f.l.lanes[f.lane], s.Now()+Time(f.l.depth), &f.tm)
}

func benchLockstep(b *testing.B, lanes, depth int) {
	l := newLockstep(lanes, depth)
	l.s.Run(lanes * depth)
	b.ReportAllocs()
	b.ResetTimer()
	l.s.Run(b.N)
}

// BenchmarkSchedulerFabricBurst: a fabric's lockstep, many lanes with
// a shallow queue each — simultaneous lane heads share runs.
func BenchmarkSchedulerFabricBurst(b *testing.B) { benchLockstep(b, 2000, 4) }

// BenchmarkSchedulerHub: a hub's lockstep pair of deep lanes, where
// runs never form.
func BenchmarkSchedulerHub(b *testing.B) { benchLockstep(b, 2, 1000) }

// BenchmarkSchedulerIsolated: one timer re-arming itself, alone in the
// heap.
func BenchmarkSchedulerIsolated(b *testing.B) { benchLockstep(b, 1, 1) }

func TestWarmFabricBurstAllocatesNothing(t *testing.T) {
	l := newLockstep(2000, 4)
	l.s.Run(2 * 2000 * 4)
	if n := testing.AllocsPerRun(5, func() { l.s.Run(2000 * 4) }); n != 0 {
		t.Fatalf("a warmed fabric burst allocates %v times per round, want 0", n)
	}
}

// TestFreshSchedulerAllocations: a fresh scheduler's first thousand
// events, over 15 instants in flight with 8 timers each — at most 16
// runs at once, counting the one draining — allocate no more than the
// scheduler and a heap of timer pointers growing from nil to the same
// number of pending timers would.
func TestFreshSchedulerAllocations(t *testing.T) {
	const instants, each, events = 15, 8, 1000
	var heap []*Timer
	growth := testing.AllocsPerRun(1, func() {
		schedSink = NewScheduler()
		heap = nil
		for i := 0; i < instants*each; i++ {
			heap = append(heap, nil)
		}
	})
	var s *Scheduler
	timers := make([]Timer, instants*each)
	rearm := func(arg any) {
		if s.Executed() < events {
			s.LaneTimer(nil, s.Now()+instants, arg.(*Timer))
		}
	}
	for i := range timers {
		timers[i].Bind(rearm, &timers[i])
	}
	got := testing.AllocsPerRun(1, func() {
		s = NewScheduler()
		for i := range timers {
			s.LaneTimer(nil, Time(1+i%instants), &timers[i])
		}
		s.Run(0)
	})
	t.Logf("%v allocations; a growing heap and the scheduler make %v", got, growth)
	if got > growth {
		t.Fatalf("a fresh scheduler allocated %v times in its first %d events, a growing heap %v", got, events, growth)
	}
}

var schedSink *Scheduler
