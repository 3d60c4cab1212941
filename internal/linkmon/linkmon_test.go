package linkmon

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"drsnet/internal/clock"
	"drsnet/internal/simtime"
)

func TestRoundsPeriodAndStop(t *testing.T) {
	s := simtime.NewScheduler()
	r := NewRounds(simtime.Clock{Sched: s})
	var fired []time.Duration
	r.Run(time.Second, func() { fired = append(fired, s.Now().Duration()) })
	s.RunUntil(simtime.Time(3500 * time.Millisecond))
	if len(fired) != 4 { // t=0s,1s,2s,3s
		t.Fatalf("fired %d times: %v", len(fired), fired)
	}
	for i, at := range fired {
		if want := time.Duration(i) * time.Second; at != want {
			t.Fatalf("round %d at %v, want %v", i, at, want)
		}
	}
	r.Stop()
	if !r.stopped {
		t.Fatal("not stopped after Stop")
	}
	s.RunUntil(simtime.Time(10 * time.Second))
	if len(fired) != 4 {
		t.Fatalf("rounds kept firing after Stop: %d", len(fired))
	}
}

// TestRoundsStopRacesTick stops drivers on a live clock while their
// rounds tick on the clock's goroutine. Stop cancels no timer, so the
// stopped flag alone keeps the pending one from starting a body: after
// Stop returns, at most the one body already past its check may start,
// and a driver stopped between rounds starts none.
func TestRoundsStopRacesTick(t *testing.T) {
	clk := clock.NewWall()
	defer clk.Stop()
	const drivers, interval = 20, time.Millisecond
	late := int64(0)
	for i := 0; i < drivers; i++ {
		r := NewRounds(clk)
		var started atomic.Int64
		ticking := make(chan struct{})
		r.Run(interval, func() {
			if started.Add(1) == 3 {
				close(ticking)
			}
		})
		<-ticking
		r.Stop()
		atStop := started.Load()
		time.Sleep(10 * interval)
		extra := started.Load() - atStop
		if extra > 1 {
			t.Fatalf("driver %d: %d bodies started after Stop returned, want at most 1", i, extra)
		}
		late += extra
	}
	// A body in flight at Stop is a narrow race; one after every Stop
	// means the pending timer ran its body.
	if late == drivers {
		t.Fatalf("every driver started a body after Stop returned")
	}
}

func TestStaggerSpreadsSends(t *testing.T) {
	s := simtime.NewScheduler()
	r := NewRounds(simtime.Clock{Sched: s})
	type send struct {
		i  int
		at time.Duration
	}
	var sends []send
	r.Stagger(time.Second, 4, func(i int) {
		sends = append(sends, send{i, s.Now().Duration()})
	})
	// send(0) runs inline, before any event executes.
	if len(sends) != 1 || sends[0] != (send{0, 0}) {
		t.Fatalf("inline send = %v", sends)
	}
	s.RunUntil(simtime.Time(time.Second))
	if len(sends) != 4 {
		t.Fatalf("sends = %v", sends)
	}
	for i, got := range sends {
		want := send{i, time.Duration(i) * 250 * time.Millisecond}
		if got != want {
			t.Fatalf("send %d = %v, want %v", i, got, want)
		}
	}
}

func TestStaggerSkipsAfterStop(t *testing.T) {
	s := simtime.NewScheduler()
	r := NewRounds(simtime.Clock{Sched: s})
	var count int
	r.Stagger(time.Second, 4, func(int) { count++ })
	s.RunUntil(simtime.Time(300 * time.Millisecond)) // send 0 and 1
	r.Stop()
	s.RunUntil(simtime.Time(2 * time.Second))
	if count != 2 {
		t.Fatalf("sends after stop: count = %d, want 2", count)
	}
}

func TestTableProbeLifecycle(t *testing.T) {
	tbl := NewTable(4, 2)
	if tbl.Monitored(1) {
		t.Fatal("peer 1 monitored before Add")
	}
	if !tbl.Add(1) || tbl.Add(1) {
		t.Fatal("Add should succeed once")
	}
	if !tbl.AnyUp(1) {
		t.Fatal("links should start optimistically up")
	}

	// First probe: no miss (nothing pending yet).
	seq, down := tbl.BeginProbe(1, 0, 2)
	if down {
		t.Fatal("down on first probe")
	}
	// Reply confirms it; miss count clears.
	st, ok := tbl.Confirm(1, 0, seq)
	if !ok || st.Misses != 0 || st.Pending {
		t.Fatalf("confirm: ok=%v st=%+v", ok, st)
	}
	// A stale sequence is rejected.
	if _, ok := tbl.Confirm(1, 0, seq); ok {
		t.Fatal("stale reply accepted")
	}

	// Two unanswered rounds cross threshold 2.
	if _, down := tbl.BeginProbe(1, 0, 2); down {
		t.Fatal("down after zero misses")
	}
	if _, down := tbl.BeginProbe(1, 0, 2); down {
		t.Fatal("down after one miss")
	}
	if _, down := tbl.BeginProbe(1, 0, 2); !down {
		t.Fatal("not down after two misses")
	}
	tbl.State(1, 0).Up = false
	if rail, ok := firstUp(tbl, 1); !ok || rail != 1 || !tbl.AnyUp(1) {
		t.Fatalf("FirstUp = %d,%v after rail 0 down", rail, ok)
	}

	tbl.Remove(1)
	if tbl.Monitored(1) || tbl.AnyUp(1) || tbl.State(1, 0) != nil {
		t.Fatal("peer survives Remove")
	}
}

// TestTableRemoveAddResets: the rows share one slab, so a re-added
// peer must get fresh rails, with a new granted wait, without
// disturbing its neighbours' states.
func TestTableRemoveAddResets(t *testing.T) {
	tbl := NewTable(4, 2)
	for peer := 0; peer < 4; peer++ {
		tbl.Add(peer)
		for rail := 0; rail < 2; rail++ {
			seq, _ := tbl.BeginProbe(peer, rail, 2)
			st, _ := tbl.Confirm(peer, rail, seq)
			st.ObserveRTT(time.Duration(peer*10+rail+1) * time.Millisecond)
			st.Misses = peer + 1
			st.Up = rail == 0
		}
	}
	want := map[int][]State{}
	for _, peer := range []int{0, 2, 3} {
		want[peer] = []State{*tbl.State(peer, 0), *tbl.State(peer, 1)}
	}

	tbl.Remove(1)
	if !tbl.Add(1) {
		t.Fatal("re-Add after Remove refused")
	}
	for rail := 0; rail < 2; rail++ {
		if got := *tbl.State(1, rail); got != (State{Up: true, heard: true, granted: true}) {
			t.Errorf("re-added peer 1 rail %d = %+v, want fresh", rail, got)
		}
	}
	if cap(tbl.row(1)) != 2 {
		t.Errorf("row capacity %d reaches into the neighbour's rails", cap(tbl.row(1)))
	}
	for peer, states := range want {
		for rail, w := range states {
			if got := *tbl.State(peer, rail); got != w {
				t.Errorf("peer %d rail %d = %+v after peer 1 was re-added, want %+v", peer, rail, got, w)
			}
		}
	}
}

func TestTableSeqSharedAndWraps(t *testing.T) {
	tbl := NewTable(3, 2)
	tbl.Add(1)
	tbl.Add(2)
	s1, _ := tbl.BeginProbe(1, 0, 2)
	s2, _ := tbl.BeginProbe(2, 1, 2)
	if s1 == s2 {
		t.Fatalf("probes share sequence %d", s1)
	}
	tbl.SetSeq(0xffff)
	s3, _ := tbl.BeginProbe(1, 1, 2)
	if s3 != 0 {
		t.Fatalf("wrapped seq = %d, want 0", s3)
	}
	if _, ok := tbl.Confirm(1, 1, 0); !ok {
		t.Fatal("wrapped probe not confirmable")
	}
}

func TestObserveRTTSmoothing(t *testing.T) {
	var st State
	st.ObserveRTT(-time.Millisecond) // negative samples ignored
	if _, ok := st.RTT(); ok {
		t.Fatal("negative sample recorded")
	}
	st.ObserveRTT(8 * time.Millisecond)
	stats, ok := st.RTT()
	if !ok || stats.SRTT != 8*time.Millisecond || stats.RTTVar != 4*time.Millisecond {
		t.Fatalf("first sample: %+v ok=%v", stats, ok)
	}
	// Second sample of 16 ms: srtt += (16-8)/8 = 9 ms,
	// rttvar += (8-4)/4 = 5 ms.
	st.ObserveRTT(16 * time.Millisecond)
	stats, _ = st.RTT()
	if stats.SRTT != 9*time.Millisecond || stats.RTTVar != 5*time.Millisecond {
		t.Fatalf("second sample: %+v", stats)
	}
	if stats.Samples != 2 {
		t.Fatalf("samples = %d", stats.Samples)
	}
	if srtt, n := st.SRTT(); srtt != 9*time.Millisecond || n != 2 {
		t.Fatalf("SRTT() = %v, %d", srtt, n)
	}
}

func TestDeadlines(t *testing.T) {
	d := NewDeadlines(3, 2)
	now := time.Second
	if d.AnyAlive(1, now) {
		t.Fatal("alive before any refresh")
	}
	if !d.Refresh(1, 0, now, now+4*time.Second) {
		t.Fatal("first refresh should report a dead->alive edge")
	}
	if d.Refresh(1, 0, now+time.Second, now+5*time.Second) {
		t.Fatal("refresh of a live path reported an edge")
	}
	if !d.Alive(1, 0, now) || d.Alive(1, 1, now) {
		t.Fatal("per-rail aliveness wrong")
	}
	if rail, ok := d.FirstAlive(1, now); !ok || rail != 0 {
		t.Fatalf("FirstAlive = %d,%v", rail, ok)
	}

	// Sweep at the deadline: the entry expires exactly once.
	var expired [][2]int
	if !d.Sweep(now+5*time.Second, func(p, r int) { expired = append(expired, [2]int{p, r}) }) {
		t.Fatal("sweep found nothing")
	}
	if len(expired) != 1 || expired[0] != [2]int{1, 0} {
		t.Fatalf("expired = %v", expired)
	}
	if d.Sweep(now+6*time.Second, nil) {
		t.Fatal("second sweep re-expired a zeroed entry")
	}
	if d.AnyAlive(1, now+5*time.Second) {
		t.Fatal("alive after expiry")
	}
}

// TestStateIsOneCacheLine: a daemon keeps one State per monitored
// path, N² across a cluster, so the hot fields must stay within one
// 64-byte line; damping bookkeeping belongs behind State.cold.
func TestStateIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(State{}); size != 64 {
		t.Fatalf("State is %d bytes, want 64", size)
	}
}

// TestBeginRoundAnswersAfterHeardRequest walks the answering end of a
// shared exchange: its first round waits on Add's grant, and when no
// request meets that wait it probes until it hears the peer's request;
// then it waits for one request per round, and a round without one is
// a miss after which it probes again.
func TestBeginRoundAnswersAfterHeardRequest(t *testing.T) {
	tbl := NewTable(2, 1)
	tbl.Add(0)
	st := tbl.State(0, 0)
	round := func(wantProbe, wantDown bool, wantMisses int) uint16 {
		t.Helper()
		seq, probe, _, down := tbl.BeginRound(0, 0, 2, true)
		if probe != wantProbe || down != wantDown || st.Misses != wantMisses {
			t.Fatalf("BeginRound = probe %v down %v misses %d, want %v %v %d",
				probe, down, st.Misses, wantProbe, wantDown, wantMisses)
		}
		return seq
	}
	round(false, false, 0)       // a new path waits on its grant
	seq := round(true, false, 0) // nothing heard: no miss, probe
	if st.HeardRequest() {
		t.Fatal("a probing round reported an awaited request")
	}
	if _, ok := tbl.Confirm(0, 0, seq); !ok {
		t.Fatal("reply to the round's probe not confirmed")
	}
	round(false, false, 0) // heard last round: wait instead
	if !st.HeardRequest() {
		t.Fatal("the awaited request was not reported as awaited")
	}
	round(false, false, 0) // met, and heard again: keep waiting
	round(true, false, 1)  // no request came: a miss, probe again
	round(true, true, 2)   // nor a reply: the threshold is reached

	// Without answer set, a heard request changes nothing.
	st.HeardRequest()
	if _, probe, _, _ := tbl.BeginRound(0, 0, 2, false); !probe {
		t.Fatal("a requesting end waited for a request")
	}
}

// TestGrantedWait pins the first rounds of a new path with a miss
// threshold of 1, so that any miss counted would also take the link
// down. Each script runs on a fresh table; "wait" and "probe" are
// BeginRound's expected choice, "heard" a request arriving, "readd"
// Remove followed by Add.
func TestGrantedWait(t *testing.T) {
	type step struct {
		op     string
		misses int
	}
	for _, tc := range []struct {
		name   string
		answer bool
		steps  []step
	}{
		{"new answering path awaits in its first round", true,
			[]step{{"wait", 0}}},
		{"unmet granted wait adds no miss and probes next round", true,
			[]step{{"wait", 0}, {"probe", 0}, {"probe", 1}}},
		{"granted wait met by a request is followed by an earned wait that counts", true,
			[]step{{"wait", 0}, {"heard", 0}, {"wait", 0}, {"probe", 1}}},
		{"requester path probes from round 0", false,
			[]step{{"probe", 0}, {"probe", 1}}},
		{"re-added path is granted again", true,
			[]step{{"wait", 0}, {"heard", 0}, {"wait", 0}, {"readd", 0}, {"wait", 0}, {"probe", 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable(2, 1)
			tbl.Add(0)
			for i, s := range tc.steps {
				switch s.op {
				case "heard":
					tbl.State(0, 0).HeardRequest()
				case "readd":
					tbl.Remove(0)
					tbl.Add(0)
				default:
					_, probe, _, down := tbl.BeginRound(0, 0, 1, tc.answer)
					if probe != (s.op == "probe") || down != (s.misses > 0) {
						t.Fatalf("step %d: BeginRound = probe %v down %v, want %s", i, probe, down, s.op)
					}
				}
				if got := tbl.State(0, 0).Misses; got != s.misses {
					t.Fatalf("step %d (%s): %d misses, want %d", i, s.op, got, s.misses)
				}
			}
		})
	}
}

// TestBeginRoundFresh: a probe may acknowledge only the reply to the
// path's previous round's probe. The first probe of a new path, a
// probe after a miss and a probe that resumes after a wait are not
// fresh, whatever RTT sample the path still holds.
func TestBeginRoundFresh(t *testing.T) {
	tbl := NewTable(2, 1)
	tbl.Add(0)
	st := tbl.State(0, 0)
	round := func(answer, wantProbe, wantFresh bool) uint16 {
		t.Helper()
		seq, probe, fresh, _ := tbl.BeginRound(0, 0, 9, answer)
		if probe != wantProbe || fresh != wantFresh {
			t.Fatalf("BeginRound = probe %v fresh %v, want %v %v", probe, fresh, wantProbe, wantFresh)
		}
		return seq
	}
	confirm := func(seq uint16) {
		t.Helper()
		if _, ok := tbl.Confirm(0, 0, seq); !ok {
			t.Fatal("reply not confirmed")
		}
		st.ObserveRTT(time.Millisecond)
	}
	// Requesting end.
	confirm(round(false, true, false)) // a new path's first probe
	round(false, true, true)           // answered last round
	round(false, true, false)          // that probe was missed
	confirm(round(false, true, false)) // still not: the miss was last round
	round(false, true, true)

	// Answering end: a wait, then the probe that resumes after an unmet
	// wait, carry no acknowledgement.
	tbl.Remove(0)
	tbl.Add(0)
	round(true, false, false)         // the granted wait
	confirm(round(true, true, false)) // resumes probing
	round(true, true, true)
	st.HeardRequest()
	round(true, false, false) // heard: wait
	round(true, true, false)  // the wait went unmet: resume probing
}

// TestTakeSampleHandsEachSampleOnce: a request carries each RTT sample
// to the answering end once; with no new sample it carries zero.
func TestTakeSampleHandsEachSampleOnce(t *testing.T) {
	var st State
	if got := st.TakeSample(); got != 0 {
		t.Fatalf("fresh path carries %v", got)
	}
	st.ObserveRTT(3 * time.Millisecond)
	st.ObserveRTT(5 * time.Millisecond)
	if got := st.TakeSample(); got != 5*time.Millisecond {
		t.Fatalf("TakeSample = %v, want the newest sample 5ms", got)
	}
	if got := st.TakeSample(); got != 0 {
		t.Fatalf("second TakeSample = %v, want 0", got)
	}
}

// TestAnyFreshSkipsMissedRails: a rail is promised to others only if
// it is usable and has missed no check.
func TestAnyFreshSkipsMissedRails(t *testing.T) {
	tbl := NewTable(2, 2)
	if tbl.AnyFresh(1) {
		t.Fatal("unmonitored peer is fresh")
	}
	tbl.Add(1)
	if !tbl.AnyFresh(1) {
		t.Fatal("new peer is not fresh")
	}
	tbl.State(1, 0).Misses = 1
	tbl.State(1, 1).Up = false
	if tbl.AnyFresh(1) {
		t.Fatal("fresh with one rail missed and the other down")
	}
	tbl.State(1, 1).Up = true
	if !tbl.AnyFresh(1) {
		t.Fatal("not fresh with rail 1 up and unmissed")
	}
}

// firstUp returns the lowest-numbered up rail to peer.
func firstUp(t *Table, peer int) (rail int, ok bool) {
	if !t.Monitored(peer) {
		return 0, false
	}
	row := t.row(peer)
	for rail := range row {
		if row[rail].Up {
			return rail, true
		}
	}
	return 0, false
}
