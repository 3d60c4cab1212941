package linkmon

import (
	"time"

	"drsnet/internal/overload"
)

// RTTStats is the smoothed round-trip estimate of one monitored path.
type RTTStats struct {
	// SRTT is the smoothed round-trip time; RTTVar its mean deviation.
	SRTT, RTTVar time.Duration
	// Samples is the number of probe round trips measured.
	Samples int64
}

// State tracks request/reply monitoring of one (peer, rail) path. It
// is one 64-byte cache line: a daemon holds one per monitored path, so
// the table grows as N² and every probe, echo and route decision
// touches one. Flap-damping bookkeeping that only damped paths need
// lives behind the cold pointer (see damping.go).
//
// A path's check each round is either our own probe (Pending, matched
// by the peer's reply) or, at the answering end of a shared echo
// exchange, a wait for the peer's request (awaiting); see BeginRound.
// A new path's first wait is granted rather than earned (granted): no
// request has been heard yet, so missing it is no evidence.
type State struct {
	// RTT estimation (Jacobson/Karels) from probe timestamps.
	srtt    time.Duration
	rttvar  time.Duration
	samples int64
	// last is the newest RTT sample not yet carried to the peer in a
	// request (zero when none is waiting); see TakeSample.
	last time.Duration

	// Misses counts consecutive unanswered probes.
	Misses int
	// backoff counts consecutive adaptive-RTO misses (see rto.go);
	// each doubles the next probe deadline up to the configured cap.
	backoff int32
	// flaps counts down transitions, damped or not.
	flaps int32
	// cold holds the damping penalty and hold-down times; nil until
	// the first flap recorded with damping enabled.
	cold *dampState

	// PendingSeq identifies the outstanding probe.
	PendingSeq uint16
	// Up is the declared link state. Links start optimistically up:
	// the deployed daemon assumes health until a check fails.
	Up bool
	// Pending marks an outstanding probe.
	Pending bool
	// damped holds the path down (see damping.go). It sits here, not
	// in cold, because Usable reads it on every route decision.
	damped bool
	// heard marks a request from the peer since the round began;
	// awaiting marks a round whose check is the peer's next request;
	// granted marks a wait that Add granted, whose miss is no miss.
	heard, awaiting, granted bool
}

// ObserveRTT folds one probe round-trip sample into the smoothed
// estimate: srtt ← srtt + (rtt−srtt)/8, rttvar ← rttvar + (|err|−rttvar)/4.
func (st *State) ObserveRTT(rtt time.Duration) {
	if rtt < 0 {
		return
	}
	st.samples++
	st.last = rtt
	if st.samples == 1 {
		st.srtt = rtt
		st.rttvar = rtt / 2
		return
	}
	err := rtt - st.srtt
	if err < 0 {
		err = -err
	}
	st.srtt += (rtt - st.srtt) / 8
	st.rttvar += (err - st.rttvar) / 4
}

// TakeSample returns the newest RTT sample not yet taken, or zero,
// so that a requester hands each of its samples to the answering end
// at most once.
func (st *State) TakeSample() time.Duration {
	rtt := st.last
	st.last = 0
	return rtt
}

// RTT returns the smoothed estimate; ok is false before the first
// sample.
func (st *State) RTT() (RTTStats, bool) {
	if st.samples == 0 {
		return RTTStats{}, false
	}
	return RTTStats{SRTT: st.srtt, RTTVar: st.rttvar, Samples: st.samples}, true
}

// SRTT returns the smoothed round-trip time (zero before the first
// sample) and the sample count, for steering decisions.
func (st *State) SRTT() (time.Duration, int64) { return st.srtt, st.samples }

// Table tracks probe state for every monitored (peer, rail) path and
// allocates probe sequence numbers from one shared counter.
type Table struct {
	rails int
	// slab backs every row: peer p's rails live at [p·rails, (p+1)·rails),
	// so a table costs one allocation however many peers it monitors.
	slab []State
	// monitored[p] marks peer p's row live.
	monitored []bool
	seq       uint16
	// retransmitBudget, when non-nil, rate-limits RTO-driven probe
	// retransmits (see budget.go). Nil means unbudgeted.
	retransmitBudget *overload.Bucket
}

// NewTable returns a table for a cluster of nodes×rails with no peer
// monitored yet.
func NewTable(nodes, rails int) *Table {
	return &Table{rails: rails, slab: make([]State, nodes*rails), monitored: make([]bool, nodes)}
}

// Fork returns a deep copy of the table, for a forked simulation.
func (t *Table) Fork() *Table {
	f := &Table{
		rails:     t.rails,
		slab:      append([]State(nil), t.slab...),
		monitored: append([]bool(nil), t.monitored...),
		seq:       t.seq,
	}
	for i := range f.slab {
		if c := f.slab[i].cold; c != nil {
			cp := *c
			f.slab[i].cold = &cp
		}
	}
	if b := t.retransmitBudget; b != nil {
		cp := *b
		f.retransmitBudget = &cp
	}
	return f
}

// Nodes returns the cluster size the table was created for.
func (t *Table) Nodes() int { return len(t.monitored) }

// row returns peer's rails, capped so that appending to the row can
// never reach into the next peer's.
func (t *Table) row(peer int) []State {
	lo, hi := peer*t.rails, (peer+1)*t.rails
	return t.slab[lo:hi:hi]
}

// Add begins monitoring peer with every rail optimistically up; it
// reports false if the peer was already monitored. Every rail starts
// with a granted wait, as if the peer's request had been heard: at the
// answering end the first round awaits the request instead of probing,
// so the pair shares one exchange from the start (see BeginRound).
func (t *Table) Add(peer int) bool {
	if t.monitored[peer] {
		return false
	}
	row := t.row(peer)
	for r := range row {
		row[r] = State{Up: true, heard: true, granted: true}
	}
	t.monitored[peer] = true
	return true
}

// Monitored reports whether peer is currently monitored.
func (t *Table) Monitored(peer int) bool {
	return peer >= 0 && peer < len(t.monitored) && t.monitored[peer]
}

// State returns the mutable state of the (peer, rail) path, or nil
// when the peer is unmonitored or the rail out of range.
func (t *Table) State(peer, rail int) *State {
	if !t.Monitored(peer) || rail < 0 || rail >= t.rails {
		return nil
	}
	return &t.slab[peer*t.rails+rail]
}

// AnyUp reports whether any rail to peer is up.
func (t *Table) AnyUp(peer int) bool {
	if !t.Monitored(peer) {
		return false
	}
	row := t.row(peer)
	for rail := range row {
		if row[rail].Up {
			return true
		}
	}
	return false
}

// Usable reports whether the (peer, rail) path is up AND not held
// down by flap damping — the paths route selection may trust. With
// damping disabled it is identical to the Up flag.
func (t *Table) Usable(peer, rail int) bool {
	st := t.State(peer, rail)
	return st != nil && st.Up && !st.damped
}

// AnyFresh reports whether any rail to peer is usable and has missed
// no check since its last evidence: the paths worth promising to
// others. A usable rail with a miss may already be dead, and is only
// still up because the threshold has not been reached.
func (t *Table) AnyFresh(peer int) bool {
	if !t.Monitored(peer) {
		return false
	}
	row := t.row(peer)
	for rail := range row {
		if row[rail].Up && !row[rail].damped && row[rail].Misses == 0 {
			return true
		}
	}
	return false
}

// FirstUsable returns the lowest-numbered usable rail to peer.
func (t *Table) FirstUsable(peer int) (rail int, ok bool) {
	if !t.Monitored(peer) {
		return 0, false
	}
	row := t.row(peer)
	for rail := range row {
		if row[rail].Up && !row[rail].damped {
			return rail, true
		}
	}
	return 0, false
}

// BeginProbe arms the next probe for (peer, rail): a still-pending
// previous check counts as a miss, and down reports that the miss just
// crossed threshold on an up link (the caller declares the link down).
// The returned sequence number comes from the table-wide counter, so
// no two outstanding probes share one.
func (t *Table) BeginProbe(peer, rail, threshold int) (seq uint16, down bool) {
	seq, _, _, down = t.BeginRound(peer, rail, threshold, false)
	return seq, down
}

// BeginRound opens (peer, rail)'s check for a new round. The previous
// round's check, the reply to our probe or the peer's request we
// waited for, counts as a miss if it never came, and down reports that
// the miss just crossed threshold on an up link. With answer set, a
// path whose peer's request was heard during the previous round waits
// for the next one instead of probing (probe is false); any other path
// arms a probe under seq, as BeginProbe does. A new path's first round
// waits on Add's grant; if no request meets that wait it is no miss,
// and the path probes from the next round on. A path already dead at
// the start is therefore declared down one round later at the
// answering end than at the requester.
//
// fresh, set only with probe, reports that the previous round's check
// was our own probe and its reply was confirmed: the new probe can
// acknowledge that reply, which proves that the peer→us direction
// worked one round ago (see core.Config.StrictLinkEvidence). A probe
// after a missed one, after a wait or in a new path's first round is
// not fresh.
func (t *Table) BeginRound(peer, rail, threshold int, answer bool) (seq uint16, probe, fresh, down bool) {
	st := &t.slab[peer*t.rails+rail]
	fresh = !st.Pending && !st.awaiting && !st.granted
	if st.Pending || st.awaiting && !st.granted {
		st.Misses++
		down = st.Up && st.Misses >= threshold
	}
	heard := st.heard
	st.heard = false
	if answer && heard {
		st.Pending, st.awaiting = false, true
		return 0, false, false, down
	}
	st.awaiting, st.granted = false, false
	t.seq++
	st.Pending = true
	st.PendingSeq = t.seq
	return t.seq, true, fresh, down
}

// HeardRequest credits a request heard from the peer on this path: it
// meets the check an answering round awaits, lets the next round wait
// again, and reports whether this round was waiting for it. The next
// wait is earned, so missing it counts.
func (st *State) HeardRequest() (awaited bool) {
	awaited = st.awaiting
	st.awaiting, st.granted = false, false
	st.heard = true
	return awaited
}

// Confirm matches an echo reply against the outstanding probe for
// (peer, rail): on a match it clears the probe and the miss count and
// returns the state for RTT accounting. A stale or unsolicited reply
// returns ok=false.
func (t *Table) Confirm(peer, rail int, seq uint16) (st *State, ok bool) {
	st = t.State(peer, rail)
	if st == nil || !st.Pending || st.PendingSeq != seq {
		return nil, false
	}
	st.Pending = false
	st.Misses = 0
	st.backoff = 0
	return st, true
}

// Seq exposes the probe sequence counter (testing hook).
func (t *Table) Seq() uint16 { return t.seq }

// SetSeq overrides the probe sequence counter (testing hook for
// wraparound coverage).
func (t *Table) SetSeq(seq uint16) { t.seq = seq }
