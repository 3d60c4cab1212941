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
type State struct {
	// RTT estimation (Jacobson/Karels) from probe timestamps.
	srtt    time.Duration
	rttvar  time.Duration
	samples int64

	// Misses counts consecutive unanswered probes.
	Misses int
	// backoff counts consecutive adaptive-RTO misses (see rto.go);
	// each doubles the next probe deadline up to the configured cap.
	backoff int
	// flaps counts down transitions, damped or not.
	flaps int64
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
}

// ObserveRTT folds one probe round-trip sample into the smoothed
// estimate: srtt ← srtt + (rtt−srtt)/8, rttvar ← rttvar + (|err|−rttvar)/4.
func (st *State) ObserveRTT(rtt time.Duration) {
	if rtt < 0 {
		return
	}
	st.samples++
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

// Nodes returns the cluster size the table was created for.
func (t *Table) Nodes() int { return len(t.monitored) }

// Rails returns the rail count.
func (t *Table) Rails() int { return t.rails }

// row returns peer's rails, capped so that appending to the row can
// never reach into the next peer's.
func (t *Table) row(peer int) []State {
	lo, hi := peer*t.rails, (peer+1)*t.rails
	return t.slab[lo:hi:hi]
}

// Add begins monitoring peer with every rail optimistically up; it
// reports false if the peer was already monitored.
func (t *Table) Add(peer int) bool {
	if t.monitored[peer] {
		return false
	}
	row := t.row(peer)
	for r := range row {
		row[r] = State{Up: true}
	}
	t.monitored[peer] = true
	return true
}

// Remove forgets peer entirely.
func (t *Table) Remove(peer int) { t.monitored[peer] = false }

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

// FirstUp returns the lowest-numbered up rail to peer.
func (t *Table) FirstUp(peer int) (rail int, ok bool) {
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

// Usable reports whether the (peer, rail) path is up AND not held
// down by flap damping — the paths route selection may trust. With
// damping disabled it is identical to the Up flag.
func (t *Table) Usable(peer, rail int) bool {
	st := t.State(peer, rail)
	return st != nil && st.Up && !st.damped
}

// AnyUsable reports whether any rail to peer is usable.
func (t *Table) AnyUsable(peer int) bool {
	if !t.Monitored(peer) {
		return false
	}
	row := t.row(peer)
	for rail := range row {
		if row[rail].Up && !row[rail].damped {
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
// previous probe counts as a miss, and down reports that the miss just
// crossed threshold on an up link (the caller declares the link down).
// The returned sequence number comes from the table-wide counter, so
// no two outstanding probes share one.
func (t *Table) BeginProbe(peer, rail, threshold int) (seq uint16, down bool) {
	st := &t.slab[peer*t.rails+rail]
	if st.Pending {
		st.Misses++
		down = st.Up && st.Misses >= threshold
	}
	t.seq++
	st.Pending = true
	st.PendingSeq = t.seq
	return t.seq, down
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
