package linkmon

import (
	"fmt"
	"time"
)

// RTO configures Jacobson/Karels-style adaptive probe deadlines. The
// classic daemon waits a full probe interval before counting a miss;
// with an RTO enabled the monitor arms a per-probe timer at
// srtt + 4·rttvar (clamped to [Min, Max]) and counts the miss the
// moment it expires, retransmitting with exponential backoff. The
// zero value disables the feature entirely, which keeps seeded runs
// byte-identical with the fixed-deadline behavior.
type RTO struct {
	// Min floors the computed deadline so one fast sample cannot arm
	// a hair-trigger timer. Zero means DefaultRTOMin.
	Min time.Duration
	// Max caps the base deadline and is the deadline used before the
	// first RTT sample (conservative: a cold path can never fire a
	// false link-down). Zero disables adaptive deadlines.
	Max time.Duration
	// MaxBackoff caps the exponential backoff: after k consecutive
	// unanswered probes the deadline is doubled min(k, MaxBackoff)
	// times. Zero means DefaultRTOBackoff.
	MaxBackoff int
}

// Defaults for an enabled RTO with unset fields.
const (
	DefaultRTOMin     = 50 * time.Millisecond
	DefaultRTOMax     = time.Second
	DefaultRTOBackoff = 3
)

// DefaultRTO returns the stock adaptive-deadline configuration.
func DefaultRTO() RTO {
	return RTO{Min: DefaultRTOMin, Max: DefaultRTOMax, MaxBackoff: DefaultRTOBackoff}
}

// Enabled reports whether adaptive deadlines are on.
func (r RTO) Enabled() bool { return r.Max != 0 }

// Normalize applies defaults and validates the configuration. The
// zero value (disabled) is valid; a disabled RTO with stray fields is
// rejected so a typo cannot silently turn the feature off.
func (r *RTO) Normalize() error {
	if !r.Enabled() {
		if r.Min != 0 || r.MaxBackoff != 0 {
			return fmt.Errorf("linkmon: adaptive RTO fields set without a max deadline")
		}
		return nil
	}
	if r.Max < 0 {
		return fmt.Errorf("linkmon: negative RTO max %v", r.Max)
	}
	if r.Min < 0 {
		return fmt.Errorf("linkmon: negative RTO min %v", r.Min)
	}
	if r.Min == 0 {
		r.Min = DefaultRTOMin
	}
	if r.Min > r.Max {
		return fmt.Errorf("linkmon: RTO min %v above max %v", r.Min, r.Max)
	}
	if r.MaxBackoff == 0 {
		r.MaxBackoff = DefaultRTOBackoff
	}
	if r.MaxBackoff < 0 || r.MaxBackoff > 16 {
		return fmt.Errorf("linkmon: RTO backoff cap %d outside [1,16]", r.MaxBackoff)
	}
	return nil
}

// Deadline returns the adaptive deadline for the next probe on this
// path: srtt + 4·rttvar clamped to [Min, Max], doubled once per
// consecutive miss up to the backoff cap. Before the first RTT sample
// the base deadline is Max.
func (st *State) Deadline(cfg RTO) time.Duration {
	d := cfg.Max
	if st.samples > 0 {
		d = st.srtt + 4*st.rttvar
		if d < cfg.Min {
			d = cfg.Min
		}
		if d > cfg.Max {
			d = cfg.Max
		}
	}
	shift := int(st.backoff)
	if shift > cfg.MaxBackoff {
		shift = cfg.MaxBackoff
	}
	return d << shift
}

// RecordRTOMiss notes one more consecutive unanswered probe, growing
// the backoff. Confirm resets it.
func (st *State) RecordRTOMiss() { st.backoff++ }

// SeedRTT restores a checkpointed RTT estimate so a warm-started
// daemon begins with its previous life's deadlines instead of the
// conservative Max. Non-positive sample counts and negative durations
// are ignored.
func (st *State) SeedRTT(srtt, rttvar time.Duration, samples int64) {
	if samples <= 0 || srtt < 0 || rttvar < 0 {
		return
	}
	st.srtt, st.rttvar, st.samples = srtt, rttvar, samples
}
