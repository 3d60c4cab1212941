package linkmon

import (
	"fmt"
	"math"
	"time"
)

// Damping parameterizes RFC 2439-style route-flap damping for
// monitored paths. Each down transition charges the path a penalty;
// the penalty decays exponentially; while the decayed penalty sits at
// or above Suppress, a recovering path is held down (kept untrusted)
// instead of being re-trusted immediately, and it is released only
// once the penalty has decayed below Reuse. The hold-down grows with
// flap frequency (more flaps, more penalty, longer decay) but is
// capped by Max, so a path that genuinely stabilizes is always
// re-trusted eventually.
//
// The zero value disables damping entirely — the seed protocol's
// behaviour, which every existing golden pins.
type Damping struct {
	// Penalty is charged per down transition (default 1).
	Penalty float64
	// Suppress is the decayed-penalty figure of merit at or above
	// which a recovering path stays untrusted. Zero disables damping.
	Suppress float64
	// Reuse is the decayed penalty below which a held-down path is
	// re-trusted (default Suppress/2). Must be below Suppress — the
	// gap is the hysteresis that keeps a marginal path from oscillating
	// in and out of suppression.
	Reuse float64
	// HalfLife is the penalty's exponential decay half-life
	// (default 15 s).
	HalfLife time.Duration
	// Max caps the accumulated penalty (default 4×Suppress), bounding
	// the worst-case hold-down of even a permanently flapping path.
	Max float64
}

// Enabled reports whether damping is active.
func (d Damping) Enabled() bool { return d.Suppress > 0 }

// DefaultDamping returns a configuration tuned for the simulator's
// second-scale probe rounds: a path is held down after its third flap
// inside one half-life and released roughly one half-life after it
// stops flapping.
func DefaultDamping() Damping {
	return Damping{Penalty: 1, Suppress: 2.5, Reuse: 1, HalfLife: 15 * time.Second, Max: 10}
}

// Normalize applies defaults and checks consistency. A disabled
// configuration is always valid.
func (d *Damping) Normalize() error {
	if !d.Enabled() {
		if d.Suppress < 0 {
			return fmt.Errorf("linkmon: damping suppress threshold %v negative", d.Suppress)
		}
		return nil
	}
	if d.Penalty == 0 {
		d.Penalty = 1
	}
	if d.Reuse == 0 {
		d.Reuse = d.Suppress / 2
	}
	if d.HalfLife == 0 {
		d.HalfLife = 15 * time.Second
	}
	if d.Max == 0 {
		d.Max = 4 * d.Suppress
	}
	if d.Penalty <= 0 {
		return fmt.Errorf("linkmon: damping penalty %v must be positive", d.Penalty)
	}
	if d.HalfLife <= 0 {
		return fmt.Errorf("linkmon: damping half-life %v must be positive", d.HalfLife)
	}
	if d.Reuse <= 0 || d.Reuse >= d.Suppress {
		return fmt.Errorf("linkmon: damping reuse threshold %v outside (0, %v)", d.Reuse, d.Suppress)
	}
	if d.Max < d.Suppress {
		return fmt.Errorf("linkmon: damping penalty cap %v below suppress threshold %v", d.Max, d.Suppress)
	}
	return nil
}

// dampState is the cold half of a damped path's State: the penalty,
// the instant it was last decayed to, and the hold-down times. Most
// paths never flap with damping enabled, so it is allocated by the
// first RecordFlap that charges a penalty.
type dampState struct {
	penalty     float64
	penaltyAt   time.Duration
	dampedAt    time.Duration
	dampedTotal time.Duration
}

// damping returns the path's damping record, allocating it on first
// use.
func (st *State) damping() *dampState {
	if st.cold == nil {
		st.cold = new(dampState)
	}
	return st.cold
}

// decay folds elapsed time into the penalty.
func (ds *dampState) decay(cfg Damping, now time.Duration) {
	if now <= ds.penaltyAt {
		return
	}
	if ds.penalty > 0 {
		ds.penalty *= math.Exp2(-float64(now-ds.penaltyAt) / float64(cfg.HalfLife))
		if ds.penalty < 1e-9 {
			ds.penalty = 0
		}
	}
	ds.penaltyAt = now
}

// RecordFlap counts one down transition and, when damping is enabled,
// charges the path's penalty (decayed to now first, capped at Max).
func (st *State) RecordFlap(cfg Damping, now time.Duration) {
	st.flaps++
	if !cfg.Enabled() {
		return
	}
	ds := st.damping()
	ds.decay(cfg, now)
	ds.penalty += cfg.Penalty
	if ds.penalty > cfg.Max {
		ds.penalty = cfg.Max
	}
}

// Suppressed reports whether a recovering path must stay untrusted:
// its decayed penalty has reached the suppress threshold. A path with
// no damping record has never been charged, so it is not suppressed.
func (st *State) Suppressed(cfg Damping, now time.Duration) bool {
	if !cfg.Enabled() || st.cold == nil {
		return false
	}
	st.cold.decay(cfg, now)
	return st.cold.penalty >= cfg.Suppress
}

// EnterDamped marks the path held down from now. Entering an already
// damped path is a no-op.
func (st *State) EnterDamped(now time.Duration) {
	if st.damped {
		return
	}
	st.damped = true
	st.damping().dampedAt = now
}

// TryRelease exits the hold-down once the decayed penalty has fallen
// below the reuse threshold. It reports how long this spell lasted and
// whether release happened.
func (st *State) TryRelease(cfg Damping, now time.Duration) (held time.Duration, released bool) {
	if !st.damped {
		return 0, false
	}
	ds := st.cold // EnterDamped allocated it
	ds.decay(cfg, now)
	if ds.penalty >= cfg.Reuse {
		return 0, false
	}
	st.damped = false
	held = now - ds.dampedAt
	ds.dampedTotal += held
	return held, true
}

// Damped reports whether the path is currently held down.
func (st *State) Damped() bool { return st.damped }

// Flaps returns the number of down transitions recorded on the path.
func (st *State) Flaps() int64 { return int64(st.flaps) }

// Penalty returns the penalty decayed to now (read-only: the stored
// state is not modified, so telemetry reads don't disturb damping).
func (st *State) Penalty(cfg Damping, now time.Duration) float64 {
	ds := st.cold
	if ds == nil {
		return 0
	}
	p := ds.penalty
	if cfg.Enabled() && now > ds.penaltyAt && p > 0 {
		p *= math.Exp2(-float64(now-ds.penaltyAt) / float64(cfg.HalfLife))
	}
	return p
}

// DampedFor returns the total time the path has spent held down,
// including the current spell.
func (st *State) DampedFor(now time.Duration) time.Duration {
	ds := st.cold
	if ds == nil {
		return 0
	}
	total := ds.dampedTotal
	if st.damped {
		total += now - ds.dampedAt
	}
	return total
}
