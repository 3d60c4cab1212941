package linkmon

import "time"

// Deadlines tracks timeout-style liveness for every (peer, rail) path:
// an entry is alive while its expiry lies in the future and silent
// once it passes. Link-state adjacencies ("dead interval") and
// reactive routes ("route timeout") are both this shape.
type Deadlines struct {
	m [][]time.Duration // [peer][rail] expiry; zero = never heard
}

// NewDeadlines returns an all-silent matrix for nodes×rails.
func NewDeadlines(nodes, rails int) *Deadlines {
	d := &Deadlines{m: make([][]time.Duration, nodes)}
	for i := range d.m {
		d.m[i] = make([]time.Duration, rails)
	}
	return d
}

// Refresh extends the (peer, rail) deadline to expiry and reports
// whether the path was dead at now (the transition edge protocols
// re-advertise on).
func (d *Deadlines) Refresh(peer, rail int, now, expiry time.Duration) (wasDead bool) {
	wasDead = d.m[peer][rail] <= now
	d.m[peer][rail] = expiry
	return wasDead
}

// Alive reports whether the (peer, rail) deadline lies beyond now.
func (d *Deadlines) Alive(peer, rail int, now time.Duration) bool {
	return d.m[peer][rail] > now
}

// AnyAlive reports whether any rail to peer is alive at now.
func (d *Deadlines) AnyAlive(peer int, now time.Duration) bool {
	for _, exp := range d.m[peer] {
		if exp > now {
			return true
		}
	}
	return false
}

// FirstAlive returns the lowest-numbered alive rail to peer at now.
func (d *Deadlines) FirstAlive(peer int, now time.Duration) (rail int, ok bool) {
	for rail, exp := range d.m[peer] {
		if exp > now {
			return rail, true
		}
	}
	return 0, false
}

// Sweep zeroes every entry that has expired by now — heard once but
// silent past its deadline — invoking expired for each in (peer, rail)
// order, and reports whether anything expired.
func (d *Deadlines) Sweep(now time.Duration, expired func(peer, rail int)) bool {
	any := false
	for peer := range d.m {
		for rail := range d.m[peer] {
			if exp := d.m[peer][rail]; exp != 0 && exp <= now {
				d.m[peer][rail] = 0
				any = true
				if expired != nil {
					expired(peer, rail)
				}
			}
		}
	}
	return any
}
