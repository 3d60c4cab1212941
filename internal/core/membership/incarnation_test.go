package membership

import "testing"

// TestIncarnationObservation pins the reboot-detection contract: a
// first sighting records silently, an advance from a known life
// reports a reboot, and anything older or equal is a no-op.
func TestIncarnationObservation(t *testing.T) {
	m := New(4)
	if m.Incarnation(2) != 0 {
		t.Fatal("fresh tracker has an incarnation")
	}
	// First sighting: recorded, but NOT a reboot — purging relay routes
	// on first contact would tear down perfectly good state.
	if m.ObserveIncarnation(2, 3) {
		t.Fatal("first sighting reported as a reboot")
	}
	if m.Incarnation(2) != 3 {
		t.Fatalf("incarnation = %d, want 3", m.Incarnation(2))
	}
	// Same incarnation again: no-op.
	if m.ObserveIncarnation(2, 3) {
		t.Fatal("unchanged incarnation reported as a reboot")
	}
	// Advance: the peer rebooted.
	if !m.ObserveIncarnation(2, 4) {
		t.Fatal("advance from a known life not reported as a reboot")
	}
	// Regression: an older stamp never rolls the view back.
	if m.ObserveIncarnation(2, 1) {
		t.Fatal("stale incarnation reported as a reboot")
	}
	if m.Incarnation(2) != 4 {
		t.Fatalf("incarnation rolled back to %d", m.Incarnation(2))
	}
}

func TestStaleIncarnation(t *testing.T) {
	m := New(4)
	// Nothing is stale before the first sighting.
	if m.StaleIncarnation(1, 0) || m.StaleIncarnation(1, 7) {
		t.Fatal("stale before any observation")
	}
	m.ObserveIncarnation(1, 5)
	if !m.StaleIncarnation(1, 4) {
		t.Fatal("older incarnation not stale")
	}
	if m.StaleIncarnation(1, 5) || m.StaleIncarnation(1, 6) {
		t.Fatal("current/newer incarnation reported stale")
	}
}
