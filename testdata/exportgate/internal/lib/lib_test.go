package lib

import "testing"

// A test's use does not count as a caller.
func TestUnused(t *testing.T) {
	if Unused() != 2 {
		t.Fatal("Unused")
	}
}
