package nemesis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"drsnet/internal/core"
	"drsnet/internal/transport"
)

// outcomesDigest is the SHA-256 of the JSON of every Run outcome of
// Generate(i, Config{Nodes: 5}), i = 1..30: violations, fault
// statistics and final daemon statuses, in seed order. Any change to
// how a schedule is armed or executed moves it.
const outcomesDigest = "927c3087e23271124b4ca7465b75df8cc231337b115290be8d8ac9001d559401"

// TestOutcomesGolden pins the hermetic runner's outcomes byte for
// byte, not only their violation counts.
func TestOutcomesGolden(t *testing.T) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := uint64(1); i <= 30; i++ {
		out, err := Run(Generate(i, Config{Nodes: 5}))
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if err := enc.Encode(struct {
			Seed       uint64
			Violations []Violation
			Faults     transport.FaultStats
			Statuses   []core.Status
		}{i, out.Violations, out.Faults, out.Statuses}); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != outcomesDigest {
		t.Fatalf("outcomes digest %s, want %s", got, outcomesDigest)
	}
}
