package nemesis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"drsnet/internal/core"
	"drsnet/internal/transport"
)

// The hermetic runner's outcomes of Generate(i, Config{Nodes: 5}),
// i = 1..30, pinned byte for byte as two SHA-256 digests of JSON in
// seed order. The findings digest covers each seed's violations: it
// moves only when a schedule finds a different bug. The traffic digest
// covers each seed's fault statistics and final daemon statuses: it
// moves with any change to how many frames a schedule sends or how it
// is armed or executed.
const (
	findingsDigest = "cd5a561767d361c498dc9b9eb93cae5d1a6cd54a43389918dbab737d781a930a"
	trafficDigest  = "9376fbdaf81f355daae15b82852dc599df097ccb0776efd9c540a0289c3a5e21"
)

// TestOutcomesGolden checks both digests, each in its own subtest, so
// that a change that only moves traffic says so.
func TestOutcomesGolden(t *testing.T) {
	findings, traffic := sha256.New(), sha256.New()
	fenc, tenc := json.NewEncoder(findings), json.NewEncoder(traffic)
	for i := uint64(1); i <= 30; i++ {
		out, err := Run(Generate(i, Config{Nodes: 5}))
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if err := fenc.Encode(struct {
			Seed       uint64
			Violations []Violation
		}{i, out.Violations}); err != nil {
			t.Fatal(err)
		}
		if err := tenc.Encode(struct {
			Seed     uint64
			Faults   transport.FaultStats
			Statuses []core.Status
		}{i, out.Faults, out.Statuses}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name, want string
		got        []byte
	}{
		{"findings", findingsDigest, findings.Sum(nil)},
		{"traffic", trafficDigest, traffic.Sum(nil)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := hex.EncodeToString(c.got); got != c.want {
				t.Fatalf("%s digest %s, want %s", c.name, got, c.want)
			}
		})
	}
}
