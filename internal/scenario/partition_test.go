package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/netsim"
	"drsnet/internal/runtime"
)

const partitionJSON = `{
  "name": "asymmetric partition and heal",
  "nodes": 3,
  "duration": "15s",
  "probeInterval": "250ms",
  "missThreshold": 2,
  "strictLinkEvidence": true,
  "traffic": [
    {"from": 0, "to": 1, "interval": "100ms"}
  ],
  "partitions": [
    {"a": 0, "b": 1, "rail": 0, "start": "3s", "stop": "8s", "direction": "tx"},
    {"a": 0, "b": 2, "rail": -1, "start": "5s", "stop": "6s"}
  ]
}`

// TestPartitionScenarioLoadsAndRuns: a partition script loads, threads
// into the runtime spec (rail -1 widened to AllRails, direction
// parsed, strict evidence applied) and the run delivers across the
// heal.
func TestPartitionScenarioLoadsAndRuns(t *testing.T) {
	s, err := Load(strings.NewReader(partitionJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Episodes) != 2 {
		t.Fatalf("spec episodes = %+v", spec.Episodes)
	}
	first := spec.Episodes[0]
	if first.Kind != chaos.Partition || first.A != 0 || first.B != 1 || first.Rail != 0 ||
		first.Start != 3*time.Second || first.Stop != 8*time.Second ||
		first.Dir != netsim.DirTx {
		t.Fatalf("partition[0] = %+v", first)
	}
	if spec.Episodes[1].Rail != netsim.AllRails || spec.Episodes[1].Dir != netsim.DirBoth {
		t.Fatalf("partition[1] = %+v", spec.Episodes[1])
	}
	if !spec.Tunables.StrictLinkEvidence {
		t.Fatal("strictLinkEvidence did not thread into the tunables")
	}

	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flows[0].Delivered == 0 {
		t.Fatal("partitioned scenario delivered nothing")
	}
	if rep.Repairs == 0 {
		t.Fatal("no route repairs across an asymmetric partition")
	}
}

// TestPartitionScenarioValidation: every way a partition script can be
// inconsistent with the document is rejected with a scenario-level
// error.
func TestPartitionScenarioValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Nodes:    4,
			Duration: Duration(30 * time.Second),
			Traffic:  []TrafficSpec{{From: 0, To: 1, Interval: Duration(time.Second)}},
		}
	}
	sec := func(n int) Duration { return Duration(time.Duration(n) * time.Second) }
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string
	}{
		{"unknown node", func(s *Scenario) {
			s.Partitions = []PartitionSpec{{A: 0, B: 9, Start: sec(5)}}
		}, "unknown node 9"},
		{"self partition", func(s *Scenario) {
			s.Partitions = []PartitionSpec{{A: 2, B: 2, Start: sec(5)}}
		}, "partitioned from itself"},
		{"bad rail", func(s *Scenario) {
			s.Partitions = []PartitionSpec{{A: 0, B: 1, Rail: 3, Start: sec(5)}}
		}, "rail 3 outside"},
		{"negative rail other than -1", func(s *Scenario) {
			s.Partitions = []PartitionSpec{{A: 0, B: 1, Rail: -7, Start: sec(5)}}
		}, "rail -7 outside [0,2)"},
		{"past horizon", func(s *Scenario) {
			s.Partitions = []PartitionSpec{{A: 0, B: 1, Start: sec(40)}}
		}, "outside [0,30s]"},
		{"stop before start", func(s *Scenario) {
			s.Partitions = []PartitionSpec{{A: 0, B: 1, Start: sec(10), Stop: sec(5)}}
		}, "not after start"},
		{"bad direction", func(s *Scenario) {
			s.Partitions = []PartitionSpec{{A: 0, B: 1, Start: sec(5), Direction: "sideways"}}
		}, `direction "sideways"`},
		{"fabric topology", func(s *Scenario) {
			s.Nodes = 0
			s.Topology = &runtime.TopologySpec{Kind: "fatTree", K: 4}
			s.Partitions = []PartitionSpec{{A: 0, B: 1, Start: sec(5)}}
		}, "dual-rail only"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestPartitionScenarioJSONRoundTrip: a partition script survives
// marshal → load intact.
func TestPartitionScenarioJSONRoundTrip(t *testing.T) {
	s, err := Load(strings.NewReader(partitionJSON))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(strings.NewReader(string(blob)))
	if err != nil {
		t.Fatalf("re-load: %v (doc %s)", err, blob)
	}
	if !reflect.DeepEqual(s.Partitions, back.Partitions) {
		t.Fatalf("partition script changed:\n%+v\n%+v", s.Partitions, back.Partitions)
	}
	if back.StrictLinkEvidence != s.StrictLinkEvidence {
		t.Fatal("strictLinkEvidence changed across the round trip")
	}
}
