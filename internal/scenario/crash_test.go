package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/linkmon"
	"drsnet/internal/trace"
)

const crashJSON = `{
  "name": "crash and warm restart",
  "nodes": 4,
  "duration": "30s",
  "adaptiveRTO": true,
  "rtoMin": "40ms",
  "rtoMax": "800ms",
  "traffic": [
    {"from": 0, "to": 1, "interval": "250ms"}
  ],
  "events": [
    {"at": "1s", "kind": "nic", "node": 2, "rail": 0}
  ],
  "crashes": [
    {"node": 1, "at": "10s", "restart": "14s", "warm": true},
    {"node": 1, "at": "22s"}
  ]
}`

// TestCrashScenarioLoadsAndRuns: a crash script in the document loads,
// threads into the runtime spec (lifecycle implied, RTO bounds
// applied) and produces the crash/restart markers when executed.
func TestCrashScenarioLoadsAndRuns(t *testing.T) {
	s, err := Load(strings.NewReader(crashJSON))
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
	if first.Kind != chaos.Crash || first.A != 1 || first.Start != 10*time.Second || first.Stop != 14*time.Second || !first.Warm {
		t.Fatalf("crash[0] = %+v", first)
	}
	if spec.Episodes[1].Stop != 0 || spec.Episodes[1].Warm {
		t.Fatalf("crash[1] = %+v", spec.Episodes[1])
	}
	if !spec.Tunables.Lifecycle {
		t.Fatal("crash script did not imply the lifecycle")
	}
	want := linkmon.DefaultRTO()
	want.Min, want.Max = 40*time.Millisecond, 800*time.Millisecond
	if spec.Tunables.AdaptiveRTO != want {
		t.Fatalf("adaptive RTO = %+v, want %+v", spec.Tunables.AdaptiveRTO, want)
	}

	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	crashed, restarted := 0, 0
	for _, e := range rep.Trace.Events() {
		switch e.Kind {
		case trace.KindNodeCrashed:
			crashed++
		case trace.KindNodeRestarted:
			restarted++
		}
	}
	if crashed != 2 || restarted != 1 {
		t.Fatalf("markers = %d crashed, %d restarted, want 2 and 1", crashed, restarted)
	}
}

// TestCrashScenarioValidation: every way a crash script can be
// inconsistent with the document is rejected with a scenario-level
// error.
func TestCrashScenarioValidation(t *testing.T) {
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
			s.Crashes = []CrashSpec{{Node: 7, At: sec(5)}}
		}, "unknown node 7"},
		{"crash after horizon", func(s *Scenario) {
			s.Crashes = []CrashSpec{{Node: 1, At: sec(40)}}
		}, "outside [0,30s]"},
		{"restart before crash", func(s *Scenario) {
			s.Crashes = []CrashSpec{{Node: 1, At: sec(10), Restart: sec(5)}}
		}, "crashes[0] (node 1): stop 5s not after start 10s"},
		{"warm without restart", func(s *Scenario) {
			s.Crashes = []CrashSpec{{Node: 1, At: sec(10), Warm: true}}
		}, "never restarts"},
		{"overlapping episodes", func(s *Scenario) {
			s.Crashes = []CrashSpec{
				{Node: 1, At: sec(5), Restart: sec(20)},
				{Node: 1, At: sec(10), Restart: sec(25)},
			}
		}, "overlaps"},
		{"crash after final death", func(s *Scenario) {
			s.Crashes = []CrashSpec{
				{Node: 1, At: sec(5)},
				{Node: 1, At: sec(10), Restart: sec(15)},
			}
		}, "crashes[1] (node 1): crash window [10s,15s) overlaps crashes[0]"},
		{"rto bounds without adaptiveRTO", func(s *Scenario) {
			s.RTOMin = Duration(40 * time.Millisecond)
		}, "adaptiveRTO is false"},
		{"rto min above max", func(s *Scenario) {
			s.AdaptiveRTO = true
			s.RTOMin = Duration(2 * time.Second)
			s.RTOMax = Duration(time.Second)
		}, "min"},
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

// TestCrashScenarioJSONRoundTrip: a scenario with a crash script
// survives marshal → load with the script intact.
func TestCrashScenarioJSONRoundTrip(t *testing.T) {
	s, err := Load(strings.NewReader(crashJSON))
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
	if !reflect.DeepEqual(s.Crashes, back.Crashes) {
		t.Fatalf("crash script changed:\n%+v\n%+v", s.Crashes, back.Crashes)
	}
	if back.AdaptiveRTO != s.AdaptiveRTO || back.RTOMin != s.RTOMin || back.RTOMax != s.RTOMax {
		t.Fatal("RTO knobs changed across the round trip")
	}
}
