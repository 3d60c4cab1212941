package scenario

import (
	"strings"
	"testing"
	"time"

	"drsnet/internal/netsim"
)

// impairScenario returns a valid scenario with one impairment entry
// for the mutation tests to break.
func impairScenario() *Scenario {
	return &Scenario{
		Nodes:    4,
		Duration: Duration(30 * time.Second),
		Traffic:  []TrafficSpec{{From: 0, To: 1, Interval: Duration(time.Second)}},
		Impairments: []ImpairmentSpec{{
			Start: Duration(5 * time.Second),
			Stop:  Duration(20 * time.Second),
			Kind:  "nic",
			Node:  1,
			Rail:  0,
			Loss:  0.2,
		}},
	}
}

func TestImpairmentValidationErrors(t *testing.T) {
	if err := impairScenario().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		mutate func(*Scenario)
		want   string
	}{
		"bad kind": {func(s *Scenario) { s.Impairments[0].Kind = "router" },
			`kind "router" (want nic or backplane)`},
		"bad node": {func(s *Scenario) { s.Impairments[0].Node = 7 },
			"node 7 invalid"},
		"bad rail": {func(s *Scenario) { s.Impairments[0].Rail = 3 },
			"rail 3 invalid"},
		"loss above one": {func(s *Scenario) { s.Impairments[0].Loss = 1.2 },
			"loss 1.2 outside [0,1]"},
		"negative corrupt": {func(s *Scenario) { s.Impairments[0].Corrupt = -0.1 },
			"corrupt probability -0.1 outside [0,1]"},
		"negative delay": {func(s *Scenario) { s.Impairments[0].Delay = Duration(-time.Second) },
			"negative impairment delay"},
		"negative jitter": {func(s *Scenario) { s.Impairments[0].Jitter = Duration(-1) },
			"negative impairment jitter"},
		"start after horizon": {func(s *Scenario) { s.Impairments[0].Start = Duration(time.Minute) },
			"start 1m0s outside [0,30s]"},
		"stop before start": {func(s *Scenario) { s.Impairments[0].Stop = Duration(time.Second) },
			"stop 1s not after start 5s"},
		"bad direction": {func(s *Scenario) { s.Impairments[0].Direction = "sideways" },
			`direction "sideways" (want both, tx or rx)`},
		"duty without period": {func(s *Scenario) { s.Impairments[0].FlapDuty = 0.5 },
			"flap duty set without a flap period"},
		"negative period": {func(s *Scenario) { s.Impairments[0].FlapPeriod = Duration(-time.Second) },
			"flap period must be positive"},
		"duty out of range": {func(s *Scenario) {
			s.Impairments[0].FlapPeriod = Duration(time.Second)
			s.Impairments[0].FlapDuty = 1.5
		}, "flap duty 1.5 outside (0,1)"},
		"kill and flap": {func(s *Scenario) {
			s.Impairments[0].Kill = true
			s.Impairments[0].FlapPeriod = Duration(time.Second)
		}, "kill and flap are mutually exclusive"},
		"does nothing": {func(s *Scenario) { s.Impairments[0].Loss = 0 },
			"does nothing"},
		"damp without flag": {func(s *Scenario) { s.DampSuppress = 3 },
			"flapDamping is false"},
		"damp reuse above suppress": {func(s *Scenario) {
			s.FlapDamping = true
			s.DampSuppress = 1
			s.DampReuse = 2
		}, "reuse"},
	}
	for name, c := range cases {
		s := impairScenario()
		c.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", name, err, c.want)
		}
	}
}

func TestImpairmentSpecConversion(t *testing.T) {
	doc := `{
  "nodes": 4,
  "duration": "30s",
  "flapDamping": true,
  "dampHalfLife": "5s",
  "traffic": [{"from": 0, "to": 1, "interval": "1s"}],
  "impairments": [
    {"start": "2s", "kind": "backplane", "rail": 1, "loss": 0.1, "delay": "3ms"},
    {"start": "5s", "stop": "25s", "kind": "nic", "node": 2, "rail": 0, "kill": true, "direction": "tx"},
    {"start": "5s", "kind": "nic", "node": 3, "rail": 1, "flapPeriod": "4s", "flapDuty": 0.25}
  ]
}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Episodes) != 3 {
		t.Fatalf("episodes = %d", len(spec.Episodes))
	}
	cl := spec.Episodes
	if cl[0].Impair.Loss != 0.1 || cl[0].Impair.Delay != 3*time.Millisecond {
		t.Fatalf("backplane impairment = %+v", cl[0].Impair)
	}
	if !cl[1].Kill || cl[1].Dir != netsim.DirTx || cl[1].Stop != 25*time.Second {
		t.Fatalf("kill spec = %+v", cl[1])
	}
	if cl[2].FlapPeriod != 4*time.Second || cl[2].FlapDuty != 0.25 {
		t.Fatalf("flap spec = %+v", cl[2])
	}
	if !spec.Tunables.FlapDamping.Enabled() {
		t.Fatal("damping not threaded into tunables")
	}
	if spec.Tunables.FlapDamping.HalfLife != 5*time.Second {
		t.Fatalf("damping half-life = %v", spec.Tunables.FlapDamping.HalfLife)
	}
	// The scenario runs end to end on the unified runtime.
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flows) != 1 || rep.Flows[0].Sent == 0 {
		t.Fatalf("report = %+v", rep)
	}
}
