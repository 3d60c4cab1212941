package scenario

import (
	"strings"
	"testing"
	"time"

	"drsnet/internal/runtime"
)

// fatTreeDoc returns a minimal valid fat-tree scenario document.
func fatTreeDoc() *Scenario {
	return &Scenario{
		Topology: &runtime.TopologySpec{Kind: "fatTree", K: 4},
		Duration: Duration(10 * time.Second),
		Traffic:  []TrafficSpec{{From: 0, To: 15, Interval: Duration(time.Second)}},
	}
}

func TestTopologyDefaultsAndDerivedNodes(t *testing.T) {
	spec, err := fatTreeDoc().Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 16 {
		t.Fatalf("derived nodes = %d, want 16", spec.Nodes)
	}

	s := fatTreeDoc()

	// An explicit node count matching the shape is accepted too.
	s.Nodes = 16
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	// A dual-rail kind spelled out behaves exactly like no topology block.
	s = fatTreeDoc()
	s.Topology = &runtime.TopologySpec{Kind: "dualRail"}
	s.Nodes = 16
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTopologyValidationErrors checks that malformed topology blocks —
// and events/impairments that do not fit the selected shape — are
// rejected with an error naming the offending field.
func TestTopologyValidationErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func(*Scenario)
		want   string
	}{
		"unknown kind": {
			func(s *Scenario) { s.Topology.Kind = "torus" },
			`unknown topology kind "torus"`,
		},
		"odd fat-tree arity": {
			func(s *Scenario) { s.Topology.K = 5 },
			"fat-tree arity must be even",
		},
		"bcube radix too small": {
			func(s *Scenario) { s.Topology = &runtime.TopologySpec{Kind: "bcube", N: 1, Level: 1} },
			"BCube radix must be ≥ 2",
		},
		"nodes conflict": {
			func(s *Scenario) { s.Nodes = 12 },
			"conflicts with fatTree topology",
		},
		"switched ablation": {
			func(s *Scenario) { s.Switched = true },
			"Switched is a dual-rail ablation",
		},
		"backplane event under fabric": {
			func(s *Scenario) {
				s.Events = []EventSpec{{At: Duration(time.Second), Kind: "backplane"}}
			},
			`kind "backplane" is dual-rail only`,
		},
		"switch index out of range": {
			func(s *Scenario) {
				s.Events = []EventSpec{{At: Duration(time.Second), Kind: "switch", Index: 20}}
			},
			"switch index 20 outside [0,20)",
		},
		"trunk index out of range": {
			func(s *Scenario) {
				s.Events = []EventSpec{{At: Duration(time.Second), Kind: "trunk", Index: 64}}
			},
			"trunk index 64 outside [0,32)",
		},
		"nic rail beyond port count": {
			func(s *Scenario) {
				s.Events = []EventSpec{{At: Duration(time.Second), Kind: "nic", Node: 0, Rail: 1}}
			},
			"rail 1 invalid",
		},
		"unknown event kind names fabric kinds": {
			func(s *Scenario) {
				s.Events = []EventSpec{{At: Duration(time.Second), Kind: "meteor"}}
			},
			"want nic, switch or trunk",
		},
		"switch impairment index out of range": {
			func(s *Scenario) {
				s.Impairments = []ImpairmentSpec{{Start: Duration(time.Second), Kind: "switch", Index: -1, Loss: 1}}
			},
			"switch index -1 outside",
		},
		"backplane impairment under fabric": {
			func(s *Scenario) {
				s.Impairments = []ImpairmentSpec{{Start: Duration(time.Second), Kind: "backplane", Loss: 1}}
			},
			`kind "backplane" is dual-rail only`,
		},
	} {
		s := fatTreeDoc()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}

	// Fabric-only event kinds are rejected in dual-rail documents.
	s := fatTreeDoc()
	s.Topology = nil
	s.Nodes = 16
	s.Events = []EventSpec{{At: Duration(time.Second), Kind: "switch"}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `kind "switch" needs a fabric topology`) {
		t.Errorf("dual-rail switch event: err = %v", err)
	}
	s = fatTreeDoc()
	s.Topology = nil
	s.Nodes = 16
	s.Events = []EventSpec{{At: Duration(time.Second), Kind: "trunk"}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `kind "trunk" needs a fabric topology`) {
		t.Errorf("dual-rail trunk event: err = %v", err)
	}
}

func TestTopologyJSONRejectsMalformedBlock(t *testing.T) {
	for name, doc := range map[string]string{
		"unknown kind": `{"topology": {"kind": "torus"}, "duration": "5s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}]}`,
		"bogus field": `{"topology": {"kind": "fatTree", "k": 4, "pods": 9}, "duration": "5s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}]}`,
		"missing arity": `{"topology": {"kind": "fatTree"}, "duration": "5s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}]}`,
	} {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFatTreeScenarioToRFailure runs DRS over a k=4 fat-tree with a
// top-of-rack outage: the flow whose source sits under the failed
// edge switch loses traffic while the outage lasts, the flow in
// another pod is untouched.
func TestFatTreeScenarioToRFailure(t *testing.T) {
	doc := `{
	  "topology": {"kind": "fatTree", "k": 4},
	  "duration": "30s",
	  "probeInterval": "500ms",
	  "traffic": [
	    {"from": 0, "to": 15, "interval": "200ms", "stop": "28s"},
	    {"from": 4, "to": 12, "interval": "200ms", "stop": "28s"}
	  ],
	  "events": [
	    {"at": "10s", "kind": "switch", "index": 0},
	    {"at": "20s", "kind": "switch", "index": 0, "restore": true}
	  ]
	}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flows) != 2 {
		t.Fatalf("%d flow reports", len(rep.Flows))
	}
	severed, healthy := rep.Flows[0], rep.Flows[1]
	if severed.Sent == 0 || healthy.Sent == 0 {
		t.Fatalf("flows sent %d/%d, want both > 0", severed.Sent, healthy.Sent)
	}
	// Host 0 is single-homed on edge switch 0: the 10 s outage must
	// cost the severed flow a visible chunk of its deliveries. ~50 of
	// ~140 sends fall inside the outage.
	lost := severed.Sent - severed.Delivered
	if lost < 20 {
		t.Fatalf("severed flow lost only %d of %d sends across a 10s ToR outage", lost, severed.Sent)
	}
	if severed.Delivered == 0 {
		t.Fatal("severed flow never recovered after the ToR restore")
	}
	if healthy.Delivered != healthy.Sent {
		t.Fatalf("other-pod flow lost traffic: %d of %d delivered", healthy.Delivered, healthy.Sent)
	}
}
