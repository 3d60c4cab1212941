package scenario

import (
	"bytes"
	"strings"
	"testing"

	"drsnet/internal/runtime"
)

// validDoc is a minimal well-formed scenario used as a fuzz seed and
// as the template for the malformed-input table below.
const validDoc = `{
  "nodes": 6,
  "duration": "30s",
  "traffic": [{"from": 0, "to": 1, "interval": "100ms"}],
  "events": [
    {"at": "10s", "kind": "nic", "node": 2, "rail": 0},
    {"at": "12s", "kind": "backplane", "rail": 1},
    {"at": "20s", "kind": "nic", "node": 2, "rail": 0, "restore": true}
  ]
}`

// TestLoadRejectsMalformed pins the loader's error behaviour on the
// malformed classes the fuzzer also explores: bad component IDs,
// negative times and duplicate fault events must error, never panic.
func TestLoadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"node out of range": `{"nodes": 4, "duration": "10s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}],
			"events": [{"at": "1s", "kind": "nic", "node": 9, "rail": 0}]}`,
		"negative node": `{"nodes": 4, "duration": "10s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}],
			"events": [{"at": "1s", "kind": "nic", "node": -1, "rail": 0}]}`,
		"bad rail": `{"nodes": 4, "duration": "10s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}],
			"events": [{"at": "1s", "kind": "nic", "node": 1, "rail": 2}]}`,
		"unknown kind": `{"nodes": 4, "duration": "10s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}],
			"events": [{"at": "1s", "kind": "router", "node": 1, "rail": 0}]}`,
		"negative event time": `{"nodes": 4, "duration": "10s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}],
			"events": [{"at": "-1s", "kind": "nic", "node": 1, "rail": 0}]}`,
		"event after horizon": `{"nodes": 4, "duration": "10s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}],
			"events": [{"at": "11s", "kind": "nic", "node": 1, "rail": 0}]}`,
		"negative traffic start": `{"nodes": 4, "duration": "10s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s", "start": "-2s"}]}`,
		"duplicate nic fault": `{"nodes": 4, "duration": "10s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}],
			"events": [{"at": "1s", "kind": "nic", "node": 1, "rail": 0},
			           {"at": "1s", "kind": "nic", "node": 1, "rail": 0}]}`,
		"duplicate backplane fault despite node": `{"nodes": 4, "duration": "10s",
			"traffic": [{"from": 0, "to": 1, "interval": "1s"}],
			"events": [{"at": "1s", "kind": "backplane", "node": 0, "rail": 1},
			           {"at": "1s", "kind": "backplane", "node": 3, "rail": 1}]}`,
		"self traffic":   `{"nodes": 4, "duration": "10s", "traffic": [{"from": 1, "to": 1, "interval": "1s"}]}`,
		"unknown field":  `{"nodes": 4, "duration": "10s", "traffic": [{"from": 0, "to": 1, "interval": "1s"}], "bogus": 1}`,
		"truncated":      `{"nodes": 4, "duration": "10s", "traffic": [{"fr`,
		"non-object":     `[1, 2, 3]`,
		"empty document": ``,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Distinct fail and restore of the same component at the same time
	// are not duplicates.
	if _, err := Load(strings.NewReader(validDoc)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

// FuzzLoad: whatever bytes arrive, Load either returns an error or a
// scenario that re-validates cleanly and, at up to 64 nodes, builds
// into a cluster — it must never panic.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(validDoc))
	f.Add([]byte(`{"nodes": 2, "duration": 1000000000, "traffic": [{"from": 0, "to": 1, "interval": 1000000}]}`))
	f.Add([]byte(`{"nodes": -3, "duration": "10s", "traffic": []}`))
	f.Add([]byte(`{"nodes": 4, "duration": "10s",
		"traffic": [{"from": 0, "to": 1, "interval": "1s"}],
		"events": [{"at": "1s", "kind": "nic", "node": 99, "rail": 7},
		           {"at": "-5s", "kind": "backplane", "rail": 0},
		           {"at": "1s", "kind": "nic", "node": 99, "rail": 7}]}`))
	f.Add([]byte(`{"duration": "-10s"}`))
	f.Add([]byte(`{"nodes": 2, "duration": 1e19, "traffic": [{"from": 0, "to": 1, "interval": 1000000}]}`))
	f.Add([]byte(`{"nodes": 2, "duration": 9.3e18, "traffic": [{"from": 0, "to": 1, "interval": 1000000}]}`))
	f.Add([]byte(`{"nodes": 2, "duration": 1e10, "traffic": [{"from": 0, "to": 1, "interval": 1.5}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte("\xff\xfe{}"))
	f.Add([]byte(`{"nodes": 3, "duration": "10s", "traffic": [{"from": 0, "to": 1, "interval": "1s"}],
		"impairments": [{"start": "1s", "kind": "nic", "node": 0, "rail": 0, "flapPeriod": "1ns"}]}`))
	f.Add([]byte(`{"nodes": 3, "duration": "10s", "traffic": [{"from": 0, "to": 1, "interval": "1s"}],
		"partitions": [{"a": 0, "b": 1, "rail": -7, "start": "3s"}]}`))
	f.Add([]byte(`{"topology": {"kind": "fatTree", "k": 4}, "duration": "10s",
		"traffic": [{"from": 0, "to": 15, "interval": "1s"}],
		"events": [{"at": "1s", "kind": "trunk", "index": 3}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the loader accepts must stay self-consistent.
		if err := s.Validate(); err != nil {
			t.Fatalf("Load accepted a scenario Validate rejects: %v", err)
		}
		spec, err := s.Spec()
		if err != nil {
			t.Fatalf("Load accepted a scenario Spec rejects: %v", err)
		}
		if spec.Nodes < 2 || spec.Duration <= 0 {
			t.Fatalf("accepted scenario with nodes=%d duration=%v", spec.Nodes, spec.Duration)
		}
		if spec.Nodes <= 64 {
			if _, err := runtime.Build(spec); err != nil {
				t.Fatalf("Load accepted a scenario runtime.Build rejects: %v", err)
			}
		}
	})
}
