package scenario

import (
	"strings"
	"testing"
	"time"

	"drsnet/internal/overload"
)

const overloadJSON = `{
  "name": "budgeted storm",
  "nodes": 4,
  "duration": "20s",
  "adaptiveRTO": true,
  "overload": {
    "probeRate": 1.5,
    "probeBurst": 3,
    "queueCapacity": 32,
    "degradedSheds": 5,
    "degradedQuiet": "3s"
  },
  "traffic": [
    {"from": 0, "to": 1, "interval": "250ms"}
  ]
}`

func TestOverloadScenarioLoads(t *testing.T) {
	s, err := Load(strings.NewReader(overloadJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	got := spec.Tunables.Overload
	want := overload.Default()
	want.ProbeRate, want.ProbeBurst = 1.5, 3
	want.QueueCapacity = 32
	want.DegradedSheds = 5
	want.DegradedQuiet = 3 * time.Second
	if got != want {
		t.Fatalf("overload = %+v, want %+v", got, want)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOverloadScenarioAbsentMeansDisabled(t *testing.T) {
	s, err := Load(strings.NewReader(`{
  "name": "plain",
  "nodes": 3,
  "duration": "5s",
  "traffic": [{"from": 0, "to": 1, "interval": "1s"}]
}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Tunables.Overload != (overload.Config{}) {
		t.Fatalf("no overload block but Tunables.Overload = %+v", spec.Tunables.Overload)
	}
}

func TestOverloadScenarioValidation(t *testing.T) {
	cases := []struct {
		name    string
		doc     string
		wantErr string
	}{
		{"unknown field", `{
  "nodes": 3, "duration": "5s",
  "overload": {"probeRates": 1},
  "traffic": [{"from": 0, "to": 1, "interval": "1s"}]
}`, "probeRates"},
		{"retired hello interval", `{
  "nodes": 3, "duration": "5s",
  "overload": {"helloMinInterval": "4s"},
  "traffic": [{"from": 0, "to": 1, "interval": "1s"}]
}`, "helloMinInterval"},
		{"negative rate", `{
  "nodes": 3, "duration": "5s",
  "overload": {"probeRate": -1},
  "traffic": [{"from": 0, "to": 1, "interval": "1s"}]
}`, "negative budget rate"},
		{"jitter above one", `{
  "nodes": 3, "duration": "5s",
  "overload": {"jitterFrac": 1.5},
  "traffic": [{"from": 0, "to": 1, "interval": "1s"}]
}`, "jitter fraction"},
	}
	for _, tc := range cases {
		_, err := Load(strings.NewReader(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}
