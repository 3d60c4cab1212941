package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"drsnet/internal/trace"
)

const sampleJSON = `{
  "name": "nic failover",
  "nodes": 5,
  "duration": "30s",
  "probeInterval": "500ms",
  "traffic": [
    {"from": 0, "to": 1, "interval": "100ms"},
    {"from": 2, "to": 3, "interval": "250ms"}
  ],
  "events": [
    {"at": "10s", "kind": "nic", "node": 1, "rail": 0},
    {"at": "20s", "kind": "nic", "node": 1, "rail": 0, "restore": true}
  ]
}`

func TestLoadSample(t *testing.T) {
	s, err := Load(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 5 || spec.Protocol != "drs" {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Tunables.ProbeInterval != 500*time.Millisecond {
		t.Fatalf("probe interval = %v", spec.Tunables.ProbeInterval)
	}
	if len(spec.Flows) != 2 || len(spec.Faults) != 2 {
		t.Fatalf("flows/faults = %d/%d", len(spec.Flows), len(spec.Faults))
	}
	if !spec.Faults[1].Restore {
		t.Fatal("restore flag lost")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	bad := `{"nodes": 4, "duration": "10s", "traffic": [{"from":0,"to":1,"interval":"1s"}], "bogus": 1}`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestDurationForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"1m30s"`), &d); err != nil || time.Duration(d) != 90*time.Second {
		t.Fatalf("string form: %v %v", time.Duration(d), err)
	}
	// A number counts nanoseconds: whole values in int64 range decode
	// exactly, and anything else is an error naming the value rather
	// than a wrapped or truncated duration.
	for _, c := range []struct {
		in   string
		want time.Duration // 0: must be rejected
	}{
		{`5000000000`, 5 * time.Second},
		{`1e9`, time.Second},
		{`-1500`, -1500},
		{`9007199254740993`, 9007199254740993},
		{`9223372036854775807`, math.MaxInt64},
		{`-9223372036854775808`, math.MinInt64},
		{`1e19`, 0},
		{`9.3e18`, 0},
		{`-9.3e18`, 0},
		{`9223372036854775808`, 0},
		{`1.5`, 0},
		{`0.5`, 0},
	} {
		var d Duration
		err := json.Unmarshal([]byte(c.in), &d)
		if c.want == 0 {
			if err == nil || !strings.Contains(err.Error(), c.in) {
				t.Errorf("%s: decoded %d, %v; want an error naming the value", c.in, d, err)
			}
		} else if err != nil || time.Duration(d) != c.want {
			t.Errorf("%s: decoded %d, %v; want %d", c.in, d, err, c.want)
		}
	}
	if err := json.Unmarshal([]byte(`"ten seconds"`), &d); err == nil {
		t.Fatal("garbage duration accepted")
	}
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Fatal("bool duration accepted")
	}
	out, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(out) != `"1m30s"` {
		t.Fatalf("marshal: %s %v", out, err)
	}
}

func TestValidateDefaultsAndErrors(t *testing.T) {
	good := func() *Scenario {
		return &Scenario{
			Nodes:    4,
			Duration: Duration(10 * time.Second),
			Traffic:  []TrafficSpec{{From: 0, To: 1, Interval: Duration(time.Second)}},
		}
	}
	spec, err := good().Spec()
	if err != nil {
		t.Fatal(err)
	}
	if tun := spec.Tunables; spec.Protocol != "drs" || tun.MissThreshold != 2 || tun.ProbeInterval != time.Second {
		t.Fatalf("defaults not applied: %+v", spec)
	}
	if spec.Tunables.RouteTimeout != 6*time.Second {
		t.Fatalf("route timeout default = %v", spec.Tunables.RouteTimeout)
	}

	for name, mutate := range map[string]func(*Scenario){
		"nodes":            func(s *Scenario) { s.Nodes = 1 },
		"duration":         func(s *Scenario) { s.Duration = 0 },
		"protocol":         func(s *Scenario) { s.Protocol = "ospf" },
		"loss":             func(s *Scenario) { s.LossRate = 1 },
		"no traffic":       func(s *Scenario) { s.Traffic = nil },
		"traffic self":     func(s *Scenario) { s.Traffic[0].To = 0 },
		"traffic oob":      func(s *Scenario) { s.Traffic[0].To = 9 },
		"traffic interval": func(s *Scenario) { s.Traffic[0].Interval = 0 },
		"traffic start":    func(s *Scenario) { s.Traffic[0].Start = Duration(-1) },
		"event late": func(s *Scenario) {
			s.Events = []EventSpec{{At: Duration(time.Minute), Kind: "nic", Rail: 0}}
		},
		"event kind": func(s *Scenario) {
			s.Events = []EventSpec{{At: Duration(time.Second), Kind: "meteor", Rail: 0}}
		},
		"event node": func(s *Scenario) {
			s.Events = []EventSpec{{At: Duration(time.Second), Kind: "nic", Node: 9, Rail: 0}}
		},
		"event rail": func(s *Scenario) {
			s.Events = []EventSpec{{At: Duration(time.Second), Kind: "backplane", Rail: 5}}
		},
	} {
		s := good()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunFailoverScenario(t *testing.T) {
	s, err := Load(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flows) != 2 {
		t.Fatalf("flows = %+v", rep.Flows)
	}
	// Flow 0→1 crosses the failure; the DRS failover bounds the loss
	// to the detection window (≈1–1.5 s of a 20 s active failure
	// window at 100 ms per message → a handful of messages).
	f01 := rep.Flows[0]
	if f01.Sent < 290 {
		t.Fatalf("flow 0→1 sent only %d", f01.Sent)
	}
	if lost := f01.Sent - f01.Delivered; lost > 20 {
		t.Fatalf("flow 0→1 lost %d of %d — failover failed", lost, f01.Sent)
	}
	// Flow 2→3 is untouched by the failure.
	f23 := rep.Flows[1]
	if f23.Delivered < f23.Sent-1 {
		t.Fatalf("bystander flow lost traffic: %+v", f23)
	}
	if rep.Repairs == 0 {
		t.Fatal("no repairs recorded")
	}
	if rep.Utilization[0] <= 0 || rep.Utilization[1] <= 0 {
		t.Fatalf("utilization = %+v", rep.Utilization)
	}
	// Events recorded the failover.
	if rep.Trace.Count(trace.KindLinkDown) == 0 || rep.Trace.Count(trace.KindLinkUp) == 0 {
		t.Fatal("trace missing link transitions")
	}
	var sb strings.Builder
	if err := rep.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "nic failover") || !strings.Contains(sb.String(), "route repairs") {
		t.Fatalf("report: %q", sb.String())
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Report {
		s, err := Load(strings.NewReader(sampleJSON))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("nondeterministic flow %d: %+v vs %+v", i, a.Flows[i], b.Flows[i])
		}
	}
	if a.Repairs != b.Repairs {
		t.Fatalf("nondeterministic repairs: %d vs %d", a.Repairs, b.Repairs)
	}
}

func TestRunBaselines(t *testing.T) {
	base := `{
	  "nodes": 4, "duration": "20s", "protocol": "%s",
	  "traffic": [{"from": 0, "to": 1, "interval": "200ms"}],
	  "events": [{"at": "8s", "kind": "nic", "node": 1, "rail": 0}]
	}`
	for _, proto := range []string{"reactive", "static"} {
		s, err := Load(strings.NewReader(strings.ReplaceAll(base, "%s", proto)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		f := rep.Flows[0]
		if f.Sent == 0 {
			t.Fatalf("%s: nothing sent", proto)
		}
		if proto == "static" {
			// After the failure, static loses everything.
			if f.Delivered >= f.Sent-10 {
				t.Fatalf("static delivered too much: %+v", f)
			}
		}
		if rep.Repairs != 0 {
			t.Fatalf("%s: repairs = %d, want 0", proto, rep.Repairs)
		}
	}
}

func TestRunSwitchedAndLossy(t *testing.T) {
	doc := `{
	  "nodes": 4, "duration": "10s", "switched": true, "lossRate": 0.05,
	  "probeInterval": "250ms",
	  "traffic": [{"from": 0, "to": 1, "interval": "100ms"}]
	}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Flows[0]
	if f.Delivered < f.Sent*85/100 {
		t.Fatalf("delivered %d of %d at 5%% loss", f.Delivered, f.Sent)
	}
}
