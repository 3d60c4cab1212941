package nemesis

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"drsnet/internal/routing"
	"drsnet/internal/runtime"
	"drsnet/internal/scenario"
)

// quickCfg keeps campaign tests fast: a short horizon is still dozens
// of probe rounds at the default 100ms cadence.
func quickCfg() Config {
	return Config{Horizon: 6 * time.Second, Settle: 2 * time.Second}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		a := Generate(seed, quickCfg())
		b := Generate(seed, quickCfg())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%+v\n%+v", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
		if len(a.Episodes) != 4 {
			t.Fatalf("seed %d: %d episodes, want 4", seed, len(a.Episodes))
		}
	}
	if reflect.DeepEqual(Generate(1, quickCfg()), Generate(2, quickCfg())) {
		t.Fatal("different seeds generated the same schedule")
	}
}

// TestRunDeterministic: the whole point of the hermetic runner — the
// same schedule executes to a bit-identical outcome.
func TestRunDeterministic(t *testing.T) {
	s := Generate(3, quickCfg())
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Fatalf("violations diverged:\n%v\n%v", a.Violations, b.Violations)
	}
	if a.Faults != b.Faults {
		t.Fatalf("fault stats diverged:\n%+v\n%+v", a.Faults, b.Faults)
	}
	if !reflect.DeepEqual(a.Statuses, b.Statuses) {
		t.Fatal("final daemon statuses diverged")
	}
}

// TestHealthyCampaignConverges: with a settle window worth many probe
// rounds, generated schedules must heal clean — partitions lifted,
// crashed nodes rejoined under new incarnations, routes direct,
// datagrams delivered. A violation here is a real protocol bug.
func TestHealthyCampaignConverges(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		s := Generate(seed, quickCfg())
		out, err := Run(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Failed() {
			t.Errorf("seed %d: %d violations after a full settle:", seed, len(out.Violations))
			for _, v := range out.Violations {
				t.Errorf("  %v", v)
			}
			for _, e := range s.Episodes {
				t.Logf("  episode: %v", e)
			}
		}
		if out.Faults.Partitioned == 0 && hasKind(s, KindPartition) {
			t.Errorf("seed %d: schedule partitions but no frame was ever cut", seed)
		}
	}
}

func hasKind(s Schedule, kind string) bool {
	for _, e := range s.Episodes {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// TestCrashRestartRejoins pins the lifecycle path: a cold crash window
// must come back as incarnation 2 in every survivor's view.
func TestCrashRestartRejoins(t *testing.T) {
	s := Schedule{
		Seed: 9, Nodes: 3,
		ProbeInterval: scenario.Duration(100 * time.Millisecond),
		Horizon:       scenario.Duration(4 * time.Second),
		Settle:        scenario.Duration(2 * time.Second),
		Episodes: []Episode{
			{Kind: KindCrash, A: 1, Start: scenario.Duration(time.Second), Stop: scenario.Duration(3 * time.Second), Warm: true},
		},
	}
	out, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() {
		t.Fatalf("violations: %v", out.Violations)
	}
	for _, st := range out.Statuses {
		if st.Node == 1 {
			if st.Incarnation != 2 {
				t.Fatalf("restarted node runs incarnation %d, want 2", st.Incarnation)
			}
			continue
		}
		for _, p := range st.Peers {
			if p.Peer == 1 && p.Incarnation != 2 {
				t.Fatalf("node %d sees node 1 at incarnation %d, want 2", st.Node, p.Incarnation)
			}
		}
	}
}

// violatingSchedule partitions 0–1 on every rail right up to the
// horizon and allows no settle: the cluster cannot possibly have
// reconverged when the invariants run. The flap and skew riders are
// noise the shrinker must strip.
func violatingSchedule() Schedule {
	return Schedule{
		Seed: 11, Nodes: 3,
		ProbeInterval: scenario.Duration(100 * time.Millisecond),
		Horizon:       scenario.Duration(3 * time.Second),
		Settle:        0,
		Episodes: []Episode{
			{Kind: KindSkew, A: 2, Start: scenario.Duration(500 * time.Millisecond), Stop: scenario.Duration(time.Second), Skew: scenario.Duration(50 * time.Millisecond)},
			{Kind: KindPartition, A: 0, B: 1, Rail: AllRails, Direction: DirBoth, Start: scenario.Duration(time.Second), Stop: scenario.Duration(3 * time.Second)},
			{Kind: KindFlap, A: 2, Rail: 1, Start: scenario.Duration(time.Second), Stop: scenario.Duration(2 * time.Second), Period: scenario.Duration(200 * time.Millisecond)},
		},
	}
}

// TestShrinkReducesToMinimalSchedule: the three-episode failing
// schedule must shrink to just the partition, and the shrunk schedule
// must replay to the identical violations.
func TestShrinkReducesToMinimalSchedule(t *testing.T) {
	s := violatingSchedule()
	out, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Failed() {
		t.Fatal("zero-settle partition schedule did not violate — the harness is not checking anything")
	}
	hasConvergence := false
	for _, v := range out.Violations {
		if v.Invariant == "convergence" {
			hasConvergence = true
		}
	}
	if !hasConvergence {
		t.Fatalf("expected a convergence violation, got %v", out.Violations)
	}

	shrunk, sout := Shrink(s)
	if sout == nil || !sout.Failed() {
		t.Fatal("shrink lost the violation")
	}
	if len(shrunk.Episodes) != 1 || shrunk.Episodes[0].Kind != KindPartition {
		t.Fatalf("shrunk to %v, want just the partition", shrunk.Episodes)
	}
	// Replay: the shrunk schedule is its own repro.
	replay, err := Run(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay.Violations, sout.Violations) {
		t.Fatalf("replay of the shrunk schedule diverged:\n%v\n%v", replay.Violations, sout.Violations)
	}
}

// TestShrinkPassingScheduleIsNoop: shrinking only means something from
// a failing start.
func TestShrinkPassingScheduleIsNoop(t *testing.T) {
	s := Generate(1, quickCfg())
	shrunk, out := Shrink(s)
	if out != nil {
		t.Fatalf("passing schedule produced a shrink outcome: %v", out.Violations)
	}
	if !reflect.DeepEqual(shrunk, s) {
		t.Fatal("passing schedule was modified by Shrink")
	}
}

// TestDeliveryOnlyProtocols: non-DRS protocols expose no status, so
// campaigns degrade to the data-plane invariant — which a healed
// cluster must still pass.
func TestDeliveryOnlyProtocols(t *testing.T) {
	s := Schedule{
		Seed: 5, Nodes: 3, Protocol: runtime.ProtoStatic,
		ProbeInterval: scenario.Duration(100 * time.Millisecond),
		Horizon:       scenario.Duration(2 * time.Second),
		Settle:        scenario.Duration(time.Second),
		Episodes: []Episode{
			{Kind: KindPartition, A: 0, B: 1, Rail: 0, Direction: DirBoth, Start: scenario.Duration(500 * time.Millisecond), Stop: scenario.Duration(1500 * time.Millisecond)},
		},
	}
	out, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Statuses) != 0 {
		t.Fatalf("static protocol produced %d daemon statuses", len(out.Statuses))
	}
	if out.Failed() {
		t.Fatalf("healed static cluster violated: %v", out.Violations)
	}
}

// TestBudgetScheduleHoldsBound: with the budget block armed, a
// partition-plus-crash campaign must heal clean AND every daemon's
// control traffic must sit under the token-bucket admission bound —
// the budget invariant holding on a run where the faults actually
// pressured the retransmit and discovery paths.
func TestBudgetScheduleHoldsBound(t *testing.T) {
	s := Schedule{
		Seed: 21, Nodes: 3,
		ProbeInterval: scenario.Duration(100 * time.Millisecond),
		Budget:        &BudgetSpec{},
		Horizon:       scenario.Duration(4 * time.Second),
		Settle:        scenario.Duration(2 * time.Second),
		Episodes: []Episode{
			{Kind: KindPartition, A: 0, B: 1, Rail: AllRails, Direction: DirBoth, Start: scenario.Duration(500 * time.Millisecond), Stop: scenario.Duration(2 * time.Second)},
			{Kind: KindCrash, A: 2, Start: scenario.Duration(time.Second), Stop: scenario.Duration(3 * time.Second), Warm: true},
		},
	}
	out, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() {
		t.Fatalf("budgeted campaign violated: %v", out.Violations)
	}
	if len(out.Statuses) == 0 {
		t.Fatal("no daemon statuses")
	}
	for _, st := range out.Statuses {
		if st.Overload == nil {
			t.Fatalf("node %d reports no overload block — the budget was not wired in", st.Node)
		}
	}
	// Determinism holds with the budget layer in the loop.
	again, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Statuses, out.Statuses) {
		t.Fatal("budgeted run is not bit-identical on replay")
	}
}

// TestBudgetCheckerFlagsExcess unit-tests the invariant itself: a
// counter snapshot exactly at the bucket ceiling passes, one past it
// is a violation.
func TestBudgetCheckerFlagsExcess(t *testing.T) {
	cfg, err := (&BudgetSpec{}).config()
	if err != nil {
		t.Fatal(err)
	}
	window := 10 * time.Second
	probeCeil := budgetCeiling(cfg.ProbeRate, cfg.ProbeBurst, window)
	queryCeil := budgetCeiling(cfg.QueryRate, cfg.QueryBurst, window) * rails
	atCeiling := map[string]int64{
		routing.CtrProbeRetransmits: probeCeil,
		routing.CtrQueriesSent:      queryCeil,
	}
	if vs := budgetViolations(0, atCeiling, cfg, window); len(vs) != 0 {
		t.Fatalf("snapshot at the ceiling flagged: %v", vs)
	}
	over := map[string]int64{
		routing.CtrProbeRetransmits: probeCeil + 1,
		routing.CtrQueriesSent:      queryCeil + 1,
	}
	vs := budgetViolations(4, over, cfg, window)
	if len(vs) != 2 {
		t.Fatalf("%d violations, want 2: %v", len(vs), vs)
	}
	for _, v := range vs {
		if v.Invariant != "budget" || v.Node != 4 {
			t.Fatalf("malformed violation %+v", v)
		}
	}
	if !strings.Contains(vs[0].Detail, "probe") || !strings.Contains(vs[1].Detail, "query") {
		t.Fatalf("details do not name the exceeded budgets: %v", vs)
	}
}

func TestScheduleValidation(t *testing.T) {
	base := violatingSchedule()
	cases := []struct {
		name string
		mut  func(*Schedule)
		want string
	}{
		{"too few nodes", func(s *Schedule) { s.Nodes = 1 }, "nodes"},
		{"zero horizon", func(s *Schedule) { s.Horizon = 0 }, "horizon"},
		{"negative settle", func(s *Schedule) { s.Settle = scenario.Duration(-time.Second) }, "settle"},
		{"window past horizon", func(s *Schedule) { s.Episodes[1].Stop = scenario.Duration(9 * time.Second) }, "outside"},
		{"empty window", func(s *Schedule) { s.Episodes[1].Stop = s.Episodes[1].Start }, "outside"},
		{"node out of range", func(s *Schedule) { s.Episodes[1].A = 7 }, "outside"},
		{"partition self", func(s *Schedule) { s.Episodes[1].B = s.Episodes[1].A }, "peer"},
		{"bad rail", func(s *Schedule) { s.Episodes[1].Rail = 5 }, "rail"},
		{"bad direction", func(s *Schedule) { s.Episodes[1].Direction = "up" }, "direction"},
		{"flap without period", func(s *Schedule) { s.Episodes[2].Period = 0 }, "period"},
		{"skew without skew", func(s *Schedule) { s.Episodes[0].Skew = 0 }, "skew"},
		{"unknown kind", func(s *Schedule) { s.Episodes[0].Kind = "meteor" }, "unknown kind"},
		{"negative budget rate", func(s *Schedule) { s.Budget = &BudgetSpec{ProbeRate: -1} }, "budget"},
		{"overlapping crashes", func(s *Schedule) {
			s.Episodes = append(s.Episodes,
				Episode{Kind: KindCrash, A: 0, Start: scenario.Duration(time.Second), Stop: scenario.Duration(2 * time.Second)},
				Episode{Kind: KindCrash, A: 0, Start: scenario.Duration(1500 * time.Millisecond), Stop: scenario.Duration(2500 * time.Millisecond)})
		}, "overlapping"},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base schedule invalid: %v", err)
	}
	for _, tc := range cases {
		s := violatingSchedule()
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestScheduleJSONRoundTrip: the repro artifact must survive
// serialization exactly, durations as readable strings.
func TestScheduleJSONRoundTrip(t *testing.T) {
	s := Generate(42, quickCfg())
	s.Budget = &BudgetSpec{ProbeRate: 3, QueryBurst: 5}
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"horizon": "6s"`) {
		t.Fatalf("durations not serialized as strings:\n%s", buf)
	}
	if !strings.Contains(string(buf), `"probeRate": 3`) {
		t.Fatalf("budget block not serialized:\n%s", buf)
	}
	var back Schedule
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("round trip changed the schedule:\n%+v\n%+v", back, s)
	}
	// Durations share scenario's JSON form: a number counts whole
	// nanoseconds, and anything else is rejected.
	if err := json.Unmarshal([]byte(`{"horizon": 1.5}`), &back); err == nil {
		t.Fatal("fractional numeric duration accepted")
	}
}
