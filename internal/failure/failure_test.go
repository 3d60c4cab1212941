package failure

import (
	"math"
	"testing"
	"time"

	"drsnet/internal/topology"
)

func TestDefaultWeightsEncodeThirteenPercent(t *testing.T) {
	w := DefaultWeights()
	total, network := 0.0, 0.0
	for i, v := range w {
		total += v
		if Category(i).IsNetwork() {
			network += v
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("weights sum to %v", total)
	}
	if math.Abs(network/total-0.13) > 1e-12 {
		t.Fatalf("network weight fraction = %v, want 0.13", network/total)
	}
}

func TestFleetLogReproducesPaperStatistic(t *testing.T) {
	// "over a one-year period, thirteen percent of the hardware
	// failures were network related" (100 servers).
	log, err := GenerateFleetLog(DefaultFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := log.Summary()
	if s.Total < 60 {
		t.Fatalf("only %d failures in a year across 100 servers", s.Total)
	}
	// ~120 samples of a 13% Bernoulli: allow ±3σ ≈ ±0.09.
	if math.Abs(s.NetworkFraction-0.13) > 0.09 {
		t.Fatalf("network fraction = %v, want ≈ 0.13", s.NetworkFraction)
	}
	if s.Network == 0 {
		t.Fatal("no network failures at all")
	}
}

func TestFleetLogLargeSampleConverges(t *testing.T) {
	cfg := DefaultFleetConfig()
	cfg.Servers = 5000
	cfg.Seed = 3
	log, err := GenerateFleetLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := log.Summary()
	if math.Abs(s.NetworkFraction-0.13) > 0.02 {
		t.Fatalf("network fraction = %v with %d failures, want ≈ 0.13",
			s.NetworkFraction, s.Total)
	}
}

func TestFleetLogDeterministic(t *testing.T) {
	a, err := GenerateFleetLog(DefaultFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFleetLog(DefaultFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatal("nondeterministic event count")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestFleetLogSortedAndInRange(t *testing.T) {
	cfg := DefaultFleetConfig()
	cfg.Seed = 7
	log, err := GenerateFleetLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prevDay := -1
	for _, e := range log.Events {
		if e.Day < prevDay {
			t.Fatal("events not sorted by day")
		}
		prevDay = e.Day
		if e.Day < 0 || e.Day >= cfg.Days {
			t.Fatalf("day %d out of range", e.Day)
		}
		if e.Server < 0 || e.Server >= cfg.Servers {
			t.Fatalf("server %d out of range", e.Server)
		}
		if e.Category < 0 || e.Category >= numCategories {
			t.Fatalf("bad category %v", e.Category)
		}
	}
}

func TestFleetRateCalibration(t *testing.T) {
	cfg := DefaultFleetConfig()
	cfg.Servers = 2000
	cfg.Seed = 11
	log, err := GenerateFleetLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perServerYear := float64(log.Summary().Total) / float64(cfg.Servers)
	if math.Abs(perServerYear-cfg.AnnualFailureRate) > 0.1 {
		t.Fatalf("observed rate %v, want ≈ %v", perServerYear, cfg.AnnualFailureRate)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*FleetConfig){
		"no servers": func(c *FleetConfig) { c.Servers = 0 },
		"no days":    func(c *FleetConfig) { c.Days = 0 },
		"zero rate":  func(c *FleetConfig) { c.AnnualFailureRate = 0 },
		"bad weight": func(c *FleetConfig) { c.Weights = []float64{1, -1} },
		"all zero": func(c *FleetConfig) {
			c.Weights = make([]float64, numCategories)
		},
	} {
		cfg := DefaultFleetConfig()
		mutate(&cfg)
		if _, err := GenerateFleetLog(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	if CatNIC.String() != "nic" || CatHub.String() != "hub" || CatDisk.String() != "disk" {
		t.Fatal("category names wrong")
	}
	if Category(99).String() != "Category(99)" {
		t.Fatal("unknown category formatting")
	}
	for _, c := range []Category{CatNIC, CatHub, CatCable} {
		if !c.IsNetwork() {
			t.Fatalf("%v not network", c)
		}
	}
	for _, c := range []Category{CatDisk, CatMemory, CatCPU, CatPower, CatFan, CatOther} {
		if c.IsNetwork() {
			t.Fatalf("%v wrongly network", c)
		}
	}
}

func TestRandomScheduleShape(t *testing.T) {
	cluster := topology.Dual(8)
	cfg := ScheduleConfig{
		Horizon: 100 * time.Hour,
		MTBF:    20 * time.Hour,
		MTTR:    time.Hour,
		Seed:    5,
	}
	sched, err := RandomSchedule(cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) == 0 {
		t.Fatal("empty schedule at MTBF << horizon")
	}
	prev := time.Duration(-1)
	state := make(map[topology.Component]bool) // true = currently down
	for _, a := range sched {
		if a.At < prev {
			t.Fatal("schedule not time ordered")
		}
		prev = a.At
		if a.At < 0 || a.At >= cfg.Horizon {
			t.Fatalf("action at %v outside horizon", a.At)
		}
		if int(a.Component) < 0 || int(a.Component) >= cluster.Components() {
			t.Fatalf("component %d out of range", a.Component)
		}
		// Alternation per component: a fail only when up, a repair
		// only when down.
		if a.Up {
			if !state[a.Component] {
				t.Fatalf("repair of a healthy component %v", a.Component)
			}
			state[a.Component] = false
		} else {
			if state[a.Component] {
				t.Fatalf("double failure of %v", a.Component)
			}
			state[a.Component] = true
		}
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	cluster := topology.Dual(4)
	cfg := ScheduleConfig{Horizon: 50 * time.Hour, MTBF: 10 * time.Hour, MTTR: time.Hour, Seed: 9}
	a, err := RandomSchedule(cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSchedule(cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("action %d differs", i)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	cluster := topology.Dual(4)
	bad := ScheduleConfig{Horizon: 0, MTBF: time.Hour, MTTR: time.Hour}
	if _, err := RandomSchedule(cluster, bad); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := RandomSchedule(topology.Cluster{Nodes: 1, Rails: 2},
		ScheduleConfig{Horizon: time.Hour, MTBF: time.Hour, MTTR: time.Minute}); err == nil {
		t.Error("bad cluster accepted")
	}
}

func TestDowntimeAccounting(t *testing.T) {
	cluster := topology.Dual(2)
	comp := cluster.NIC(0, 0)
	s := Schedule{
		{At: time.Hour, Component: comp, Up: false},
		{At: 2 * time.Hour, Component: comp, Up: true},
		{At: 4 * time.Hour, Component: comp, Up: false},
	}
	down := downtime(s, 5*time.Hour)
	if got := down[comp]; got != 2*time.Hour {
		t.Fatalf("downtime = %v, want 2h (1h repaired + 1h truncated)", got)
	}
}

func TestDowntimeRatioMatchesMTTR(t *testing.T) {
	cluster := topology.Dual(16)
	cfg := ScheduleConfig{
		Horizon: 2000 * time.Hour,
		MTBF:    50 * time.Hour,
		MTTR:    5 * time.Hour,
		Seed:    13,
	}
	sched, err := RandomSchedule(cluster, cfg)
	if err != nil {
		t.Fatal(err)
	}
	down := downtime(sched, cfg.Horizon)
	var total time.Duration
	for _, d := range down {
		total += d
	}
	// Expected unavailability ≈ MTTR/(MTBF+MTTR) ≈ 9.1%.
	frac := float64(total) / (float64(cfg.Horizon) * float64(cluster.Components()))
	want := float64(cfg.MTTR) / float64(cfg.MTBF+cfg.MTTR)
	if math.Abs(frac-want) > 0.03 {
		t.Fatalf("downtime fraction %v, want ≈ %v", frac, want)
	}
}

// downtime returns the total scheduled down-time per component over
// the horizon (useful for sanity-checking MTTR calibration).
func downtime(s Schedule, horizon time.Duration) map[topology.Component]time.Duration {
	downSince := make(map[topology.Component]time.Duration)
	total := make(map[topology.Component]time.Duration)
	for _, a := range s {
		if !a.Up {
			if _, down := downSince[a.Component]; !down {
				downSince[a.Component] = a.At
			}
		} else if since, down := downSince[a.Component]; down {
			total[a.Component] += a.At - since
			delete(downSince, a.Component)
		}
	}
	for comp, since := range downSince {
		total[comp] += horizon - since
	}
	return total
}
