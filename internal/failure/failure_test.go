package failure

import (
	"math"
	"testing"
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
