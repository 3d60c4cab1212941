package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// testSizes runs every workload at about 1/20 of its benchmark size.
var testSizes = sizes{
	dualNodes:    16,
	dualHorizon:  12 * time.Second,
	fatK:         4,
	fatHorizon:   3 * time.Second,
	covNodes:     4,
	covSeeds:     1,
	nemSchedules: 20,
	mcK:          8,
	mcIterations: 4096,
	liveFrames:   2000,
	liveWarmup:   200 * time.Millisecond,
	ladderDiv:    50,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestNamesAndCounts(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("name %q is not made of at most 64 letters, digits, _, . and -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.name)
		}
	}
	for _, m := range endToEnd {
		check(m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, m := range perLayer {
		check(m.name)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(endToEnd), len(perLayer))
	}
}

// manifestMetric is a metric as BENCHMARK.json declares it.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestManifest holds BENCHMARK.json to the tables the program measures
// by.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(manifest.Command, " "); got != "go run ./bench" {
		t.Errorf("command %q, want go run ./bench", got)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", manifest.Paths)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d measured", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := manifest.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d declared as %+v, measured as %s: %s", i, d, w.name, w.why)
		}
	}
	if len(manifest.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d measured", len(manifest.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		want := manifestMetric{m.name, m.unit, better(m.higher), m.bound}
		if manifest.EndToEnd[i] != want {
			t.Errorf("end-to-end metric %d declared as %+v, measured as %+v", i, manifest.EndToEnd[i], want)
		}
	}
	if len(manifest.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d measured", len(manifest.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		want := manifestMetric{Name: m.name, Unit: m.unit, Better: better(m.higher)}
		if manifest.PerLayer[i] != want {
			t.Errorf("per-layer metric %d declared as %+v, measured as %+v", i, manifest.PerLayer[i], want)
		}
	}
}

// runSmall executes w in this process at the test's size.
func runSmall(t *testing.T, w workload, tr *tracer) *sample {
	t.Helper()
	res, err := execute(w, &runCtx{start: time.Now(), seed: 1, sz: testSizes, tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	return &sample{runResult: res, PeakRSSMB: 1}
}

// TestWorkloadsSmall runs every workload twice untraced and once traced,
// and the ladder, all at the test's size. It checks that the outputs
// verify and repeat, that the metrics emitted are the metrics declared,
// and that a result file compared with itself is ok on every row.
func TestWorkloadsSmall(t *testing.T) {
	dir := t.TempDir()
	res := &results{Seed: 1}
	emitted := make(map[string]bool)
	for _, w := range workloads {
		reps := []*sample{runSmall(t, w, nil), runSmall(t, w, nil)}
		wr := summarise(w, reps, nil)
		// No CPU profile: a run this short holds no samples to fold.
		addTrace(&wr, runSmall(t, w, newTracer(w.name, dir, false, time.Now())))
		if !wr.Correct {
			t.Errorf("%s: digests %s, %s and the traced run's differ", w.name, reps[0].Digest, reps[1].Digest)
		}
		if wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: %d operations failed of %d", w.name, wr.Failed, wr.Attempted)
		}
		for _, m := range endToEnd {
			if st := wr.EndToEnd[m.name]; !(st.Median > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, st.Median)
			}
		}
		for name := range wr.Layer {
			emitted[name] = true
		}
		if _, err := os.Stat(dir + "/" + w.name + ".spans.json"); err != nil {
			t.Errorf("%s: the traced run wrote no spans: %v", w.name, err)
		}
		// Runs this short spread wider than any bound, so the file that
		// is compared holds one repetition of each.
		res.Workloads = append(res.Workloads, summarise(w, reps[:1], nil))
	}
	ladder, err := runLadder(testSizes)
	if err != nil {
		t.Fatal(err)
	}
	for name := range ladder {
		emitted[name] = true
	}
	for _, m := range perLayer {
		if !emitted[m.name] && !strings.HasPrefix(m.name, cpuSharePrefix) {
			t.Errorf("per-layer metric %s is declared but never emitted", m.name)
		}
		delete(emitted, m.name)
	}
	for name := range emitted {
		t.Errorf("per-layer metric %s is emitted but not declared", name)
	}

	var table bytes.Buffer
	if bad := compareResults(&table, res, res); bad != 0 {
		t.Errorf("a result compared with itself has %d bad rows:\n%s", bad, table.String())
	}
	rows := strings.Count(table.String(), "  ok\n")
	if want := len(workloads) * len(endToEnd); rows != want {
		t.Errorf("%d rows are ok, want all %d:\n%s", rows, want, table.String())
	}
}

func TestVerdict(t *testing.T) {
	steady := func(median float64) stat { return stat{Median: median, Min: median * 0.99, Max: median * 1.01} }
	wide := stat{Median: 100, Min: 80, Max: 120}
	lower := metric{name: "lower", bound: 0.10}
	higher := metric{name: "higher", bound: 0.10, higher: true}
	for _, tc := range []struct {
		m    metric
		a, b stat
		want string
	}{
		{lower, steady(100), steady(105), "ok"},
		{lower, steady(100), steady(111), "worse"},
		{lower, steady(100), steady(50), "ok"},
		{higher, steady(100), steady(95), "ok"},
		{higher, steady(100), steady(89), "worse"},
		{higher, steady(100), steady(200), "ok"},
		{lower, wide, steady(105), "unresolved"},
		{higher, steady(100), wide, "unresolved"},
		{lower, wide, steady(120), "worse"},
	} {
		if _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s is better, %v against %v: verdict %s, want %s", tc.m.name, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}

func TestSeedReachesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := execute(w, &runCtx{start: time.Now(), seed: 1, sz: testSizes})
		if err != nil {
			t.Fatal(err)
		}
		b, err := execute(w, &runCtx{start: time.Now(), seed: 2, sz: testSizes})
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest == b.Digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", w.name, a.Digest)
		}
	}
}

func TestFoldTop(t *testing.T) {
	top := `File: bench
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      600ms 60.00%  drsnet/internal/simtime.(*Scheduler).pop
     200ms 20.00% 60.00%      200ms 20.00%  drsnet/internal/routing/wire.Envelope (inline)
     100ms 10.00% 70.00%      100ms 10.00%  runtime.scanobject
     100ms 10.00% 80.00%      100ms 10.00%  runtime.mapaccess1_faststr
     100ms 10.00% 90.00%      100ms 10.00%  drsnet/internal/runtime.(*Cluster).RunUntil
     100ms 10.00%   100%      100ms 10.00%  drsnet/internal/parallel.Map[go.shape.int]
         0     0%   100%      900ms 90.00%  main.main
`
	shares, err := foldTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"simtime": 0.4, "wire": 0.2, "gc": 0.1, "other": 0.3, "netsim": 0}
	var sum float64
	for _, share := range shares {
		sum += share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	for pkg, share := range want {
		if got := shares[pkg]; got < share-1e-9 || got > share+1e-9 {
			t.Errorf("share of %s = %v, want %v (all: %v)", pkg, got, share, shares)
		}
	}
	if len(shares) != len(sharePackages)+2 {
		t.Errorf("%d shares, want one per package plus gc and other: %v", len(shares), shares)
	}
}
