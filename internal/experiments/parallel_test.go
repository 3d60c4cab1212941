package experiments

import (
	"bytes"
	"testing"
	"time"

	"drsnet/internal/costmodel"
	"drsnet/internal/survival"
)

// renderFigure2 formats a Figure 2 sweep at the given worker count.
func renderFigure2(t *testing.T, workers int) string {
	t.Helper()
	res, err := Figure2Workers([]int{2, 3, 4}, 40, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFigure2WorkersByteIdentical is the satellite determinism
// regression: the formatted Figure 2 table must be byte-identical
// between Workers=1 and Workers=8 (and everything in between).
func TestFigure2WorkersByteIdentical(t *testing.T) {
	survival.ResetCaches()
	ref := renderFigure2(t, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := renderFigure2(t, workers); got != ref {
			t.Fatalf("workers=%d: Figure 2 table diverges from serial:\n--- serial ---\n%s--- workers=%d ---\n%s",
				workers, ref, workers, got)
		}
	}
}

// TestThresholdsWorkersByteIdentical covers the threshold solver the
// same way, including the paper's 18/32/45 values.
func TestThresholdsWorkersByteIdentical(t *testing.T) {
	render := func(workers int) string {
		rows, err := ThresholdsWorkers([]int{2, 3, 4}, 0.99, 64, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteThresholds(&buf, rows, 0.99); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != ref {
			t.Fatalf("workers=%d: threshold table diverges:\n%s\nvs\n%s", workers, ref, got)
		}
	}
	rows, err := ThresholdsWorkers([]int{2, 3, 4}, 0.99, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{18, 32, 45} {
		if !rows[i].Found || rows[i].N != want {
			t.Fatalf("threshold f=%d: got %+v, want N=%d", rows[i].F, rows[i], want)
		}
	}
}

// TestFigure1WorkersByteIdentical covers the cost-model sweep.
func TestFigure1WorkersByteIdentical(t *testing.T) {
	budgets := []float64{0.01, 0.05, 0.10}
	render := func(workers int) string {
		res, err := Figure1Workers(costmodel.Defaults(), budgets, 2, 50, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != ref {
			t.Fatalf("workers=%d: Figure 1 table diverges", workers)
		}
	}
}

// TestSurfaceWorkersByteIdentical covers the availability surface,
// pair and all-pairs variants.
func TestSurfaceWorkersByteIdentical(t *testing.T) {
	for _, allPairs := range []bool{false, true} {
		render := func(workers int) string {
			res, err := Surface(DefaultSurfaceQs(), DefaultSurfaceSizes(), allPairs, workers)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteSurface(&buf, res); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		ref := render(1)
		for _, workers := range []int{2, 8} {
			if got := render(workers); got != ref {
				t.Fatalf("allPairs=%v workers=%d: surface diverges", allPairs, workers)
			}
		}
	}
}

// coverageCampaign runs a small fault-coverage campaign at the given
// worker count and returns the formatted matrix.
func coverageCampaign(t *testing.T, workers int) string {
	t.Helper()
	cfg := DefaultCoverageConfig()
	cfg.Nodes = 4 // 10 components → 55 scenarios: fast but non-trivial
	cfg.Workers = workers
	res, err := FaultCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCoverage(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCoverageWorkersByteIdentical: the full campaign matrix — class
// rows, outage statistics and first-inconsistency line — must be
// byte-identical between serial and 8-way parallel runs.
func TestCoverageWorkersByteIdentical(t *testing.T) {
	ref := coverageCampaign(t, 1)
	got := coverageCampaign(t, 8)
	if got != ref {
		t.Fatalf("coverage matrix diverges between workers=1 and workers=8:\n--- serial ---\n%s--- parallel ---\n%s", ref, got)
	}
}

// TestCoverageRejectsNegativeWorkers guards the config validation.
func TestCoverageRejectsNegativeWorkers(t *testing.T) {
	cfg := DefaultCoverageConfig()
	cfg.Workers = -1
	cfg.Deadline = 4 * time.Second
	if _, err := FaultCoverage(cfg); err == nil {
		t.Fatal("negative Workers accepted")
	}
}
