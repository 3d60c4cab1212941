package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// outDir receives the traced run's spans, profile and shares, and the
// suite's result file. It is relative to the repository root, where the
// benchmark is run from.
const outDir = "bench/out"

// runCtx is what one execution of a workload is given.
type runCtx struct {
	start time.Time // when the process (or the in-process run) began
	seed  uint64
	sz    sizes
	tr    *tracer // nil unless the run is traced
	// setupOnly stops the run before its first timed call; it exists so
	// a measurement can set up several times and report the median.
	setupOnly bool
}

// ready ends set-up: it starts the run's result, with the set-up time
// and the units of work the timed section will do.
func (rc *runCtx) ready(work float64) *runResult {
	now := time.Now()
	return &runResult{SetupS: now.Sub(rc.start).Seconds(), ReadyUnixNano: now.UnixNano(), Work: work}
}

// maxProcs is the GOMAXPROCS every benchmark process sets: two when the
// host has them, so the collector has a core, and never more, so that
// figures from larger hosts stay comparable.
func maxProcs() int {
	if goruntime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// execute runs one workload in this process; rc.tr, when set, traces it.
func execute(w workload, rc *runCtx) (*runResult, error) {
	res, err := w.run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if rc.tr != nil && !rc.setupOnly {
		if err := rc.tr.finish(res); err != nil {
			return nil, fmt.Errorf("%s: writing the trace: %w", w.name, err)
		}
	}
	return res, nil
}

// childMain is the re-executed process: one run of one workload, its
// result printed as one line of JSON.
func childMain(start time.Time, name string, seed uint64, traced, setupOnly bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	rc := &runCtx{start: start, seed: seed, sz: fullSizes, setupOnly: setupOnly}
	if traced {
		rc.tr = newTracer(w.name, outDir, true, start)
	}
	res, err := execute(w, rc)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// sample is one child's result with the figures only its parent can
// read.
type sample struct {
	*runResult
	PeakRSSMB float64
}

// runChild runs one (workload, repetition) in a fresh process, so heap
// state and peak RSS do not leak from one run into the next.
func runChild(w workload, seed uint64, traced, setupOnly bool) (*sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if setupOnly {
		args = append(args, "-setuponly")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: child: %w", w.name, err)
	}
	s := &sample{runResult: new(runResult)}
	if err := json.Unmarshal(stdout.Bytes(), s.runResult); err != nil {
		return nil, fmt.Errorf("%s: child output: %w", w.name, err)
	}
	// Set-up counts from the spawn, so it includes what a user waits
	// for before main runs: the exec and the Go runtime's start.
	s.SetupS = float64(s.ReadyUnixNano-spawned.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

// stat summarises the repetitions of one metric on one workload.
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func newStat(unit string, samples []float64) stat {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return stat{Unit: unit, Median: median(sorted), Min: sorted[0], Max: sorted[len(sorted)-1], Samples: samples}
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// metric declares one end-to-end metric: what a user of the system
// sees, on every workload, and by what share of the parent's median it
// may get worse before a change is rejected.
type metric struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
	value  func(s *sample) float64
}

var endToEnd = []metric{
	{"setup_s", "s", false, 0.25, func(s *sample) float64 { return s.SetupS }},
	{"work_per_s", "1/s", true, 0.25, func(s *sample) float64 { return s.Work / s.WallS }},
	{"peak_rss_mb", "MB", false, 0.10, func(s *sample) float64 { return s.PeakRSSMB }},
	{"mallocs_k", "k", false, 0.01, func(s *sample) float64 { return float64(s.Mallocs) / 1e3 }},
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name      string `json:"name"`
	WorkUnit  string `json:"work_unit"`
	Digest    string `json:"digest"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Correct is false when a repetition's digest or failure count
	// differs from the first one's.
	Correct  bool               `json:"correct"`
	EndToEnd map[string]stat    `json:"end_to_end"`
	Layer    map[string]float64 `json:"layer,omitempty"`
	Info     map[string]float64 `json:"info,omitempty"`
}

// summarise folds a workload's timed repetitions, and the set-up times
// of any set-up-only runs, into its result.
func summarise(w workload, reps []*sample, extraSetups []float64) workloadResult {
	first := reps[0]
	out := workloadResult{
		Name: w.name, WorkUnit: w.unit, Digest: first.Digest,
		Attempted: first.Attempted, Failed: first.Failed, Correct: true,
		EndToEnd: make(map[string]stat), Info: first.Info,
	}
	for _, s := range reps[1:] {
		if s.Digest != first.Digest || s.Attempted != first.Attempted || s.Failed != first.Failed {
			out.Correct = false
		}
	}
	for _, m := range endToEnd {
		var samples []float64
		for _, s := range reps {
			samples = append(samples, m.value(s))
		}
		if m.name == "setup_s" {
			samples = append(samples, extraSetups...)
		}
		out.EndToEnd[m.name] = newStat(m.unit, samples)
	}
	return out
}

// environment is recorded with every result file.
type environment struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	host, _ := os.Hostname() // an unnamed host is reported as ""
	env := environment{
		Host: host, NumCPU: goruntime.NumCPU(), GoMaxProcs: goruntime.GOMAXPROCS(0),
		GoVersion: goruntime.Version(), Commit: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = string(bytes.TrimSpace(out))
	}
	return env
}
