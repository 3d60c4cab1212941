package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// spanRecord is one traced interval around an exported call.
type spanRecord struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 at the root
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // since the run began
	EndS   float64 `json:"end_s"`
	// Counts are the layer counters read when the span ended.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps a traced run's spans in memory and takes the CPU profile
// of its timed section. A nil *tracer records nothing, which is how the
// timed repetitions run.
type tracer struct {
	runID   string
	dir     string // where spans, profile and shares are written
	profile bool
	t0      time.Time
	spans   []*spanRecord
	open    []int // stack of open span ids
	prof    *os.File
}

func newTracer(runID, dir string, profile bool, start time.Time) *tracer {
	return &tracer{runID: runID, dir: dir, profile: profile, t0: start}
}

// span is the handle begin returns; all its methods accept nil.
type span struct {
	tr  *tracer
	rec *spanRecord
}

func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	rec := &spanRecord{ID: len(t.spans), Parent: -1, Name: name, StartS: time.Since(t.t0).Seconds()}
	if n := len(t.open); n > 0 {
		rec.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, rec)
	t.open = append(t.open, rec.ID)
	return &span{tr: t, rec: rec}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.EndS = time.Since(s.tr.t0).Seconds()
	s.tr.open = s.tr.open[:len(s.tr.open)-1]
}

// count attaches a counter value to the span.
func (s *span) count(name string, v float64) {
	if s == nil {
		return
	}
	if s.rec.Counts == nil {
		s.rec.Counts = make(map[string]float64)
	}
	s.rec.Counts[name] = v
}

// seconds is the duration of an ended span.
func (s *span) seconds() float64 {
	if s == nil {
		return 0
	}
	return s.rec.EndS - s.rec.StartS
}

func (t *tracer) startProfile() {
	if t == nil || !t.profile {
		return
	}
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench: no CPU profile:", err)
		return
	}
	f, err := os.Create(t.profilePath())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: no CPU profile:", err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "bench: no CPU profile:", err)
		f.Close()
		return
	}
	t.prof = f
}

func (t *tracer) stopProfile() {
	if t == nil || t.prof == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := t.prof.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: closing CPU profile:", err)
	}
}

func (t *tracer) profilePath() string { return filepath.Join(t.dir, t.runID+".cpu.pprof") }

// spanTotal sums the durations of every span called name.
func (t *tracer) spanTotal(name string) float64 {
	var total float64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.EndS - s.StartS
		}
	}
	return total
}

// finish writes the spans out, folds the CPU profile into per-package
// shares, and adds the span and share figures to res.
func (t *tracer) finish(res *runResult) error {
	for _, name := range []string{"build", "start", "advance", "finish"} {
		res.layer("runtime."+name+"_s", t.spanTotal(name))
	}
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Run   string        `json:"run"`
		Spans []*spanRecord `json:"spans"`
	}{t.runID, t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(t.dir, t.runID+".spans.json"), data, 0o644); err != nil {
		return err
	}
	if t.prof == nil {
		return nil
	}
	shares, err := cpuShares(t.profilePath())
	if err != nil {
		// Without the pprof tool the shares are left out, not zeroed.
		fmt.Fprintln(os.Stderr, "bench: cpu_share omitted:", err)
		return nil
	}
	for pkg, share := range shares {
		res.layer(cpuSharePrefix+pkg, share)
	}
	data, err = json.MarshalIndent(shares, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.dir, t.runID+".cpu_share.json"), data, 0o644)
}

// cpuSharePrefix names the per-layer metrics the CPU profile folds into.
const cpuSharePrefix = "run.cpu_share."

// sharePackages are the layers a CPU profile is folded into; the Go
// memory manager is "gc" and everything else is "other".
var sharePackages = []string{"simtime", "netsim", "core", "linkmon", "wire", "icmp", "metrics", "transport", "clock"}

// cpuShares folds a CPU profile's flat time by package. The standard
// library cannot read a profile, so it parses `go tool pprof -top`.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return foldTop(out)
}

// foldTop parses the text of `pprof -top`: after the header line that
// starts with "flat", each row is
//
//	flat flat% sum% cum cum% function
func foldTop(top []byte) (map[string]float64, error) {
	flat := make(map[string]float64)
	var total float64
	inRows := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top: flat time %q: %v", fields[0], err)
		}
		flat[sharePackage(strings.Join(fields[5:], " "))] += d.Seconds()
		total += d.Seconds()
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top: the profile holds no samples")
	}
	shares := map[string]float64{"gc": 0, "other": 0}
	for _, pkg := range sharePackages {
		shares[pkg] = 0
	}
	for pkg, s := range flat {
		shares[pkg] = s / total
	}
	return shares, nil
}

// sharePackage maps a profiled function to its cpu_share bucket.
func sharePackage(fn string) string {
	// The package path ends at the first dot after the last slash that
	// precedes any receiver or type-argument list.
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	pkg := head[strings.LastIndex(head, "/")+1:]
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	if strings.HasPrefix(fn, "drsnet/internal/") {
		for _, p := range sharePackages {
			if pkg == p {
				return p
			}
		}
		return "other"
	}
	if pkg == "runtime" {
		name := strings.ToLower(strings.TrimPrefix(fn, "runtime."))
		for _, mark := range []string{"gc", "scan", "mark", "sweep", "grey", "malloc", "wbbuf", "span", "mcache", "mcentral", "mheap"} {
			if strings.Contains(name, mark) {
				return "gc"
			}
		}
	}
	return "other"
}
