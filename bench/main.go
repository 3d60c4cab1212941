// Command bench is drsnet's one benchmark: six named workloads, the
// end-to-end metrics a user of the simulators and the live daemon sees,
// a ladder of per-layer microbenchmarks and a traced run. It measures
// every layer from outside, by timing calls into exported functions.
//
//	go run ./bench [-seed N]                 all workloads x 3, traced pass, ladder
//	go run ./bench -workload W -seconds S -trace 0|1   one workload (BENCHMARK.json's command)
//	go run ./bench -layers                   the ladder alone
//	go run ./bench -compare a.json b.json    two result files, row by row
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	start := time.Now()
	goruntime.GOMAXPROCS(maxProcs())

	seed := flag.Uint64("seed", 1, "seed of every generated input")
	name := flag.String("workload", "", "run this workload alone and print one JSON result line")
	seconds := flag.Float64("seconds", 12, "with -workload: repeat the job until this much time has been measured")
	trace := flag.Int("trace", 0, "with -workload: 1 runs the traced pass and the ladder and reports the per-layer metrics")
	layers := flag.Bool("layers", false, "run the per-layer ladder alone")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	out := flag.String("o", filepath.Join(outDir, "results.json"), "where the full run writes its result file")
	child := flag.Bool("child", false, "internal: run one repetition and print its result")
	setupOnly := flag.Bool("setuponly", false, "internal: with -child, stop after set-up")
	flag.Parse()

	var err error
	switch {
	case *child:
		err = childMain(start, *name, *seed, *trace == 1, *setupOnly)
	case *compare:
		err = compareMain(flag.Args())
	case *layers:
		var rows map[string]float64
		if rows, err = runLadder(fullSizes); err == nil {
			printLayers(rows)
		}
	case *name != "":
		err = contractMain(*name, *seed, *seconds, *trace == 1)
	default:
		err = suiteMain(*seed, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// repsPerWorkload is how often the full run repeats each workload, and
// the least a single-workload run does.
const repsPerWorkload = 3

// A single-workload run takes the median of this many set-up times.
const (
	minSetupSamples = 5
	maxSetupSamples = 21
)

// results is the file a full run writes and -compare reads.
type results struct {
	Env       environment        `json:"environment"`
	Seed      uint64             `json:"seed"`
	Workloads []workloadResult   `json:"workloads"`
	Ladder    map[string]float64 `json:"ladder"`
}

// suiteMain is the full run: every workload three times, interleaved so
// that drift on the host spreads over all of them, then one traced pass
// each, then the ladder.
func suiteMain(seed uint64, outPath string) error {
	env := readEnvironment()
	fmt.Printf("host %s nproc %d GOMAXPROCS %d %s commit %s seed %d\n",
		env.Host, env.NumCPU, env.GoMaxProcs, env.GoVersion, env.Commit, seed)

	reps := make(map[string][]*sample)
	for rep := 0; rep < repsPerWorkload; rep++ {
		for _, w := range workloads {
			s, err := runChild(w, seed, false, false)
			if err != nil {
				return err
			}
			reps[w.name] = append(reps[w.name], s)
		}
	}
	res := results{Env: env, Seed: seed}
	correct := true
	for _, w := range workloads {
		wr := summarise(w, reps[w.name], nil)
		traced, err := runChild(w, seed, true, false)
		if err != nil {
			return err
		}
		addTrace(&wr, traced)
		printWorkload(wr)
		correct = correct && wr.Correct && wr.Failed == 0
		res.Workloads = append(res.Workloads, wr)
	}
	ladder, err := runLadder(fullSizes)
	if err != nil {
		return err
	}
	res.Ladder = ladder
	printLayers(ladder)

	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", outPath)
	if !correct {
		return fmt.Errorf("an output check failed or an operation did: see correct and failed above")
	}
	return nil
}

// addTrace folds a traced repetition into a workload's result: its
// per-layer values, and how much slower than the untraced median it
// ran. The traced digest must be the untraced one.
func addTrace(wr *workloadResult, traced *sample) {
	wr.Layer = traced.Layer
	untraced := wr.EndToEnd["work_per_s"].Median
	wr.Layer["run.trace_overhead"] = untraced/(traced.Work/traced.WallS) - 1
	if traced.Digest != wr.Digest {
		wr.Correct = false
	}
}

// contractMain measures one workload and prints, as the last line of
// standard output, the JSON object BENCHMARK.json's driver reads: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced.
func contractMain(name string, seed uint64, seconds float64, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var wr workloadResult
	var metrics map[string]metricValue
	var err error
	if traced {
		wr, metrics, err = traceWorkload(w, seed)
	} else {
		wr, metrics, err = timeWorkload(w, seed, seconds)
	}
	if err != nil {
		return err
	}
	printWorkload(wr)
	data, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !wr.Correct {
		return fmt.Errorf("%s: repetitions disagree on the digest or the failure count", w.name)
	}
	if wr.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, wr.Failed, wr.Attempted)
	}
	return nil
}

// timeWorkload repeats w's fixed-size job, each time in a fresh process,
// until the timed sections add up to seconds, and three times at least:
// a median of two is a mean.
func timeWorkload(w workload, seed uint64, seconds float64) (workloadResult, map[string]metricValue, error) {
	var reps []*sample
	for measured := 0.0; len(reps) < repsPerWorkload || measured < seconds; {
		s, err := runChild(w, seed, false, false)
		if err != nil {
			return workloadResult{}, nil, err
		}
		reps = append(reps, s)
		measured += s.WallS
	}
	// Set up again, without running, until the median rests on enough
	// samples: five at least, and more while a second of them is not
	// spent, because a set-up of milliseconds varies by half.
	var setups []float64
	for n, spent := len(reps), 0.0; n < minSetupSamples || (n < maxSetupSamples && spent < 1); n++ {
		s, err := runChild(w, seed, false, true)
		if err != nil {
			return workloadResult{}, nil, err
		}
		setups = append(setups, s.SetupS)
		spent += s.SetupS
	}
	wr := summarise(w, reps, setups)
	metrics := make(map[string]metricValue)
	for _, m := range endToEnd {
		metrics[m.name] = metricValue{wr.EndToEnd[m.name].Median, m.unit}
	}
	return wr, metrics, nil
}

// traceWorkload runs w once untraced, as the base of the tracing
// overhead, and once traced, then the ladder: the driver reads every
// per-layer metric from one run.
func traceWorkload(w workload, seed uint64) (workloadResult, map[string]metricValue, error) {
	untraced, err := runChild(w, seed, false, false)
	if err != nil {
		return workloadResult{}, nil, err
	}
	traced, err := runChild(w, seed, true, false)
	if err != nil {
		return workloadResult{}, nil, err
	}
	wr := summarise(w, []*sample{untraced}, nil)
	addTrace(&wr, traced)
	ladder, err := runLadder(fullSizes)
	if err != nil {
		return workloadResult{}, nil, err
	}
	for name, v := range ladder {
		wr.Layer[name] = v
	}
	metrics := make(map[string]metricValue)
	for _, m := range perLayer {
		// A layer the workload does not cross reads 0. A CPU share
		// without the pprof tool is unknown: left out, not zeroed.
		v, ok := wr.Layer[m.name]
		if !ok && strings.HasPrefix(m.name, cpuSharePrefix) {
			continue
		}
		metrics[m.name] = metricValue{v, m.unit}
	}
	return wr, metrics, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printWorkload(wr workloadResult) {
	fmt.Printf("\nworkload %s  work unit %s  attempted %d  failed %d  correct %v\n  digest %s\n",
		wr.Name, wr.WorkUnit, wr.Attempted, wr.Failed, wr.Correct, wr.Digest)
	for _, m := range endToEnd {
		st := wr.EndToEnd[m.name]
		fmt.Printf("  %-12s %14.6g %-4s min %.6g max %.6g n=%d\n", m.name, st.Median, st.Unit, st.Min, st.Max, len(st.Samples))
	}
	printSorted("  info  ", wr.Info, nil)
	printSorted("  layer ", wr.Layer, layerUnits())
}

func printLayers(rows map[string]float64) {
	fmt.Println("\nper-layer ladder (least of the rounds; _allocs are counts per call)")
	printSorted("  layer ", rows, layerUnits())
}

func layerUnits() map[string]string {
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	return units
}

func printSorted(prefix string, values map[string]float64, units map[string]string) {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s%-36s %14.6g %s\n", prefix, name, values[name], units[name])
	}
}
