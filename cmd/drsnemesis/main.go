// Command drsnemesis fuzzes the live daemon stack with deterministic
// fault schedules: randomized campaigns of partitions (symmetric and
// asymmetric), process crashes with warm or cold restarts, NIC flaps
// and clock-skew windows run against a hermetic in-process cluster —
// the same runtime.BuildNode assembly cmd/drsd boots, over the
// in-memory transport and the simulator's deterministic clock. After
// every schedule heals, the post-heal invariants must hold: routes
// reconverge to direct, no stale incarnation survives a restart,
// membership is fresh, and the data plane delivers on every ordered
// pair.
//
// Everything replays from its seed. A failing schedule is
// automatically shrunk to a minimal failing schedule (deterministic
// delta debugging over its episodes), written as a JSON repro file,
// and reported with the exact command lines that reproduce it.
//
// Usage:
//
//	drsnemesis [-seed s] [-schedules n] [-nodes n] [-protocol p]
//	           [-episodes n] [-horizon d] [-settle d] [-probe d]
//	           [-repro file]
//	drsnemesis -replay file
//
// Exit status: 0 when every invariant held, 1 when a schedule (or the
// replayed file) violated one, 2 on usage or input errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"drsnet/internal/nemesis"
	"drsnet/internal/runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drsnemesis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "campaign seed; schedule i runs with seed+i")
	schedules := fs.Int("schedules", 20, "number of schedules to generate and run")
	nodes := fs.Int("nodes", 3, "cluster size")
	protocol := fs.String("protocol", runtime.ProtoDRS, "routing protocol under test")
	episodes := fs.Int("episodes", 4, "fault episodes per schedule")
	horizon := fs.Duration("horizon", 10*time.Second, "fault phase length (virtual time)")
	settle := fs.Duration("settle", 2*time.Second, "post-heal reconvergence window before invariants")
	probe := fs.Duration("probe", 100*time.Millisecond, "DRS probe interval")
	repro := fs.String("repro", "nemesis-repro.json", "where to write the shrunk failing schedule")
	replay := fs.String("replay", "", "replay a schedule JSON file instead of running a campaign")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "drsnemesis: %v\n", err)
		return 2
	}

	if *replay != "" {
		return runReplay(*replay, stdout, fail)
	}

	cfg := nemesis.Config{
		Nodes:         *nodes,
		Protocol:      *protocol,
		Episodes:      *episodes,
		Horizon:       *horizon,
		Settle:        *settle,
		ProbeInterval: *probe,
	}
	fmt.Fprintf(stdout, "# nemesis campaign: %d schedules from seed %d (%d nodes, %s, %d episodes, horizon %v, settle %v)\n",
		*schedules, *seed, *nodes, *protocol, *episodes, *horizon, *settle)
	for i := 0; i < *schedules; i++ {
		s := nemesis.Generate(*seed+uint64(i), cfg)
		out, err := nemesis.Run(s)
		if err != nil {
			return fail(err)
		}
		if !out.Failed() {
			fmt.Fprintf(stdout, "schedule seed=%d: ok (%d episodes; %d frames delivered, %d cut, %d dropped)\n",
				s.Seed, len(s.Episodes), out.Faults.Delivered, out.Faults.Partitioned, out.Faults.Dropped)
			continue
		}
		fmt.Fprintf(stdout, "schedule seed=%d: FAIL — %d invariant violations\n", s.Seed, len(out.Violations))
		shrunk, sout := nemesis.Shrink(s)
		fmt.Fprintf(stdout, "shrunk to %d of %d episodes, %d violations:\n",
			len(shrunk.Episodes), len(s.Episodes), len(sout.Violations))
		printOutcome(stdout, shrunk, sout)
		if err := writeSchedule(*repro, shrunk); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "repro: drsnemesis -replay %s\n", *repro)
		fmt.Fprintf(stdout, "  (or regenerate: drsnemesis -seed %d -schedules 1 -nodes %d -protocol %s -episodes %d -horizon %v -settle %v -probe %v)\n",
			s.Seed, *nodes, *protocol, *episodes, *horizon, *settle, *probe)
		return 1
	}
	fmt.Fprintf(stdout, "all %d schedules healed clean\n", *schedules)
	return 0
}

func runReplay(path string, stdout io.Writer, fail func(error) int) int {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	var s nemesis.Schedule
	if err := json.Unmarshal(buf, &s); err != nil {
		return fail(fmt.Errorf("%s: %v", path, err))
	}
	if err := s.Validate(); err != nil {
		return fail(fmt.Errorf("%s: %v", path, err))
	}
	out, err := nemesis.Run(s)
	if err != nil {
		return fail(fmt.Errorf("%s: %v", path, err))
	}
	fmt.Fprintf(stdout, "# replay %s: seed %d, %d nodes, %d episodes\n",
		path, s.Seed, s.Nodes, len(s.Episodes))
	printOutcome(stdout, s, out)
	if out.Failed() {
		fmt.Fprintf(stdout, "FAIL — %d invariant violations\n", len(out.Violations))
		return 1
	}
	fmt.Fprintln(stdout, "ok — every invariant held")
	return 0
}

func printOutcome(w io.Writer, s nemesis.Schedule, out *nemesis.Outcome) {
	for _, e := range s.Episodes {
		fmt.Fprintf(w, "  episode: %v\n", e)
	}
	for _, v := range out.Violations {
		fmt.Fprintf(w, "  violation: %v\n", v)
	}
}

func writeSchedule(path string, s nemesis.Schedule) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
