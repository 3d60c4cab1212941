// Command drsim runs the packet-level recovery experiment: an
// application flow crosses an injected component failure under every
// registered routing protocol — the DRS, a RIP-like reactive protocol,
// an OSPF-like link-state protocol, and static routing — on identical
// clusters, quantifying the paper's claim that proactive routing fixes
// network problems before applications notice.
//
// Usage:
//
//	drsim [-nodes n] [-scenario nic|backplane|crossrail] [-probe d]
//	      [-miss k] [-advertise d] [-timeout d] [-traffic d]
//	      [-failat d] [-duration d]
//	      [-protocol all|drs|linkstate|reactive|static]
//	      [-overhead]
//
// The -protocol choices come from the runtime protocol registry; a
// protocol registered by a plugin is accepted here without any change
// to this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"drsnet/internal/experiments"
	"drsnet/internal/runtime"
	"drsnet/internal/scenario"
	"drsnet/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	registered := strings.Join(runtime.Protocols(), ", ")

	fs := flag.NewFlagSet("drsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 10, "cluster size (deployed clusters ran 8-12)")
	scenarioName := fs.String("scenario", "nic", "failure scenario: nic, backplane, crossrail")
	probe := fs.Duration("probe", time.Second, "DRS probe interval")
	miss := fs.Int("miss", 2, "DRS miss threshold")
	advertise := fs.Duration("advertise", time.Second, "reactive advertisement interval")
	timeout := fs.Duration("timeout", 6*time.Second, "reactive route timeout")
	traffic := fs.Duration("traffic", 100*time.Millisecond, "application message interval")
	failAt := fs.Duration("failat", 10*time.Second, "failure injection time")
	duration := fs.Duration("duration", 40*time.Second, "total simulated time")
	protocol := fs.String("protocol", "all", "protocol: all, or one of: "+registered)
	overhead := fs.Bool("overhead", false, "also measure probe bandwidth overhead vs the cost model")
	flowLevel := fs.Bool("flow", false, "also run the connection-level experiment (reliable stream over each protocol)")
	traceDump := fs.Bool("trace", false, "dump the protocol event trace of the (single-protocol) run")
	configPath := fs.String("config", "", "run a declarative JSON scenario file instead of the canned experiment")
	coverage := fs.Bool("coverage", false, "run the exhaustive fault-coverage campaign (every 1- and 2-fault scenario)")
	switched := fs.Bool("switched", false, "use a switched fabric instead of shared hubs for -overhead")
	workers := fs.Int("workers", 0, "coverage campaign worker goroutines (0 = all CPUs); output is identical for every count")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "drsim: %v\n", err)
		return 1
	}

	if *coverage {
		cfg := experiments.DefaultCoverageConfig()
		cfg.Nodes = *nodes
		cfg.ProbeInterval = *probe
		cfg.MissThreshold = *miss
		cfg.Seed = *seed
		cfg.Workers = *workers
		timed := false
		fs.Visit(func(f *flag.Flag) {
			timed = timed || f.Name == "failat" || f.Name == "duration" || f.Name == "traffic"
		})
		if timed {
			return fail(fmt.Errorf("-failat/-duration/-traffic do not apply to -coverage"))
		}
		res, err := experiments.FaultCoverage(cfg)
		if err != nil {
			return fail(err)
		}
		if err := experiments.WriteCoverage(stdout, res); err != nil {
			return fail(err)
		}
		return 0
	}

	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return fail(err)
		}
		sc, err := scenario.Load(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		rep, err := sc.Run()
		if err != nil {
			return fail(err)
		}
		if err := rep.Write(stdout); err != nil {
			return fail(err)
		}
		if *traceDump {
			fmt.Fprintln(stdout, "\n# protocol event trace (state changes)")
			for _, e := range rep.Trace.Events() {
				if interestingKinds[e.Kind] {
					fmt.Fprintln(stdout, e)
				}
			}
		}
		return 0
	}

	base := experiments.RecoveryConfig{
		Protocol:          runtime.ProtoDRS,
		Nodes:             *nodes,
		Scenario:          experiments.Scenario(*scenarioName),
		TrafficInterval:   *traffic,
		FailAt:            *failAt,
		Duration:          *duration,
		ProbeInterval:     *probe,
		MissThreshold:     *miss,
		AdvertiseInterval: *advertise,
		RouteTimeout:      *timeout,
		Seed:              *seed,
	}

	var log *trace.Log
	if *traceDump {
		if *protocol == "all" {
			fmt.Fprintf(stderr, "drsim: -trace requires a single -protocol (one of: %s)\n", registered)
			return 1
		}
		log = trace.NewLog(0)
		base.TraceSink = log
	}

	var results []*experiments.RecoveryResult
	if *protocol == "all" {
		var err error
		results, err = experiments.CompareRecovery(base)
		if err != nil {
			return fail(err)
		}
	} else {
		base.Protocol = *protocol
		res, err := experiments.Recovery(base)
		if err != nil {
			return fail(err)
		}
		results = append(results, res)
	}

	if log != nil {
		fmt.Fprintln(stdout, "# protocol event trace (state changes; per-datagram events omitted)")
		for _, e := range log.Events() {
			if interestingKinds[e.Kind] {
				fmt.Fprintln(stdout, e)
			}
		}
		fmt.Fprintln(stdout)
	}
	if err := experiments.WriteRecovery(stdout, results); err != nil {
		return fail(err)
	}

	if *flowLevel {
		fcfg := experiments.DefaultFlowRecoveryConfig(runtime.ProtoDRS, experiments.Scenario(*scenarioName))
		fcfg.Nodes = *nodes
		fcfg.ProbeInterval = *probe
		fcfg.MissThreshold = *miss
		fcfg.AdvertiseInterval = *advertise
		fcfg.RouteTimeout = *timeout
		fcfg.Seed = *seed
		flowResults, err := experiments.CompareFlowRecovery(fcfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout)
		if err := experiments.WriteFlowRecovery(stdout, flowResults); err != nil {
			return fail(err)
		}
	}

	if *overhead {
		measured, predicted, err := experiments.ProbeOverhead(*nodes, *probe, 10*(*probe), *switched)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\n# probe bandwidth overhead on one rail (%d nodes, %v interval)\n", *nodes, *probe)
		fmt.Fprintf(stdout, "measured %.4f%%  cost-model prediction %.4f%%\n", 100*measured, 100*predicted)
	}
	return 0
}

// interestingKinds selects the state-change events worth dumping with
// -trace; per-datagram events are far too chatty.
var interestingKinds = map[trace.Kind]bool{
	trace.KindLinkDown:       true,
	trace.KindLinkUp:         true,
	trace.KindRouteInstalled: true,
	trace.KindRouteLost:      true,
	trace.KindQuerySent:      true,
	trace.KindOfferSent:      true,
}
