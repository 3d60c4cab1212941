// Command drsavail explores cluster availability — the time-based
// extension of the paper's survivability model. It prints the IID
// availability surface (per-component unavailability q × cluster
// size), the effective availability including the DRS detection
// window, and optionally a packet-level measurement of the same
// regime.
//
// Usage:
//
//	drsavail [-nodes n] [-mtbf d] [-mttr d] [-probe d] [-miss k]
//	         [-workers w] [-allpairs] [-measure] [-horizon d]
//	         [-topology desc] [-mc iterations] [-seed s]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"drsnet/internal/availability"
	"drsnet/internal/experiments"
	"drsnet/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("drsavail", flag.ContinueOnError)
	flags.SetOutput(stderr)
	nodes := flags.Int("nodes", 10, "cluster size")
	mtbf := flags.Duration("mtbf", 1000*time.Hour, "per-component mean time between failures")
	mttr := flags.Duration("mttr", 4*time.Hour, "per-component mean time to repair")
	probe := flags.Duration("probe", time.Second, "DRS probe interval")
	miss := flags.Int("miss", 2, "DRS miss threshold")
	allPairs := flags.Bool("allpairs", false, "also print full-cluster (all-pairs) availability")
	measure := flags.Bool("measure", false, "run the packet-level measurement alongside the model")
	horizon := flags.Duration("horizon", 2*time.Hour, "measurement horizon (with -measure)")
	workers := flags.Int("workers", 0, "surface worker goroutines (0 = all CPUs); output is identical for every count")
	topo := flags.String("topology", "", `switched fabric descriptor (e.g. "fatTree:k=8", "bcube:n=4,k=1"); Monte Carlo-estimates fabric availability instead of the dual-rail closed form`)
	mc := flags.Int64("mc", 100000, "Monte Carlo iterations for the fabric structural term (with -topology)")
	seed := flags.Uint64("seed", 1, "Monte Carlo seed (with -topology)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "drsavail: %v\n", err)
		return 1
	}

	if *topo != "" {
		if err := fabricMode(stdout, *topo, *mtbf, *mttr, *probe, *miss, *mc, *seed, *workers); err != nil {
			return fail(err)
		}
		return 0
	}

	q, err := availability.SteadyStateQ(*mtbf, *mttr)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "# per-component steady state: MTBF %v, MTTR %v → q = %.6f\n\n", *mtbf, *mttr, q)

	// Availability surface over q and cluster size.
	fmt.Fprintf(stdout, "# pair availability under IID component failures (Equation 1 mixture)\n")
	surface, err := experiments.Surface(experiments.DefaultSurfaceQs(), experiments.DefaultSurfaceSizes(), false, *workers)
	if err != nil {
		return fail(err)
	}
	if err := experiments.WriteSurface(stdout, surface); err != nil {
		return fail(err)
	}

	if *allPairs {
		fmt.Fprintf(stdout, "\n# full-cluster (all-pairs) availability\n")
		surface, err := experiments.Surface(experiments.DefaultSurfaceQs(), experiments.DefaultSurfaceSizes(), true, *workers)
		if err != nil {
			return fail(err)
		}
		if err := experiments.WriteSurface(stdout, surface); err != nil {
			return fail(err)
		}
	}

	res, err := availability.Effective(availability.Params{
		Nodes:        *nodes,
		MTBF:         *mtbf,
		MTTR:         *mttr,
		RepairWindow: time.Duration(float64(*miss)+0.5) * *probe,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\n# effective pair availability at N=%d (probe %v, miss %d)\n", *nodes, *probe, *miss)
	fmt.Fprintf(stdout, "structural: %.6f   detection penalty: %.6f   effective: %.6f (%d nines, %v downtime/yr)\n",
		res.Structural, res.DetectionPenalty, res.Effective,
		availability.Nines(res.Effective),
		availability.DowntimePerYear(1-res.Effective).Round(time.Minute))

	if *measure {
		cfg := experiments.DefaultAvailabilityConfig()
		cfg.Nodes = *nodes
		cfg.ProbeInterval = *probe
		cfg.MissThreshold = *miss
		cfg.Horizon = *horizon
		// Scale failure pressure so a short horizon still sees churn.
		cfg.MTBF = 20 * time.Minute
		cfg.MTTR = time.Minute
		fmt.Fprintf(stdout, "\n")
		mres, err := experiments.MeasureAvailability(cfg)
		if err != nil {
			return fail(err)
		}
		if err := experiments.WriteAvailability(stdout, mres); err != nil {
			return fail(err)
		}
	}
	return 0
}

// fabricMode prints the effective availability of a DRS deployment on
// a switched fabric: a Monte Carlo structural term plus the detection
// penalty over the fabric's active-path component count.
func fabricMode(w io.Writer, desc string, mtbf, mttr, probe time.Duration, miss int, mc int64, seed uint64, workers int) error {
	fab, err := topology.Parse(desc)
	if err != nil {
		return err
	}
	res, err := availability.EffectiveFabric(availability.FabricParams{
		Fabric:       fab,
		MTBF:         mtbf,
		MTTR:         mttr,
		RepairWindow: time.Duration(float64(miss)+0.5) * probe,
		Iterations:   mc,
		Seed:         seed,
		Workers:      workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s: %d hosts × %d ports, %d switches, %d trunks (%d components)\n",
		fab.Kind, fab.Hosts(), fab.Ports(), fab.Switches(), fab.Trunks(), fab.Components())
	fmt.Fprintf(w, "# per-component steady state: MTBF %v, MTTR %v → q = %.6f\n", mtbf, mttr, res.Q)
	fmt.Fprintf(w, "# monitored pair: hosts 0 and %d (%d active-path components)\n\n",
		fab.Hosts()-1, res.PathComponents)
	fmt.Fprintf(w, "structural: %.6f ±%.6f (Monte Carlo, %d iterations)\n",
		res.Structural, res.CI95, mc)
	fmt.Fprintf(w, "detection penalty: %.6f   effective: %.6f (%d nines, %v downtime/yr)\n",
		res.DetectionPenalty, res.Effective,
		availability.Nines(res.Effective),
		availability.DowntimePerYear(1-res.Effective).Round(time.Minute))
	return nil
}
