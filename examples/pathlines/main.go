// Pathlines: trace unsteady flow — the paper's Section 8 frontier — with
// each of the four parallel algorithms and compare their profiles.
//
//	go run ./examples/pathlines
//
// The pulsing supernova field is served as a time-sliced dataset: the
// spatial decomposition crossed with time epochs, every (block, epoch)
// pair an independent unit of I/O and ownership (DESIGN.md §7). The same
// algorithms that trace steady streamlines trace pathlines here — no
// special cases — and the walkthrough verifies all four produce
// bit-identical geometry before comparing their cost profiles against
// the steady baseline.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

func main() {
	sc := experiments.SmallScale()

	steady, err := experiments.BuildProblem(experiments.Astro, experiments.Sparse, sc)
	if err != nil {
		log.Fatal(err)
	}
	unsteady, err := experiments.BuildUnsteadyProblem(experiments.Astro, experiments.Sparse, sc, sc.TimeSlices)
	if err != nil {
		log.Fatal(err)
	}
	d := unsteady.Provider.Decomp()
	fmt.Printf("unsteady astro: %d seeds, %d spatial blocks x %d epochs = %d space-time blocks\n\n",
		len(unsteady.Seeds), d.NumSpatialBlocks(), d.Epochs(), d.NumBlocks())

	// 1. Every algorithm traces the same pathlines, bit for bit: the
	// parallelization strategy must not change the numerics, steady or
	// not. The digest canonicalizes geometry, so one string per
	// algorithm makes the equivalence visible.
	procs := sc.ProcCounts[0]
	unsteadyConfig := func(alg core.Algorithm) core.Config {
		return experiments.KeyMachineConfig(experiments.Key{
			Dataset: experiments.Astro, Seeding: experiments.Sparse, Alg: alg, Procs: procs, Unsteady: true,
			Prefetch: prefetch.Off, Injection: experiments.InjectT0, Faults: experiments.FaultsOff,
		}, sc)
	}
	fmt.Printf("pathline geometry digests (%d processors):\n", procs)
	var reference string
	for _, alg := range core.Algorithms() {
		cfg := unsteadyConfig(alg)
		cfg.CollectTraces = true
		res, err := core.Run(unsteady, cfg)
		if err != nil {
			log.Fatalf("%s: %v", alg, err)
		}
		digest := trace.CanonicalDigest(res.Streamlines)
		fmt.Printf("  %-9s %s\n", alg, digest[:16])
		if reference == "" {
			reference = digest
		} else if digest != reference {
			log.Fatalf("%s: geometry diverged from the other algorithms", alg)
		}
	}
	fmt.Println("  all four identical")

	// 2. The cost of time: the same experiment steady vs unsteady. Time
	// slicing doubles block bytes and multiplies the block set by the
	// epoch count, so every algorithm pays more I/O — but unevenly:
	// Load-On-Demand's LRU thrashes across epochs while Hybrid's master
	// keeps pathlines grouped per space-time block (the paper's §8
	// pathline-I/O concern, checked as a campaign shape).
	fmt.Printf("\nsteady vs unsteady profiles (%d processors):\n", procs)
	fmt.Printf("  %-9s %10s %10s %10s %8s\n", "alg", "wall(s)", "io(s)", "loads", "epochs")
	for _, alg := range core.Algorithms() {
		scfg := experiments.MachineConfig(alg, procs, sc)
		sres, err := core.Run(steady, scfg)
		if err != nil {
			log.Fatalf("%s steady: %v", alg, err)
		}
		ures, err := core.Run(unsteady, unsteadyConfig(alg))
		if err != nil {
			log.Fatalf("%s unsteady: %v", alg, err)
		}
		fmt.Printf("  %-9s %5.3f->%5.3f %5.2f->%5.2f %4d->%5d %8d\n",
			alg,
			sres.Summary.WallClock, ures.Summary.WallClock,
			sres.Summary.TotalIO, ures.Summary.TotalIO,
			sres.Summary.BlocksLoaded, ures.Summary.BlocksLoaded,
			ures.Summary.EpochCrossings)
	}

	fmt.Println("\nevery epoch crossing above is a block handoff that exists only because")
	fmt.Println("the data is time-sliced; `slrun -unsteady` and `slbench -unsteady` run")
	fmt.Println("the same workload at larger scales.")
}
