// Prefetch: hide the I/O gap — overlap block reads with computation
// using the asynchronous predictive-prefetching subsystem (DESIGN.md §8).
//
//	go run ./examples/prefetch
//
// Load On Demand pays a blocking disk read at every cache miss; that
// stall is the paper's Figure 6 I/O gap over Static Allocation. The
// prefetch subsystem predicts the next blocks — spatially from each
// streamline's exit (neighbor), temporally across epochs (temporal) —
// and issues their reads asynchronously on idle I/O servers while the
// processors keep integrating. The walkthrough verifies the safety
// property first (prefetching never changes geometry), then shows the
// stall reduction on both the steady and the unsteady campaign cell.
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
	procs := sc.ProcCounts[0]

	steady, err := experiments.BuildProblem(experiments.Astro, experiments.Sparse, sc)
	if err != nil {
		log.Fatal(err)
	}
	unsteady, err := experiments.BuildUnsteadyProblem(experiments.Astro, experiments.Sparse, sc, sc.TimeSlices)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("astro sparse, %d seeds, %d processors, %d shared I/O servers\n\n",
		len(steady.Seeds), procs, sc.DiskServers)

	// 1. Safety: prefetching reorders I/O, never results. The geometry
	// digest with every predictor on must equal the prefetch-off digest.
	fmt.Println("geometry digests, prefetch off vs both predictors (ondemand):")
	var reference string
	for _, policy := range []prefetch.Policy{prefetch.Off, prefetch.Both} {
		cfg := experiments.MachineConfig(core.LoadOnDemand, procs, sc)
		cfg.Prefetch = prefetch.Config{Policy: policy, Depth: sc.PrefetchDepth}
		cfg.CollectTraces = true
		res, err := core.Run(steady, cfg)
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		digest := trace.CanonicalDigest(res.Streamlines)
		fmt.Printf("  %-8s %s\n", policy, digest[:16])
		if reference == "" {
			reference = digest
		} else if digest != reference {
			log.Fatalf("%s: geometry diverged — prefetching must be timing-only", policy)
		}
	}
	fmt.Println("  identical")

	// 2. The steady experiment: the neighbor predictor issues the next
	// spatial block from each streamline's exit while the pool keeps
	// computing, so part of every miss is already paid when it happens.
	fmt.Println("\nsteady ondemand, prefetch off vs neighbor:")
	fmt.Printf("  %-9s %9s %9s %9s %9s %12s\n", "policy", "wall(s)", "io(s)", "queue(s)", "hidden(s)", "hit/issued")
	for _, policy := range []prefetch.Policy{prefetch.Off, prefetch.Neighbor} {
		cfg := experiments.MachineConfig(core.LoadOnDemand, procs, sc)
		cfg.Prefetch = prefetch.Config{Policy: policy, Depth: sc.PrefetchDepth}
		res, err := core.Run(steady, cfg)
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		s := res.Summary
		fmt.Printf("  %-9s %9.3f %9.3f %9.3f %9.3f %9d/%d\n",
			policy, s.WallClock, s.TotalIO, s.TotalIOQueue, s.IOHiddenTime,
			s.PrefetchHits, s.PrefetchIssued)
	}

	// 3. The unsteady experiment: every epoch boundary is a cold
	// space-time block (DESIGN.md §7), so pathlines stall at each
	// crossing. The temporal predictor streams epoch e+1 in while the
	// pool still computes in epoch e — the ROADMAP's named remedy.
	fmt.Println("\nunsteady (pathline) ondemand, prefetch off vs temporal:")
	fmt.Printf("  %-9s %9s %9s %9s %9s %12s\n", "policy", "wall(s)", "io(s)", "epochs", "hidden(s)", "hit/issued")
	for _, policy := range []prefetch.Policy{prefetch.Off, prefetch.Temporal} {
		cfg := experiments.KeyMachineConfig(experiments.Key{
			Dataset: experiments.Astro, Seeding: experiments.Sparse, Alg: core.LoadOnDemand, Procs: procs,
			Unsteady: true, Prefetch: policy, Injection: experiments.InjectT0, Faults: experiments.FaultsOff,
		}, sc)
		res, err := core.Run(unsteady, cfg)
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		s := res.Summary
		fmt.Printf("  %-9s %9.3f %9.3f %9d %9.3f %9d/%d\n",
			policy, s.WallClock, s.TotalIO, s.EpochCrossings, s.IOHiddenTime,
			s.PrefetchHits, s.PrefetchIssued)
	}

	fmt.Println("\nspeculative reads claim only idle I/O servers — they never queue ahead")
	fmt.Println("of demand reads — so idle bandwidth becomes hidden time; `slrun -prefetch`")
	fmt.Println("and `slbench -prefetch` run the same subsystem at larger scales.")
}
