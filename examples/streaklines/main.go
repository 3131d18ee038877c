// Streak lines: release seeds over time instead of all at t0 — the
// injection-schedule subsystem (DESIGN.md §9).
//
//	go run ./examples/streaklines
//
// The paper's campaigns release a fixed particle population at t0; real
// in-situ and unsteady visualization injects particles continuously
// (streak-line rakes, bursty seeding). A seeds.Schedule assigns every
// seed a release time in virtual machine seconds; every algorithm parks
// unreleased work at zero cost until activation. The walkthrough first
// verifies the subsystem's central invariant — injection reshapes
// timing and load, never geometry — then shows what it reshapes: the
// peak working population, the release stalls, and the wall clock, per
// algorithm and per schedule.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/seeds"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	sc := experiments.SmallScale()
	procs := sc.ProcCounts[0]

	base, err := experiments.BuildProblem(experiments.Astro, experiments.Sparse, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "astro sparse: %d seeds, injection window %.2f virtual seconds\n\n",
		len(base.Seeds), sc.InjectWindow)

	// 1. Geometry invariance: a particle's path after release does not
	// depend on when it was released. Every algorithm, under every
	// schedule, must reproduce the all-at-t0 digest bit for bit.
	refCfg := experiments.MachineConfig(core.StaticAlloc, procs, sc)
	refCfg.CollectTraces = true
	refRes, err := core.Run(base, refCfg)
	if err != nil {
		return err
	}
	reference := trace.CanonicalDigest(refRes.Streamlines)
	fmt.Fprintf(w, "geometry digests (%d processors, reference t0/static %s...):\n", procs, reference[:16])
	schedules := []seeds.Schedule{
		seeds.UniformStagger(0, sc.InjectWindow),
		seeds.BurstWaves(0, sc.InjectWindow, 4), // the campaign's burst schedule
		seeds.RateLimit(0, sc.InjectWindow, sc.InjectRate),
	}
	for _, sched := range schedules {
		prob := base
		prob.Release = sched.Times(len(base.Seeds))
		for _, alg := range core.Algorithms() {
			cfg := experiments.MachineConfig(alg, procs, sc)
			cfg.CollectTraces = true
			res, err := core.Run(prob, cfg)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", sched.Name(), alg, err)
			}
			if digest := trace.CanonicalDigest(res.Streamlines); digest != reference {
				return fmt.Errorf("%s/%s: geometry diverged from the t0 reference", sched.Name(), alg)
			}
		}
		fmt.Fprintf(w, "  %-9s identical across all four algorithms\n", sched.Name())
	}

	// 2. What injection reshapes: the working population. All-at-t0
	// fronts the entire seed set at once; a staggered rake bounds how
	// many particles are ever simultaneously in flight (ActivePeak) and
	// introduces release stalls where a processor is starved not by the
	// machine but by the schedule.
	fmt.Fprintf(w, "\nall-at-t0 vs staggered release (%d processors):\n", procs)
	fmt.Fprintf(w, "  %-9s %15s %15s %12s\n", "alg", "wall(s)", "apeak", "rstalls")
	stagger := base
	stagger.Release = seeds.UniformStagger(0, sc.InjectWindow).Times(len(base.Seeds))
	for _, alg := range core.Algorithms() {
		t0Res, err := core.Run(base, experiments.MachineConfig(alg, procs, sc))
		if err != nil {
			return fmt.Errorf("%s t0: %w", alg, err)
		}
		stRes, err := core.Run(stagger, experiments.MachineConfig(alg, procs, sc))
		if err != nil {
			return fmt.Errorf("%s stagger: %w", alg, err)
		}
		fmt.Fprintf(w, "  %-9s %6.3f -> %6.3f %7d -> %5d %12d\n",
			alg,
			t0Res.Summary.WallClock, stRes.Summary.WallClock,
			t0Res.Summary.ActivePeak, stRes.Summary.ActivePeak,
			stRes.Summary.ReleaseStalls)
	}

	// 3. Wave count as a dial: burst injection between the two extremes
	// (1 wave = the paper's t0 workload; many waves approach the
	// continuous rake). The active peak falls roughly as 1/waves while
	// the schedule stretches the run toward the window length.
	fmt.Fprintf(w, "\nload-on-demand under burst injection (%d processors):\n", procs)
	fmt.Fprintf(w, "  %-9s %10s %10s %10s %12s\n", "waves", "wall(s)", "apeak", "loads", "stall(s)")
	for _, waves := range []int{1, 2, 4, 8} {
		prob := base
		prob.Release = seeds.BurstWaves(0, sc.InjectWindow, waves).Times(len(base.Seeds))
		res, err := core.Run(prob, experiments.MachineConfig(core.LoadOnDemand, procs, sc))
		if err != nil {
			return fmt.Errorf("burst %d: %w", waves, err)
		}
		s := res.Summary
		fmt.Fprintf(w, "  %-9d %10.3f %10d %10d %12.3f\n",
			waves, s.WallClock, s.ActivePeak, s.BlocksLoaded, s.ReleaseStallTime)
	}

	fmt.Fprintln(w, "\nthe same schedules run at campaign scale with `slrun -inject` and")
	fmt.Fprintln(w, "`slbench -inject`; the §9 shape checks pin how staggering reshapes")
	fmt.Fprintln(w, "load balance (`slbench -shapes`).")
	return nil
}
