// Command slrun executes a single streamline computation on the simulated
// cluster and reports its metrics — the one-experiment counterpart to
// slbench's full sweep. All four algorithms are available: the paper's
// static, ondemand and hybrid, plus the decentralized stealing extension
// (DESIGN.md §6). A processor-count sweep is slbench's (-figure 5 lists
// the strong-scaling cells), or repeated slrun -procs N runs.
//
// The machine-axis flags of the next four paragraphs (-unsteady,
// -prefetch, -inject, -faults) are slbench's too, defined and checked
// once by experiments.AxisFlags. Everything else about the machine — its
// time slices, prefetch depth, injection waves and kill time — is the
// -scale's: a scale name and the axes name one machine.
//
// With -unsteady the same experiment traces pathlines instead: the
// dataset's time-varying field is served as a time-sliced decomposition
// and every algorithm works on space-time blocks (DESIGN.md §7).
//
// With -prefetch the asynchronous prefetching subsystem (DESIGN.md §8)
// predicts upcoming blocks — spatially from streamline exits (neighbor),
// temporally across epochs (temporal), or both — and overlaps their
// reads with computation.
//
// With -inject the seeds are released over time instead of all at t0
// (DESIGN.md §9): uniformly staggered (stagger), in bursty waves
// (burst), or rate-limited (rate). Injection reshapes when work exists —
// and so the load balance — but never any particle's geometry.
//
// With -faults kill the scale's fault scenario takes down processor 0
// mid-run (DESIGN.md §11); it needs at least 2 processors. The dynamic
// algorithms recover and finish every streamline bit-identically;
// static allocation fails with a typed error, which is the experiment's
// point.
//
// With -trace the run records its virtual-time event stream
// (DESIGN.md §13) and exports it as Chrome trace-event JSON — load the
// file in Perfetto or chrome://tracing for per-processor timelines.
// With -timeline the same events are resampled into a fixed-interval
// time series (active streamlines, I/O queue depth, resident blocks,
// busy fractions) written as CSV; -sample-interval overrides the bin
// width.
// Tracing never perturbs the simulation: the metrics are bit-identical
// with or without it, and the trace itself is byte-identical across
// repeated runs.
//
// Usage:
//
//	slrun -dataset astro -seeding sparse -alg hybrid -procs 128
//	slrun -dataset thermal -seeding dense -alg static   # reproduces the OOM
//	slrun -alg ondemand -perproc -top 3                 # three busiest processors
//	slrun -alg stealing                                 # decentralized stealing
//	slrun -unsteady -alg ondemand                       # pathline campaign
//	slrun -alg ondemand -prefetch neighbor              # hide I/O behind compute
//	slrun -unsteady -alg ondemand -prefetch both        # spatial and temporal
//	slrun -alg ondemand -inject stagger                 # streak-line seeding
//	slrun -alg hybrid -inject burst                     # bursty rake seeding
//	slrun -alg stealing -faults kill                    # lose proc 0 mid-run
//	slrun -alg hybrid -trace out.json                   # per-processor timeline for Perfetto
//	slrun -alg ondemand -timeline series.csv            # virtual-time series
//	slrun -alg ondemand -timeline s.csv -sample-interval 0.01
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scaleName   = fs.String("scale", "default", "scale: small, default, or paper")
		dataset     = fs.String("dataset", "astro", "dataset: astro, fusion, thermal")
		seeding     = fs.String("seeding", "sparse", "seeding: sparse or dense")
		alg         = fs.String("alg", "hybrid", "algorithm: static, ondemand, hybrid, stealing")
		procs       = fs.Int("procs", 64, "simulated processor count")
		perProc     = fs.Bool("perproc", false, "print per-processor statistics")
		topN        = fs.Int("top", 5, "with -perproc, show the N busiest processors (0 = all)")
		traceOut    = fs.String("trace", "", "write the run's virtual-time event stream as Chrome trace-event JSON to this file")
		timelineOut = fs.String("timeline", "", "write the run's fixed-interval time series to this file as CSV")
		sampleIvl   = fs.Float64("sample-interval", 0, "with -timeline: sampling bin width in virtual seconds (0 = wall clock / 256)")
		axes        = experiments.AxisFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	sc, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(stderr, "slrun: unknown scale %q\n", *scaleName)
		return 2
	}
	k, err := axes()
	if err != nil {
		fmt.Fprintf(stderr, "slrun: %v\n", err)
		return 2
	}
	// Reject bad experiment names up front so a typo is a usage error
	// (exit 2), not a "run failed" (exit 1).
	k.Dataset, k.Seeding, k.Alg, k.Procs = experiments.Dataset(*dataset), experiments.Seeding(*seeding), core.Algorithm(*alg), *procs
	if err := k.Validate(); err != nil {
		fmt.Fprintf(stderr, "slrun: %v\n", err)
		return 2
	}
	if *sampleIvl != 0 {
		// An interval without a timeline would be silently ignored.
		if *timelineOut == "" {
			fmt.Fprintln(stderr, "slrun: -sample-interval requires -timeline")
			return 2
		}
		// NaN passes a < 0 test, and NaN or +Inf would size the series
		// from end/interval.
		if v := *sampleIvl; v < 0 || math.IsNaN(v) || math.IsInf(v, 1) {
			fmt.Fprintf(stderr, "slrun: -sample-interval %g is not a finite, non-negative number of seconds\n", v)
			return 2
		}
	}
	// A -top left at its default is not a request; an explicit one
	// without -perproc would be silently ignored.
	topSet := false
	fs.Visit(func(f *flag.Flag) { topSet = topSet || f.Name == "top" })
	if topSet && !*perProc {
		fmt.Fprintln(stderr, "slrun: -top requires -perproc")
		return 2
	}
	if *topN < 0 {
		fmt.Fprintf(stderr, "slrun: -top %d is negative (0 lists every processor)\n", *topN)
		return 2
	}
	return runCell(sc, k, *perProc, *topN, *traceOut, *timelineOut, *sampleIvl, stdout, stderr)
}

// writeFile creates path and streams fn's output into it, reporting the
// first error from creation, writing or closing.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCell executes the cell and prints the detailed report.
func runCell(sc experiments.Scale, k experiments.Key, perProc bool, topN int, traceOut, timelineOut string, sampleIvl float64, stdout, stderr io.Writer) int {
	prob, err := experiments.BuildInjectedProblem(k.Dataset, k.Seeding, sc, k.Unsteady, k.Injection)
	if err != nil {
		fmt.Fprintln(stderr, "slrun:", err)
		return 2
	}
	cfg := experiments.KeyMachineConfig(k, sc)
	if traceOut != "" || timelineOut != "" {
		cfg.Trace = obs.New()
	}
	d := prob.Provider.Decomp()
	workload := "streamlines"
	blocks := fmt.Sprintf("%d blocks", d.NumBlocks())
	if k.Unsteady {
		workload = "pathlines"
		blocks = fmt.Sprintf("%d space-time blocks (%d spatial x %d epochs)",
			d.NumBlocks(), d.NumSpatialBlocks(), d.Epochs())
	}
	fmt.Fprintf(stdout, "running %s/%s %s with %s on %d processors (%d seeds, %s, budget %d MB)\n",
		k.Dataset, k.Seeding, workload, k.Alg, k.Procs, len(prob.Seeds),
		blocks, cfg.MemoryBudget>>20)

	res, err := core.Run(prob, cfg)
	if err != nil {
		fmt.Fprintf(stdout, "run failed: %v\n", err)
		return 1
	}
	if traceOut != "" {
		if err := writeFile(traceOut, func(w io.Writer) error {
			return cfg.Trace.WriteChromeTrace(w)
		}); err != nil {
			fmt.Fprintln(stderr, "slrun:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d trace events to %s\n", len(cfg.Trace.Events()), traceOut)
	}
	if timelineOut != "" {
		samples, err := cfg.Trace.Series(sampleIvl)
		if err != nil {
			fmt.Fprintln(stderr, "slrun:", err)
			return 1
		}
		if err := writeFile(timelineOut, func(w io.Writer) error {
			return obs.WriteSeriesCSV(w, samples)
		}); err != nil {
			fmt.Fprintln(stderr, "slrun:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d timeline samples to %s\n", len(samples), timelineOut)
	}
	s := res.Summary
	fmt.Fprintf(stdout, "wall clock          %10.3f s\n", s.WallClock)
	fmt.Fprintf(stdout, "total I/O time      %10.3f s\n", s.TotalIO)
	fmt.Fprintf(stdout, "I/O queue wait      %10.3f s\n", s.TotalIOQueue)
	fmt.Fprintf(stdout, "total comm time     %10.3f s\n", s.TotalComm)
	fmt.Fprintf(stdout, "total compute time  %10.3f s\n", s.TotalCompute)
	fmt.Fprintf(stdout, "block efficiency    %10.3f   (loads %d, purges %d)\n",
		s.BlockEfficiency, s.BlocksLoaded, s.BlocksPurged)
	fmt.Fprintf(stdout, "messages            %10d   (%d bytes)\n", s.MsgsSent, s.BytesSent)
	fmt.Fprintf(stdout, "integration steps   %10d\n", s.Steps)
	fmt.Fprintf(stdout, "streamlines done    %10d\n", s.StreamlinesCompleted)
	fmt.Fprintf(stdout, "peak memory         %10d MB\n", s.PeakMemoryBytes>>20)
	fmt.Fprintf(stdout, "load imbalance      %10.2f\n", s.Imbalance)
	if k.Alg == core.WorkStealing {
		fmt.Fprintf(stdout, "steals (hit/tried)  %7d/%d\n", s.StealHits, s.StealAttempts)
		fmt.Fprintf(stdout, "tokens passed       %10d\n", s.TokensPassed)
	}
	if k.Unsteady {
		fmt.Fprintf(stdout, "epoch crossings     %10d\n", s.EpochCrossings)
	}
	if k.Prefetch.Enabled() {
		fmt.Fprintf(stdout, "prefetch (hit/issued) %5d/%d   (%d wasted)\n",
			s.PrefetchHits, s.PrefetchIssued, s.PrefetchWasted)
		fmt.Fprintf(stdout, "I/O hidden          %10.3f s\n", s.IOHiddenTime)
	}
	if k.Injection.Enabled() {
		fmt.Fprintf(stdout, "active peak         %10d   streamlines on one processor\n", s.ActivePeak)
		fmt.Fprintf(stdout, "release stalls      %10d   (%.3f s parked)\n", s.ReleaseStalls, s.ReleaseStallTime)
	}
	if k.Faults.Enabled() {
		fmt.Fprintf(stdout, "processors lost     %10d   (%d seeds adopted)\n", s.ProcsLost, s.SeedsAdopted)
		fmt.Fprintf(stdout, "ring reforms        %10d\n", s.RingReforms)
		fmt.Fprintf(stdout, "master failovers    %10d\n", s.MasterFailovers)
		fmt.Fprintf(stdout, "sends to dead peers %10d\n", s.SendFailed)
	}

	if perProc {
		// Busiest first (compute + I/O + comm); ties stay in index order.
		procs := res.PerProc
		slices.SortStableFunc(procs, func(a, b metrics.ProcStats) int { return cmp.Compare(busy(b), busy(a)) })
		if topN > 0 && topN < len(procs) {
			procs = procs[:topN]
		}
		fmt.Fprintln(stdout, "\nbusiest processors:")
		for _, ps := range procs {
			fmt.Fprintf(stdout, "  proc %4d: busy=%8.3fs io=%8.3fs comm=%8.3fs steps=%9d loads=%5d done=%d\n",
				ps.Proc, busy(ps), ps.IOTime, ps.CommTime, ps.Steps, ps.BlocksLoaded, ps.StreamlinesCompleted)
		}
	}
	return 0
}

// busy is a processor's working time: compute, I/O and communication.
func busy(ps metrics.ProcStats) float64 { return ps.ComputeTime + ps.IOTime + ps.CommTime }
