// Command slrun executes a single streamline computation on the simulated
// cluster and reports its metrics — the one-experiment counterpart to
// slbench's full sweep. All four algorithms are available: the paper's
// static, ondemand and hybrid, plus the decentralized stealing extension
// (DESIGN.md §6), whose batch size, probe fanout and victim policy are
// tunable with the -steal-* flags. -procs also accepts a comma-separated
// list; the sweep then runs its cells concurrently (-j workers, one per
// CPU core by default) and prints one summary line per processor count.
//
// The machine-axis flags of the next four paragraphs (-unsteady,
// -tslices, -prefetch, -prefetch-depth, -inject, -inject-waves, -faults)
// are slbench's too, defined and checked once by experiments.AxisFlags;
// -fault-time, -fault-procs and the -steal-* flags are slrun's own.
//
// With -unsteady the same experiment traces pathlines instead: the
// dataset's time-varying field is served as a time-sliced decomposition
// (-tslices stored slices, default per scale) and every algorithm
// works on space-time blocks (DESIGN.md §7).
//
// With -prefetch the asynchronous prefetching subsystem (DESIGN.md §8)
// predicts upcoming blocks — spatially from streamline exits (neighbor),
// temporally across epochs (temporal), or both — and overlaps their
// reads with computation; -prefetch-depth tunes the lookahead.
//
// With -inject the seeds are released over time instead of all at t0
// (DESIGN.md §9): uniformly staggered (stagger), in bursty waves
// (burst, tuned by -inject-waves), or rate-limited (rate). Injection
// reshapes when work exists — and so the load balance — but never any
// particle's geometry.
//
// With -faults kill the scale's fault scenario takes down the lowest
// ranks mid-run (DESIGN.md §11): -fault-time and -fault-procs override
// when and how many. The dynamic algorithms recover and finish every
// streamline bit-identically; static allocation fails with a typed
// error, which is the experiment's point.
//
// With -trace the run records its virtual-time event stream
// (DESIGN.md §13) and exports it as Chrome trace-event JSON — load the
// file in Perfetto or chrome://tracing for per-processor Gantt
// timelines. With -timeline the same events are resampled into a
// fixed-interval time series (active streamlines, I/O queue depth,
// resident blocks, busy fractions) written as CSV, or JSON when the
// path ends in .json; -sample-interval overrides the bin width.
// Tracing never perturbs the simulation: the metrics are bit-identical
// with or without it, and the trace itself is byte-identical across
// repeated runs.
//
// Usage:
//
//	slrun -dataset astro -seeding sparse -alg hybrid -procs 128
//	slrun -dataset thermal -seeding dense -alg static   # reproduces the OOM
//	slrun -alg ondemand -perproc                        # per-processor stats
//	slrun -alg hybrid -procs 8,16,32,64 -j 4            # strong-scaling sweep
//	slrun -alg stealing -steal-batch 16 -steal-victim roundrobin
//	slrun -unsteady -alg ondemand                       # pathline campaign
//	slrun -unsteady -tslices 9 -alg hybrid              # finer time slicing
//	slrun -alg ondemand -prefetch neighbor              # hide I/O behind compute
//	slrun -unsteady -alg ondemand -prefetch both -prefetch-depth 3
//	slrun -alg ondemand -inject stagger                 # streak-line seeding
//	slrun -alg hybrid -inject burst -inject-waves 8     # bursty rake seeding
//	slrun -alg stealing -faults kill                    # lose proc 0 mid-run
//	slrun -alg hybrid -faults kill -fault-procs 2       # kill both low ranks
//	slrun -alg hybrid -trace out.json                   # Perfetto Gantt trace
//	slrun -alg ondemand -timeline series.csv            # virtual-time series
//	slrun -alg ondemand -timeline s.json -sample-interval 0.01
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// parseProcs expands the -procs flag — one count or a comma-separated
// list — into one copy of k per count, each checked by Key.Validate.
func parseProcs(s string, k experiments.Key) ([]experiments.Key, error) {
	parts := strings.Split(s, ",")
	keys := make([]experiments.Key, 0, len(parts))
	for _, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		k.Procs = n
		if err := k.Validate(); err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scaleName   = fs.String("scale", "default", "scale: small, default, or paper")
		dataset     = fs.String("dataset", "astro", "dataset: astro, fusion, thermal")
		seeding     = fs.String("seeding", "sparse", "seeding: sparse or dense")
		alg         = fs.String("alg", "hybrid", "algorithm: static, ondemand, hybrid, stealing")
		procsFlag   = fs.String("procs", "64", "simulated processor count, or comma-separated list for a sweep")
		perProc     = fs.Bool("perproc", false, "print per-processor statistics (single -procs only)")
		topN        = fs.Int("top", 5, "with -perproc, show the N busiest processors")
		jobs        = fs.Int("j", 0, "sweep cells to run concurrently; 0 means one per CPU core")
		stealBatch  = fs.Int("steal-batch", 0, "stealing: streamlines per steal batch (0 = default 8)")
		stealFanout = fs.Int("steal-fanout", 0, "stealing: victims probed per hungry round (0 = all peers)")
		stealVictim = fs.String("steal-victim", "", "stealing: victim policy, random or roundrobin (empty = random)")
		faultTime   = fs.Float64("fault-time", 0, "with -faults: virtual second of the kill (0 = scale default)")
		faultProcs  = fs.Int("fault-procs", 0, "with -faults: how many low ranks die (0 = scale default)")
		traceOut    = fs.String("trace", "", "write the run's virtual-time event stream as Chrome trace-event JSON to this file (single -procs only)")
		timelineOut = fs.String("timeline", "", "write the run's fixed-interval time series to this file: CSV, or JSON with a .json suffix (single -procs only)")
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
	k, err := axes(&sc, false)
	if err != nil {
		fmt.Fprintf(stderr, "slrun: %v\n", err)
		return 2
	}
	// Reject bad experiment names up front so a typo is a usage error
	// (exit 2) on every path, not a per-cell "run failed" (exit 1).
	k.Dataset, k.Seeding, k.Alg = experiments.Dataset(*dataset), experiments.Seeding(*seeding), core.Algorithm(*alg)
	keys, err := parseProcs(*procsFlag, k)
	if err != nil {
		fmt.Fprintf(stderr, "slrun: %v\n", err)
		return 2
	}
	steal := core.StealParams{
		Batch:  *stealBatch,
		Fanout: *stealFanout,
		Victim: core.VictimPolicy(*stealVictim),
	}
	if steal != (core.StealParams{}) {
		// The -steal-* flags only mean something to the stealing
		// algorithm; accepting them elsewhere would let a user believe
		// they tuned something that was silently ignored.
		if k.Alg != core.WorkStealing {
			fmt.Fprintf(stderr, "slrun: -steal-* flags require -alg stealing (got %q)\n", *alg)
			return 2
		}
		if steal.Batch < 0 || steal.Fanout < 0 {
			fmt.Fprintf(stderr, "slrun: negative -steal-batch/-steal-fanout (%d/%d)\n", steal.Batch, steal.Fanout)
			return 2
		}
		if err := steal.Validate(); err != nil {
			fmt.Fprintf(stderr, "slrun: %v\n", err)
			return 2
		}
	}
	if *faultTime != 0 || *faultProcs != 0 {
		// Overrides without a scenario would be silently ignored.
		if !k.Faults.Enabled() {
			fmt.Fprintln(stderr, "slrun: -fault-time/-fault-procs require -faults kill")
			return 2
		}
		if *faultTime < 0 || *faultProcs < 0 {
			fmt.Fprintf(stderr, "slrun: negative -fault-time/-fault-procs (%g/%d)\n", *faultTime, *faultProcs)
			return 2
		}
		if *faultTime != 0 {
			sc.FaultTime = *faultTime
		}
		if *faultProcs != 0 {
			sc.FaultProcs = *faultProcs
		}
	}

	if *sampleIvl != 0 {
		// An interval without a timeline would be silently ignored.
		if *timelineOut == "" {
			fmt.Fprintln(stderr, "slrun: -sample-interval requires -timeline")
			return 2
		}
		if *sampleIvl < 0 {
			fmt.Fprintf(stderr, "slrun: negative -sample-interval %g\n", *sampleIvl)
			return 2
		}
	}
	if len(keys) > 1 {
		// The trace and timeline describe one run; a sweep has many.
		if *traceOut != "" || *timelineOut != "" {
			fmt.Fprintln(stderr, "slrun: -trace/-timeline require a single -procs count")
			return 2
		}
		return runSweep(sc, keys, *jobs, steal, stdout)
	}
	return runSingle(sc, keys[0], steal, *perProc, *topN, *traceOut, *timelineOut, *sampleIvl, stdout, stderr)
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

// applySteal folds the -steal-* flag overrides into a machine config,
// keeping the campaign defaults for any flag left at its zero value.
func applySteal(cfg *core.Config, steal core.StealParams) {
	if steal.Batch > 0 {
		cfg.Steal.Batch = steal.Batch
	}
	if steal.Fanout > 0 {
		cfg.Steal.Fanout = steal.Fanout
	}
	if steal.Victim != "" {
		cfg.Steal.Victim = steal.Victim
	}
}

// runSweep executes one cell — keys differing only in processor count —
// on the campaign worker pool and prints a summary table.
func runSweep(sc experiments.Scale, keys []experiments.Key, jobs int, steal core.StealParams, stdout io.Writer) int {
	// The campaign keeps the scale's own ProcCounts so MemoryBudget (which
	// derives from the sweep minimum) matches what a single -procs run of
	// the same scale would use; the sweep cells are the explicit keys.
	c := experiments.NewCampaign(sc)
	c.Workers = jobs
	c.Tune = func(cfg *core.Config) { applySteal(cfg, steal) }
	c.RunKeys(keys)

	rows := make([]metrics.TableRow, 0, len(keys))
	failed := 0
	for _, k := range keys {
		out := c.Run(k) // cached
		if out.Err != nil {
			failed++
		}
		rows = append(rows, metrics.TableRow{Label: k.Label(), Summary: out.Summary, Err: out.Err})
	}
	cols := append([]string{"wall", "io", "ioq", "comm", "efficiency"}, keys[0].AxisColumns()...)
	fmt.Fprint(stdout, metrics.Table(rows, cols))
	if failed > 0 {
		// Match the single-run convention: any failed cell (e.g. the
		// expected dense/static OOM) yields a non-zero exit.
		return 1
	}
	return 0
}

// runSingle executes one cell and prints the detailed report.
func runSingle(sc experiments.Scale, k experiments.Key, steal core.StealParams, perProc bool, topN int, traceOut, timelineOut string, sampleIvl float64, stdout, stderr io.Writer) int {
	prob, err := experiments.BuildInjectedProblem(k.Dataset, k.Seeding, sc, k.Unsteady, k.Injection)
	if err != nil {
		fmt.Fprintln(stderr, "slrun:", err)
		return 2
	}
	cfg := experiments.KeyMachineConfig(k, sc)
	applySteal(&cfg, steal)
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
		samples := cfg.Trace.Series(sampleIvl)
		write := obs.WriteSeriesCSV
		if strings.HasSuffix(timelineOut, ".json") {
			write = obs.WriteSeriesJSON
		}
		if err := writeFile(timelineOut, func(w io.Writer) error {
			return write(w, samples)
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
