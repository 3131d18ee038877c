// Command slbench regenerates the paper's evaluation (Figures 5–16): for
// each figure it runs the full sweep — dataset × {sparse, dense} seeding ×
// {static, ondemand, hybrid, stealing} × processor counts — on the
// simulated cluster and prints the figure's metric as a table (or CSV).
// Every figure thus gains a stealing block next to the paper's three
// algorithms, answering whether master-mediated coordination beats a
// fully decentralized dynamic scheme (DESIGN.md §6). Sweep cells are
// independent simulations, so they execute concurrently on a worker pool
// sized by -j (one worker per CPU core by default).
//
// The machine-axis flags — -unsteady, -tslices, -prefetch,
// -prefetch-depth, -inject, -inject-waves, -faults — are slrun's too,
// defined and checked once by experiments.AxisFlags. Here they set the
// axes of every figure cell, and each enabled axis adds its columns to
// the tables (Key.AxisColumns: unsteady tables gain epochs and psteps).
// -tslices and -prefetch-depth also tune the -shapes checks' own cells.
// slrun's -fault-time and -fault-procs have no slbench counterpart: kill
// cells use the scale's schedule.
//
// Usage:
//
//	slbench                       # all figures at the default scale
//	slbench -figure 5             # just Figure 5
//	slbench -scale paper          # full paper-sized configuration (slow)
//	slbench -dataset fusion -csv  # fusion figures as CSV
//	slbench -json                 # one JSON report (the BENCH_*.json schema)
//	slbench -shapes               # also check the paper's qualitative claims
//	slbench -j 1                  # serial execution (same tables, slower)
//	slbench -unsteady             # the same sweeps as pathline campaigns
//	slbench -unsteady -tslices 9  # finer time slicing (DESIGN.md §7)
//	slbench -prefetch neighbor    # every cell with async prefetching (§8)
//	slbench -unsteady -prefetch both -prefetch-depth 3
//	slbench -inject stagger       # every cell with staggered seeding (§9)
//	slbench -inject burst -inject-waves 8
//	slbench -faults kill          # every cell losing processors mid-run (§11)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scaleName  = fs.String("scale", "default", "campaign scale: small, default, or paper")
		figureID   = fs.Int("figure", 0, "run a single figure (5-16); 0 means all")
		dataset    = fs.String("dataset", "", "restrict to one dataset: astro, fusion, thermal")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = fs.Bool("json", false, "emit one machine-readable JSON report instead of tables (the BENCH_*.json schema)")
		verbose    = fs.Bool("v", false, "log every run as it completes")
		shapes     = fs.Bool("shapes", false, "verify the paper's qualitative claims and report")
		jobs       = fs.Int("j", 0, "sweep cells to run concurrently; 0 means one per CPU core")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
		memProfile = fs.String("memprofile", "", "write a pprof allocation profile (after the campaign) to this file")
		compare    = fs.String("compare", "", "check this run against a checked-in BENCH_*.json trajectory file: exit 1 on schema drift, warn (only) when throughput fell >25% below it")
		axes       = experiments.AxisFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *csv && *jsonOut {
		fmt.Fprintln(stderr, "slbench: -csv and -json are mutually exclusive")
		return 2
	}
	sc, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(stderr, "slbench: unknown scale %q\n", *scaleName)
		return 2
	}
	cell, err := axes(&sc, *shapes)
	if err != nil {
		fmt.Fprintf(stderr, "slbench: %v\n", err)
		return 2
	}

	c := experiments.NewCampaign(sc)
	c.Workers = *jobs
	c.Cell = cell
	// The JSON report carries the percentile block, so -json campaigns
	// run with the constant-memory observer attached; observation never
	// changes the metrics (pinned by the golden and campaign tests).
	c.Observe = *jsonOut
	if *verbose {
		c.Log = func(s string) { fmt.Fprintln(stderr, s) }
	}

	figs := experiments.Figures()
	if *figureID != 0 {
		fig, ok := experiments.FigureByID(*figureID)
		if !ok {
			fmt.Fprintf(stderr, "slbench: no figure %d (valid: 5-16)\n", *figureID)
			return 2
		}
		figs = []experiments.Figure{fig}
	}
	var selected []experiments.Figure
	for _, fig := range figs {
		if *dataset != "" && string(fig.Dataset) != *dataset {
			continue
		}
		selected = append(selected, fig)
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "slbench: no selected figure shows dataset %q (datasets: astro, fusion, thermal)\n", *dataset)
		return 2
	}

	// Execute the whole selection as one batch so the pool stays full
	// across figure boundaries, then print in figure order.
	var keys []experiments.Key
	for _, fig := range selected {
		keys = append(keys, c.FigureKeys(fig)...)
	}
	if *shapes {
		// The qualitative checks compare every dataset at the top
		// processor count; fold those cells into the same batch.
		keys = append(keys, experiments.ShapeKeys(c)...)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "slbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "slbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	started := time.Now()
	c.RunKeys(keys)
	elapsed := time.Since(started)
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "slbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "slbench: %v\n", err)
			return 1
		}
	}

	var report []experiments.ShapeResult
	if *shapes {
		report = experiments.CheckShapes(c)
	}

	if *compare != "" {
		if err := compareTrajectory(stderr, c, sc.Name, selected, *compare, elapsed); err != nil {
			fmt.Fprintf(stderr, "slbench: %v\n", err)
			return 1
		}
	}

	if *jsonOut {
		if err := writeJSONReport(stdout, c, sc.Name, selected, report, elapsed); err != nil {
			fmt.Fprintf(stderr, "slbench: %v\n", err)
			return 1
		}
	} else {
		for _, fig := range selected {
			if *csv {
				rows := c.FigureRows(fig)
				fmt.Fprintf(stdout, "# Figure %d — %s\n%s\n", fig.ID, fig.Title,
					metrics.CSV(rows, c.FigureColumns(fig)))
			} else {
				fmt.Fprintln(stdout, c.FigureTable(fig))
			}
		}
	}

	if *shapes {
		failed := 0
		for _, r := range report {
			if !r.OK {
				failed++
			}
		}
		if !*jsonOut {
			fmt.Fprintln(stdout, "Qualitative shape checks (paper Section 5):")
			for _, r := range report {
				status := "PASS"
				if !r.OK {
					status = "FAIL"
				}
				fmt.Fprintf(stdout, "  [%s] %s\n", status, r.Claim)
				if r.Detail != "" {
					fmt.Fprintf(stdout, "         %s\n", r.Detail)
				}
			}
			if failed > 0 {
				fmt.Fprintf(stdout, "%d/%d checks failed\n", failed, len(report))
			}
		}
		if failed > 0 {
			return 1
		}
	}
	return 0
}

// benchSchema versions the -json report layout; bump on breaking shape
// changes so downstream consumers (BENCH_*.json checks) can discriminate.
const benchSchema = "slbench/v1"

// minCompareElapsed is the shortest wall-clock duration the throughput
// smoke trusts, on either side of the ratio: a nanosecond. Zero,
// negative and denormal elapsed values (a hand-edited or truncated
// trajectory file can carry any float) would overflow the steps/s
// division into Inf and land it in the report.
const minCompareElapsed = 1e-9

// jsonReport is the machine-readable campaign result the -json flag
// emits. Simulated metrics are deterministic for a given scale; only
// the host block varies between runs.
type jsonReport struct {
	Schema  string       `json:"schema"`
	Scale   string       `json:"scale"`
	Figures []jsonFigure `json:"figures"`
	Shapes  []jsonShape  `json:"shape_checks,omitempty"`
	Host    jsonHost     `json:"host"`
}

// jsonFigure is one paper figure's sweep: the rendered columns and one
// row per campaign cell.
type jsonFigure struct {
	ID      int       `json:"id"`
	Title   string    `json:"title"`
	Columns []string  `json:"columns"`
	Rows    []jsonRow `json:"rows"`
}

// jsonRow is one campaign cell: its label plus either the full metrics
// summary or the error that aborted the run.
type jsonRow struct {
	Label   string           `json:"label"`
	Error   string           `json:"error,omitempty"`
	Summary *metrics.Summary `json:"summary,omitempty"`
	// Percentiles is the cell's obs report: p50/p95/p99 digests of stall
	// durations, I/O-queue waits, message latencies and per-streamline
	// step counts. Additive to the v1 schema — older trajectory files
	// simply decode it as nil.
	Percentiles *obs.Report `json:"percentiles,omitempty"`
}

// jsonShape is one qualitative claim check (-shapes).
type jsonShape struct {
	Claim  string `json:"claim"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// jsonHost records where and how long the campaign ran — the only
// nondeterministic part of the report.
type jsonHost struct {
	GoOS           string  `json:"goos"`
	GoArch         string  `json:"goarch"`
	GoVersion      string  `json:"go_version"`
	CPUs           int     `json:"cpus"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Tape is the campaign's segment-tape ledger (DESIGN.md §12): how
	// much integration the run replayed instead of repeating, and what
	// memory that took. It belongs to the host block because it depends
	// on -j and on when the collector ran, never on the simulation.
	// Additive to the v1 schema — older trajectory files decode it as
	// nil, and -compare does not read it.
	Tape *experiments.TapeStats `json:"tape,omitempty"`
}

// compareTrajectory validates a checked-in BENCH_*.json trajectory file
// against the run that just finished. Schema drift — the file does not
// parse, carries a different schema version, or has structurally invalid
// rows — is an error (the caller exits non-zero): it means the trajectory
// must be regenerated before it can anchor regressions. The throughput
// smoke is warn-only: wall-time throughput (simulated steps per host
// second) more than 25% below the trajectory's prints a warning, because
// CI hosts vary too much for a hard gate.
func compareTrajectory(stderr io.Writer, c *experiments.Campaign, scale string, figs []experiments.Figure, path string, elapsed time.Duration) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var base jsonReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("compare: %s is not valid JSON: %w", path, err)
	}
	if base.Schema != benchSchema {
		return fmt.Errorf("compare: schema drift: %s has %q, this binary emits %q — regenerate the trajectory", path, base.Schema, benchSchema)
	}
	if len(base.Figures) == 0 {
		return fmt.Errorf("compare: schema drift: %s has no figures", path)
	}
	var baseSteps int64
	for _, f := range base.Figures {
		if len(f.Rows) == 0 {
			return fmt.Errorf("compare: schema drift: %s figure %d has no rows", path, f.ID)
		}
		for _, row := range f.Rows {
			if (row.Summary == nil) == (row.Error == "") {
				return fmt.Errorf("compare: schema drift: %s figure %d row %q must carry exactly one of summary or error", path, f.ID, row.Label)
			}
			if row.Summary != nil {
				baseSteps += row.Summary.Steps
			}
		}
	}
	if baseSteps <= 0 {
		return fmt.Errorf("compare: schema drift: %s has no successful rows — no throughput to anchor, regenerate the trajectory", path)
	}
	// Guard the denominators: a zero, near-zero (sub-microsecond) or
	// non-finite baseline elapsed would turn the rate arithmetic below
	// into Inf/NaN percentages in the report.
	if !(base.Host.ElapsedSeconds > minCompareElapsed) || math.IsInf(base.Host.ElapsedSeconds, 0) {
		return fmt.Errorf("compare: schema drift: %s host block has no usable elapsed time (%v s)", path, base.Host.ElapsedSeconds)
	}

	var curSteps int64
	for _, fig := range figs {
		for _, row := range c.FigureRows(fig) {
			if row.Err == nil {
				curSteps += row.Summary.Steps
			}
		}
	}
	if curSteps == 0 || elapsed.Seconds() <= minCompareElapsed {
		// Nothing ran (an empty or all-error selection), or it finished
		// faster than the clock can meaningfully resolve — tiny -scale
		// small CI cells do. Either way there is no throughput to smoke,
		// and dividing by a near-zero elapsed would fabricate one.
		return nil
	}
	baseRate := float64(baseSteps) / base.Host.ElapsedSeconds
	curRate := float64(curSteps) / elapsed.Seconds()
	// Same-scale runs are directly comparable: warn at a 25% drop. A
	// different scale amortizes fixed per-cell cost over a different
	// step count, so its steps/s is not commensurate — there the smoke
	// only guards against order-of-magnitude collapse (an accidental
	// quadratic loop, not host jitter).
	floor := 0.75
	if scale != base.Scale {
		floor = 0.05
	}
	if curRate < floor*baseRate {
		fmt.Fprintf(stderr, "slbench: WARNING: throughput %.0f steps/s (scale %s) is %.0f%% below the %s trajectory (%.0f steps/s, scale %s) — possible perf regression (warn-only)\n",
			curRate, scale, 100*(1-curRate/baseRate), path, baseRate, base.Scale)
	}
	return nil
}

// writeJSONReport marshals the campaign's selected figures (and shape
// checks, when run) as one indented JSON document.
func writeJSONReport(w io.Writer, c *experiments.Campaign, scale string, figs []experiments.Figure, shapes []experiments.ShapeResult, elapsed time.Duration) error {
	rep := jsonReport{
		Schema: benchSchema,
		Scale:  scale,
		Host: jsonHost{
			GoOS:           runtime.GOOS,
			GoArch:         runtime.GOARCH,
			GoVersion:      runtime.Version(),
			CPUs:           runtime.NumCPU(),
			ElapsedSeconds: elapsed.Seconds(),
		},
	}
	tape := c.TapeStats()
	rep.Host.Tape = &tape
	for _, fig := range figs {
		jf := jsonFigure{ID: fig.ID, Title: fig.Title, Columns: c.FigureColumns(fig)}
		for _, k := range c.FigureKeys(fig) {
			out := c.Run(k) // cached by the batch RunKeys
			jr := jsonRow{Label: out.Key.Label(), Percentiles: out.Obs}
			if out.Err != nil {
				jr.Error = out.Err.Error()
			} else {
				s := out.Summary
				jr.Summary = &s
			}
			jf.Rows = append(jf.Rows, jr)
		}
		rep.Figures = append(rep.Figures, jf)
	}
	for _, r := range shapes {
		rep.Shapes = append(rep.Shapes, jsonShape{Claim: r.Claim, OK: r.OK, Detail: r.Detail})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
