// Command slviz computes streamlines for one of the paper's datasets and
// renders them to a PPM image — the analogue of the paper's Figures 1–4
// (supernova field lines, tokamak field lines, thermal mixing, inlet
// stream surface).
//
// With -gantt it instead renders the run's per-processor timeline
// (DESIGN.md §13): one lane per simulated processor, virtual time on
// the x axis, compute/IO/queue/comm/idle spans as colored bars —
// the paper's Gantt charts. -alg and -procs choose the algorithm and
// processor count the timeline visualizes.
//
// Usage:
//
//	slviz -dataset astro -out astro.ppm
//	slviz -dataset thermal -seeding dense -out surface.ppm  # Figure 4
//	slviz -gantt -alg hybrid -procs 8 -out timeline.ppm
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/render"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset  = fs.String("dataset", "astro", "dataset: astro, fusion, thermal")
		seeding  = fs.String("seeding", "sparse", "seeding: sparse or dense")
		out      = fs.String("out", "streamlines.ppm", "output PPM path")
		width    = fs.Int("width", 1024, "image width")
		height   = fs.Int("height", 768, "image height")
		lines    = fs.Int("lines", 300, "number of streamlines to draw")
		maxSteps = fs.Int("steps", 1200, "integration step budget per streamline")
		gantt    = fs.Bool("gantt", false, "render the run's per-processor timeline instead of its geometry (DESIGN.md §13)")
		alg      = fs.String("alg", "", "with -gantt: algorithm to trace (static, ondemand, hybrid, stealing; default ondemand)")
		procs    = fs.Int("procs", 0, "with -gantt: simulated processor count (default 4)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, size := range []struct {
		name string
		v    int
	}{{"steps", *maxSteps}, {"lines", *lines}, {"width", *width}, {"height", *height}} {
		if size.v <= 0 {
			fmt.Fprintf(stderr, "slviz: -%s must be positive (got %d)\n", size.name, size.v)
			return 2
		}
	}
	if !*gantt && (*alg != "" || *procs != 0) {
		// The geometry renderings always use the fixed ondemand/4
		// machine; accepting the flags there would silently ignore them.
		fmt.Fprintln(stderr, "slviz: -alg/-procs require -gantt")
		return 2
	}
	if *alg == "" {
		*alg = string(core.LoadOnDemand)
	}
	if *procs == 0 {
		*procs = 4
	}
	// The cell rules slrun and slserve apply too: known axis values, a
	// bounded processor count, a hybrid master with a slave.
	key := experiments.Key{Dataset: experiments.Dataset(*dataset), Seeding: experiments.Seeding(*seeding),
		Alg: core.Algorithm(*alg), Procs: *procs}
	if err := key.Validate(); err != nil {
		fmt.Fprintln(stderr, "slviz:", err)
		return 2
	}

	// A small-scale problem gives plenty of geometry for a picture; -steps
	// replaces whichever budget the dataset and seeding chose.
	sc := experiments.SmallScale()
	prob, err := experiments.BuildProblem(key.Dataset, key.Seeding, sc)
	if err != nil {
		fmt.Fprintln(stderr, "slviz:", err)
		return 2
	}
	prob.MaxSteps = *maxSteps
	if len(prob.Seeds) > *lines {
		// Subsample evenly for a readable picture.
		stride := len(prob.Seeds) / *lines
		var sub = prob.Seeds[:0:0]
		for i := 0; i < len(prob.Seeds); i += stride {
			sub = append(sub, prob.Seeds[i])
		}
		prob.Seeds = sub
	}

	cfg := experiments.MachineConfig(key.Alg, key.Procs, sc)
	cfg.MemoryBudget = 0 // rendering runs don't model the cluster's memory
	cfg.CollectTraces = !*gantt
	if *gantt {
		cfg.Trace = obs.New()
	}
	res, err := core.Run(prob, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "slviz: run failed:", err)
		return 1
	}

	var img *render.Image
	var what string
	if *gantt {
		img = render.Gantt(cfg.Trace.Events(), *procs, *width, *height)
		what = fmt.Sprintf("%s/%d timeline, %d events", *alg, *procs, len(cfg.Trace.Events()))
	} else {
		pal := render.Plasma
		colorBy := "time"
		if *dataset == "thermal" {
			pal = render.CoolWarm
			colorBy = "z"
		}
		box := prob.Provider.Decomp().Domain
		img = render.Streamlines(res.Streamlines, box, render.Options{
			Width:   *width,
			Height:  *height,
			Palette: pal,
			ColorBy: colorBy,
		})
		what = fmt.Sprintf("%d streamlines", len(res.Streamlines))
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(stderr, "slviz:", err)
		return 1
	}
	defer f.Close()
	if err := img.WritePPM(f); err != nil {
		fmt.Fprintln(stderr, "slviz:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s: %s, %.1f%% pixel coverage\n",
		*out, what, img.Coverage()*100)
	return 0
}
