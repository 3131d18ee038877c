// Command slviz computes streamlines for one of the paper's datasets and
// renders them to a PPM image — the analogue of the paper's Figures 1–4
// (supernova field lines, tokamak field lines, thermal mixing, inlet
// stream surface). A run's per-processor timeline is slrun -trace's,
// opened in Perfetto or chrome://tracing.
//
// Usage:
//
//	slviz -dataset astro -out astro.ppm
//	slviz -dataset thermal -seeding dense -out surface.ppm  # Figure 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/render"
	"repro/internal/vec"
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
		width    = fs.Int("width", 1024, "image width in pixels, at most 8192 (11 bytes a pixel: 738 MB at 8192x8192)")
		height   = fs.Int("height", 768, "image height in pixels, at most 8192")
		lines    = fs.Int("lines", 300, "number of streamlines to draw (at most the dataset's seeds)")
		maxSteps = fs.Int("steps", 1200, "integration step budget per streamline, at most 100000 (24 bytes a step: 2.4 MB a streamline)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The caps bound what the flags can allocate: the image's pixel and
	// depth buffers, and each collected streamline's points.
	for _, size := range []struct {
		name   string
		v, max int
	}{{"steps", *maxSteps, 100_000}, {"lines", *lines, math.MaxInt}, {"width", *width, 8192}, {"height", *height, 8192}} {
		if size.v <= 0 {
			fmt.Fprintf(stderr, "slviz: -%s must be positive (got %d)\n", size.name, size.v)
			return 2
		}
		if size.v > size.max {
			fmt.Fprintf(stderr, "slviz: -%s must be at most %d (got %d)\n", size.name, size.max, size.v)
			return 2
		}
	}
	// A small-scale problem gives plenty of geometry for a picture; -steps
	// replaces whichever budget the dataset and seeding chose.
	sc := experiments.SmallScale()
	prob, err := experiments.BuildProblem(experiments.Dataset(*dataset), experiments.Seeding(*seeding), sc)
	if err != nil {
		fmt.Fprintln(stderr, "slviz:", err)
		return 2
	}
	prob.MaxSteps = *maxSteps
	if n := len(prob.Seeds); n > *lines {
		// Keep exactly -lines seeds, evenly spaced, for a readable picture.
		sub := make([]vec.V3, *lines)
		for i := range sub {
			sub[i] = prob.Seeds[i*n / *lines]
		}
		prob.Seeds = sub
	}

	// The picture's machine is fixed: ondemand on 4 processors.
	cfg := experiments.MachineConfig(core.LoadOnDemand, 4, sc)
	cfg.MemoryBudget = 0 // rendering runs don't model the cluster's memory
	cfg.CollectTraces = true
	res, err := core.Run(prob, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "slviz: run failed:", err)
		return 1
	}

	pal := render.Plasma
	colorBy := "time"
	if *dataset == "thermal" {
		pal = render.CoolWarm
		colorBy = "z"
	}
	box := prob.Provider.Decomp().Domain
	img := render.Streamlines(res.Streamlines, box, render.Options{
		Width:   *width,
		Height:  *height,
		Palette: pal,
		ColorBy: colorBy,
	})

	if err := writePPM(*out, img); err != nil {
		fmt.Fprintln(stderr, "slviz:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s: %d streamlines, %.1f%% pixel coverage\n",
		*out, len(res.Streamlines), img.Coverage()*100)
	return 0
}

// writePPM writes img to path as a binary PPM. A failed write or close
// is an error, so a short write never reports success.
func writePPM(path string, img *render.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := img.WritePPM(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
