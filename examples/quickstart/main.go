// Quickstart: compute streamlines in a simple analytic field with each of
// the four parallel algorithms and compare their profiles.
//
//	go run ./examples/quickstart
//
// This is the smallest end-to-end use of the library: build a field,
// decompose it into blocks, seed some streamlines, pick an algorithm, and
// run it on the simulated cluster.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/seeds"
	"repro/internal/store"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// The ABC flow: a classic chaotic incompressible field.
	f := field.DefaultABC()

	// Decompose its domain into 4×4×4 blocks of 16^3 cells.
	decomp := grid.NewDecomposition(f.Bounds(), 4, 4, 4, 16)

	// 200 seeds scattered through the interior.
	prob := core.Problem{
		Provider: grid.AnalyticProvider{F: f, D: decomp},
		Seeds:    seeds.SparseRandom(f.Bounds().Expand(-0.5), 200, 42),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.05},
		MaxSteps: 500,
	}

	var rows []metrics.TableRow
	for _, alg := range core.Algorithms() {
		cfg := core.Config{
			Procs:       8,
			Algorithm:   alg,
			Disk:        store.DefaultDisk(),
			Net:         comm.DefaultNetwork(),
			CacheBlocks: 8,
		}
		res, err := core.Run(prob, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		rows = append(rows, metrics.TableRow{Label: string(alg), Summary: res.Summary})
	}
	fmt.Fprint(w, metrics.Table(rows, []string{"wall", "io", "comm", "efficiency", "msgs"}))

	// Collect the actual geometry once, with the hybrid algorithm.
	cfg := core.Config{
		Procs:         8,
		Algorithm:     core.HybridMS,
		Disk:          store.DefaultDisk(),
		Net:           comm.DefaultNetwork(),
		CacheBlocks:   8,
		CollectTraces: true,
	}
	res, err := core.Run(prob, cfg)
	if err != nil {
		return err
	}
	long := res.Streamlines[0]
	for _, sl := range res.Streamlines {
		if sl.ArcLength() > long.ArcLength() {
			long = sl
		}
	}
	fmt.Fprintf(w, "\nlongest streamline: id=%d, %d points, arc length %.2f, status %v\n",
		long.ID, len(long.Points), long.ArcLength(), long.Status)
	return nil
}
