// Work stealing: the decentralized fourth algorithm (DESIGN.md §6).
// A rotation field splits the seeds into two populations — corner seeds
// whose orbits leave the box almost immediately, and center seeds that
// circle until the step budget — so the block-grouped 1/n split leaves
// some processors idle while others grind. This example shows Load On
// Demand stuck with that imbalance, work stealing dissolving it, the
// steal/token counters that expose the protocol (steals prints
// hits/probes).
//
//	go run ./examples/stealing
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
	"repro/internal/vec"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Two seed clusters with wildly different streamline lifetimes.
	f := field.Rotation{Omega: 1, Box: vec.Box(vec.Of(-1, -1, -0.2), vec.Of(1, 1, 0.2))}
	d := grid.NewDecomposition(f.Bounds(), 4, 4, 1, 16)
	short := seeds.DenseCluster(f.Bounds(), vec.Of(0.85, 0.85, 0), 0.05, 100, 31)
	long := seeds.DenseCluster(f.Bounds(), vec.Of(0.3, 0, 0), 0.05, 100, 37)
	prob := core.Problem{
		Provider: grid.AnalyticProvider{F: f, D: d},
		Seeds:    append(short, long...),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.05},
		MaxSteps: 500,
	}

	config := func(alg core.Algorithm) core.Config {
		return core.Config{
			Procs:       8,
			Algorithm:   alg,
			Disk:        store.DefaultDisk(),
			Net:         comm.DefaultNetwork(),
			CacheBlocks: 8,
		}
	}

	fmt.Fprintln(w, "imbalanced workload: 100 short-lived + 100 long-lived streamlines")
	var rows []metrics.TableRow
	var perAlg [2][]int64
	for i, alg := range []core.Algorithm{core.LoadOnDemand, core.WorkStealing} {
		res, err := core.Run(prob, config(alg))
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		rows = append(rows, metrics.TableRow{Label: string(alg), Summary: res.Summary})
		for _, ps := range res.PerProc {
			perAlg[i] = append(perAlg[i], ps.Steps)
		}
	}
	fmt.Fprint(w, metrics.Table(rows, []string{"wall", "io", "imbalance", "steals", "tokens"}))

	// The same runs, processor by processor: without stealing, the
	// processors owning the long orbits do essentially all the steps.
	fmt.Fprintln(w, "\nper-processor integration steps (ondemand vs stealing):")
	fmt.Fprintf(w, "%-10s", "proc")
	for p := range perAlg[0] {
		fmt.Fprintf(w, "%8d", p)
	}
	fmt.Fprintf(w, "\n%-10s", "ondemand")
	for _, v := range perAlg[0] {
		fmt.Fprintf(w, "%8d", v)
	}
	fmt.Fprintf(w, "\n%-10s", "stealing")
	for _, v := range perAlg[1] {
		fmt.Fprintf(w, "%8d", v)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "\n(all four algorithms produce bit-identical geometry; see")
	fmt.Fprintln(w, " TestAlgorithmEquivalence — stealing changes who integrates, not what)")
	return nil
}
