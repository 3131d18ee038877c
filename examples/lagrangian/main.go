// Lagrangian analysis: the workload class the paper's introduction
// motivates ("Finite-Time Lyapunov Exponents and Lagrangian Coherent
// Structures... can require many thousands to millions of streamlines").
// This example computes an FTLE slice of the ABC flow, a Poincaré
// puncture plot of the tokamak field, and a pathline-vs-streamline I/O
// comparison (the paper's §8 extension).
//
//	go run ./examples/lagrangian
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
)

func main() {
	// --- FTLE of the ABC flow (a chaotic benchmark field) ---
	abc := field.DefaultABC()
	slab := vec.Box(vec.Of(0.5, 0.5, 3.0), vec.Of(5.8, 5.8, 3.2))
	ftle := analysis.FTLE(abc, slab, 24, 24, 1, analysis.FTLEOptions{
		T:       4,
		IntOpts: integrate.Options{Tol: 1e-6},
	})
	lo, hi := ftle.MinMax()
	fmt.Printf("FTLE of the ABC flow on a %dx%d slice: range [%.3f, %.3f]\n", ftle.NX, ftle.NY, lo, hi)
	fmt.Println("(ridges of this field are the Lagrangian coherent structures)")
	// Tiny ASCII rendering of the ridge structure.
	for j := 0; j < ftle.NY; j += 2 {
		row := make([]byte, ftle.NX)
		for i := 0; i < ftle.NX; i++ {
			v := ftle.At(i, j, 0)
			ramp := " .:-=+*#%@"
			idx := 0
			if !math.IsNaN(v) && hi > lo {
				idx = int((v - lo) / (hi - lo) * 9.99)
			}
			if idx < 0 {
				idx = 0
			}
			if idx > 9 {
				idx = 9
			}
			row[i] = ramp[idx]
		}
		fmt.Println(string(row))
	}

	// --- Poincaré puncture plot of the tokamak ---
	tok := field.DefaultTokamak()
	solver := integrate.NewDoPri5(integrate.Options{Tol: 1e-7, HMax: 0.02})
	var sls []*trace.Streamline
	for i := 0; i < 6; i++ {
		r := 0.05 + 0.035*float64(i)
		start := vec.Of(tok.MajorRadius+r, 0, 0)
		res := solver.Advect(tok, start, 0, integrate.AdvectLimits{
			Bounds:   tok.Bounds(),
			MaxSteps: 12000,
		})
		sl := trace.New(i, start, 0)
		sl.Append(res.Points)
		sls = append(sls, sl)
		solver.H = 0 // fresh step size per field line
	}
	plane := analysis.Plane{Point: vec.Of(0, 0, 0), Normal: vec.Of(0, 1, 0)}
	punctures := analysis.Punctures(sls, plane)
	fmt.Printf("\nPoincaré section (y=0 plane): %d punctures from %d field lines\n",
		len(punctures), len(sls))
	inside := 0
	for _, p := range punctures {
		if tok.InsideTorus(p.P) {
			inside++
		}
	}
	fmt.Printf("%d/%d punctures inside the plasma cross-section (nested invariant tori)\n",
		inside, len(punctures))

	// --- Pathlines: the §8 I/O problem, quantified ---
	steady, sliced, d, err := pathlineReads()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npathlines through %d time slices: %d block-slice reads (%d MB)\n",
		d.TimeSlices, sliced, sliced*d.BlockBytes()>>20)
	fmt.Printf("equivalent steady streamlines:    %d block reads\n", steady)
	fmt.Printf("I/O amplification: %.1fx — the \"many small reads\" problem of the paper's §8\n",
		float64(sliced)/float64(steady))
}

// pathlineReads traces the same three field lines on one Load-On-Demand
// processor, first through the sawtooth tokamak frozen at t=0 (steady
// blocks), then through the same field time-sliced into 20 epochs, and
// returns the block reads of each run with the sliced decomposition.
// Every (block, epoch) pair is its own unit of I/O (DESIGN.md §7), so a
// pathline re-reads each spatial block once per epoch it spends there.
func pathlineReads() (steady, sliced int64, d grid.Decomposition, err error) {
	saw := field.DefaultSawtoothTokamak()
	d = grid.NewDecomposition(saw.Bounds(), 4, 4, 2, 16)
	prob := core.Problem{
		Provider: grid.AnalyticProvider{F: saw, D: d},
		Seeds: []vec.V3{
			vec.Of(saw.MajorRadius+0.05, 0, 0),
			vec.Of(saw.MajorRadius+0.12, 0, 0),
			vec.Of(saw.MajorRadius-0.08, 0, 0.05),
		},
		IntOpts:  integrate.Options{Tol: 1e-6, HMax: 0.05},
		MaxSteps: 50000,
	}
	_, prob.MaxTime = saw.TimeRange()
	cfg := core.Config{Procs: 1, Algorithm: core.LoadOnDemand, Disk: store.DefaultDisk()}
	res, err := core.Run(prob, cfg)
	if err != nil {
		return 0, 0, d, err
	}
	steady = res.Summary.BlocksLoaded
	d.TimeSlices = 21 // 20 epochs
	d.T0, d.T1 = saw.TimeRange()
	prob.Provider = grid.AnalyticProviderT{F: saw, D: d}
	if res, err = core.Run(prob, cfg); err != nil {
		return 0, 0, d, err
	}
	return steady, res.Summary.BlocksLoaded, d, nil
}
