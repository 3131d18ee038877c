// Benchmarks of the design choices called out in DESIGN.md §5 (the
// ablations) and one benchmark per extension campaign, at the small
// scale, reporting simulated metrics as custom benchmark outputs
// (vwall-s, vio-s, vcomm-s, E); real time measures the simulator's own
// cost. The paper's figures are `slbench -scale small` tables and the
// benchmark's paper_sweep workload; the per-layer micro-benchmarks live
// in bench/probes.go, under the names BENCHMARK.json declares.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/seeds"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
)

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationHybridParams sweeps the hybrid tuning constants around
// the paper's published values (N=10, NO=200, NL=40, W=32).
func BenchmarkAblationHybridParams(b *testing.B) {
	sc := experiments.SmallScale()
	prob, err := experiments.BuildProblem(experiments.Astro, experiments.Sparse, sc)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		hp   core.HybridParams
	}{
		{"paper_N10_NO200_NL40", core.HybridParams{N: 10, NO: 200, NL: 40, W: 8}},
		{"N2", core.HybridParams{N: 2, NO: 40, NL: 40, W: 8}},
		{"N50", core.HybridParams{N: 50, NO: 1000, NL: 40, W: 8}},
		{"NL5", core.HybridParams{N: 10, NO: 200, NL: 5, W: 8}},
		{"NL1000", core.HybridParams{N: 10, NO: 200, NL: 1000, W: 8}},
		{"W4", core.HybridParams{N: 10, NO: 200, NL: 40, W: 4}},
		{"W30", core.HybridParams{N: 10, NO: 200, NL: 40, W: 30}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := experiments.MachineConfig(core.HybridMS, 16, sc)
			cfg.Hybrid = tc.hp
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				res, err := core.Run(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				s = res.Summary
			}
			b.ReportMetric(s.WallClock, "vwall-s")
			b.ReportMetric(s.TotalComm, "vcomm-s")
			b.ReportMetric(s.BlockEfficiency, "E")
		})
	}
}

// BenchmarkAblationCacheSize sweeps the Load-On-Demand LRU capacity on
// the fusion dataset (the working-set effect of Section 5.2).
func BenchmarkAblationCacheSize(b *testing.B) {
	sc := experiments.SmallScale()
	prob, err := experiments.BuildProblem(experiments.Fusion, experiments.Dense, sc)
	if err != nil {
		b.Fatal(err)
	}
	for _, cache := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("blocks%d", cache), func(b *testing.B) {
			cfg := experiments.MachineConfig(core.LoadOnDemand, 16, sc)
			cfg.CacheBlocks = cache
			cfg.MemoryBudget = 0
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				res, err := core.Run(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				s = res.Summary
			}
			b.ReportMetric(s.TotalIO, "vio-s")
			b.ReportMetric(s.BlockEfficiency, "E")
		})
	}
}

// BenchmarkAblationStealBatch sweeps the work-stealing batch size on the
// dense astro seeding (the workload whose imbalance drives steal
// traffic): batch 1 maximizes probe round-trips, large batches risk
// re-imbalancing the ring with every transfer.
func BenchmarkAblationStealBatch(b *testing.B) {
	sc := experiments.SmallScale()
	prob, err := experiments.BuildProblem(experiments.Astro, experiments.Dense, sc)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			cfg := experiments.MachineConfig(core.WorkStealing, 16, sc)
			cfg.Steal.Batch = batch
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				res, err := core.Run(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				s = res.Summary
			}
			b.ReportMetric(s.WallClock, "vwall-s")
			b.ReportMetric(s.TotalComm, "vcomm-s")
			b.ReportMetric(float64(s.StealHits), "steals")
			b.ReportMetric(float64(s.StealAttempts), "probes")
		})
	}
}

// BenchmarkAblationLightweightComm compares full-geometry streamline
// communication against the paper's §8 solver-state-only proposal.
func BenchmarkAblationLightweightComm(b *testing.B) {
	sc := experiments.SmallScale()
	prob, err := experiments.BuildProblem(experiments.Astro, experiments.Dense, sc)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		noGeometry bool
	}{{"geometry", false}, {"state-only", true}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := experiments.MachineConfig(core.StaticAlloc, 16, sc)
			cfg.NoGeometry = tc.noGeometry
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				res, err := core.Run(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				s = res.Summary
			}
			b.ReportMetric(s.TotalComm, "vcomm-s")
			b.ReportMetric(float64(s.BytesSent)/1e6, "vMB-sent")
		})
	}
}

// BenchmarkAblationSharedDisk compares independent per-processor disks
// against a contended parallel filesystem.
func BenchmarkAblationSharedDisk(b *testing.B) {
	sc := experiments.SmallScale()
	prob, err := experiments.BuildProblem(experiments.Astro, experiments.Sparse, sc)
	if err != nil {
		b.Fatal(err)
	}
	for _, servers := range []int{0, 2, 8, 32} {
		name := "independent"
		if servers > 0 {
			name = fmt.Sprintf("servers%d", servers)
		}
		b.Run(name, func(b *testing.B) {
			cfg := experiments.MachineConfig(core.LoadOnDemand, 32, sc)
			cfg.DiskServers = servers
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				res, err := core.Run(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				s = res.Summary
			}
			b.ReportMetric(s.WallClock, "vwall-s")
			b.ReportMetric(s.TotalIO, "vio-s")
		})
	}
}

// BenchmarkCampaignWorkers measures the host-parallel campaign engine:
// the full 36-cell small-scale evaluation executed serially (j1) versus
// one worker per CPU core (jN). Real time is the metric here — the
// simulated results are bit-identical by construction (see
// experiments.TestParallelCampaignMatchesSerial).
func BenchmarkCampaignWorkers(b *testing.B) {
	sc := experiments.SmallScale()
	// One proc count keeps a single benchmark iteration tractable while
	// still exercising every dataset, seeding and algorithm.
	sc.ProcCounts = []int{sc.ProcCounts[len(sc.ProcCounts)/2]}
	for _, j := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := experiments.NewCampaign(sc)
				c.Workers = j
				c.RunAll()
			}
		})
	}
}

// BenchmarkTrilinearInterp prices one sampled-block query, the one
// substrate bench/probes.go does not report.
func BenchmarkTrilinearInterp(b *testing.B) {
	f := field.DefaultABC()
	d := grid.NewDecomposition(f.Bounds(), 1, 1, 1, 32)
	blk := grid.SampleBlock(f, d, 0)
	pts := seeds.SparseRandom(f.Bounds(), 1024, 7)
	b.ResetTimer()
	var sink vec.V3
	for i := 0; i < b.N; i++ {
		sink = blk.Eval(pts[i%len(pts)])
	}
	_ = sink
}

// BenchmarkStreamlineUnmarshal prices decoding a 1000-point streamline,
// the half of the wire codec bench/probes.go does not report
// (trace.marshal_ns_per_point is the encode).
func BenchmarkStreamlineUnmarshal(b *testing.B) {
	sl := trace.New(1, vec.Of(0.5, 0.5, 0.5), 0)
	pts := make([]vec.V3, 1000)
	for i := range pts {
		pts[i] = vec.Of(float64(i), float64(i)*2, float64(i)*3)
	}
	sl.Append(pts)
	data := sl.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathlineIOAmplification quantifies the paper's §8 observation:
// pathlines through a time-sliced dataset need many more (smaller) reads
// than steady streamlines over the same geometry.
func BenchmarkPathlineIOAmplification(b *testing.B) {
	saw := field.DefaultSawtoothTokamak()
	d := grid.NewDecomposition(saw.Bounds(), 4, 4, 2, 16)
	steady := core.Problem{
		Provider: grid.AnalyticProvider{F: saw, D: d},
		Seeds: []vec.V3{
			vec.Of(saw.MajorRadius+0.05, 0, 0),
			vec.Of(saw.MajorRadius+0.12, 0, 0),
		},
		IntOpts:  integrate.Options{Tol: 1e-6, HMax: 0.05},
		MaxSteps: 50000,
	}
	_, steady.MaxTime = saw.TimeRange()
	d.TimeSlices = 21
	d.T0, d.T1 = saw.TimeRange()
	sliced := steady
	sliced.Provider = grid.AnalyticProviderT{F: saw, D: d}
	cfg := core.Config{Procs: 1, Algorithm: core.LoadOnDemand, Disk: store.DefaultDisk()}
	loads := func(p core.Problem) float64 {
		res, err := core.Run(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.Summary.BlocksLoaded)
	}
	var amplification float64
	for i := 0; i < b.N; i++ {
		amplification = loads(sliced) / loads(steady)
	}
	b.ReportMetric(amplification, "io-amplification")
}

// BenchmarkPrefetchCampaign compares the asynchronous-prefetch policies
// (DESIGN.md §8) on the Load-On-Demand astro cell, steady (off vs
// neighbor) and unsteady (off vs temporal), reporting the simulated
// stall, hidden-read time and prediction accuracy of each.
func BenchmarkPrefetchCampaign(b *testing.B) {
	sc := experiments.SmallScale()
	procs := sc.ProcCounts[len(sc.ProcCounts)/2]
	steady, err := experiments.BuildProblem(experiments.Astro, experiments.Sparse, sc)
	if err != nil {
		b.Fatal(err)
	}
	unsteady, err := experiments.BuildInjectedProblem(experiments.Astro, experiments.Sparse, sc, true, experiments.InjectT0)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name     string
		prob     core.Problem
		unsteady bool
		policy   prefetch.Policy
	}{
		{"steady-off", steady, false, prefetch.Off},
		{"steady-neighbor", steady, false, prefetch.Neighbor},
		{"unsteady-off", unsteady, true, prefetch.Off},
		{"unsteady-temporal", unsteady, true, prefetch.Temporal},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := experiments.KeyMachineConfig(experiments.Key{
				Dataset: experiments.Astro, Seeding: experiments.Sparse,
				Alg: core.LoadOnDemand, Procs: procs,
				Unsteady: tc.unsteady, Prefetch: tc.policy,
			}, sc)
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				res, err := core.Run(tc.prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				s = res.Summary
			}
			b.ReportMetric(s.WallClock, "vwall-s")
			b.ReportMetric(s.TotalIO, "vio-s")
			b.ReportMetric(s.IOHiddenTime, "vhidden-s")
			b.ReportMetric(float64(s.PrefetchHits), "hits")
			b.ReportMetric(float64(s.PrefetchIssued), "issued")
		})
	}
}

// BenchmarkInjectionCampaign compares the seed-release schedules
// (DESIGN.md §9) on the Load-On-Demand astro cell: the paper's
// all-at-t0 release against uniform staggering and burst waves,
// reporting the simulated wall clock, the peak simultaneous working
// population and the release-stall profile of each.
func BenchmarkInjectionCampaign(b *testing.B) {
	sc := experiments.SmallScale()
	procs := sc.ProcCounts[len(sc.ProcCounts)/2]
	for _, inj := range []experiments.Injection{
		experiments.InjectT0, experiments.InjectStagger, experiments.InjectBurst,
	} {
		name := string(inj)
		if !inj.Enabled() {
			name = "t0"
		}
		b.Run(name, func(b *testing.B) {
			prob, err := experiments.BuildInjectedProblem(experiments.Astro, experiments.Sparse, sc, false, inj)
			if err != nil {
				b.Fatal(err)
			}
			cfg := experiments.MachineConfig(core.LoadOnDemand, procs, sc)
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				res, err := core.Run(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				s = res.Summary
			}
			b.ReportMetric(s.WallClock, "vwall-s")
			b.ReportMetric(float64(s.ActivePeak), "apeak")
			b.ReportMetric(float64(s.ReleaseStalls), "rstalls")
			b.ReportMetric(s.ReleaseStallTime, "vstall-s")
		})
	}
}

// BenchmarkFaultRecoveryCampaign runs the three recoverable algorithms
// on the astro cell with the kill plan armed (DESIGN.md §11) against
// their fault-free baselines, reporting the simulated wall clock and
// the recovery counters — the cost of losing the worst-case processor
// (the hybrid coordinator and the stealing ring's initial token
// holder) mid-run.
func BenchmarkFaultRecoveryCampaign(b *testing.B) {
	sc := experiments.SmallScale()
	procs := sc.ProcCounts[len(sc.ProcCounts)/2]
	prob, err := experiments.BuildProblem(experiments.Astro, experiments.Sparse, sc)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.LoadOnDemand, core.WorkStealing, core.HybridMS} {
		for _, fm := range []experiments.FaultMode{experiments.FaultsOff, experiments.FaultsKill} {
			name := string(alg) + "-free"
			if fm.Enabled() {
				name = string(alg) + "-kill"
			}
			b.Run(name, func(b *testing.B) {
				cfg := experiments.KeyMachineConfig(experiments.Key{
					Dataset: experiments.Astro, Seeding: experiments.Sparse,
					Alg: alg, Procs: procs, Faults: fm,
				}, sc)
				var s metrics.Summary
				for i := 0; i < b.N; i++ {
					res, err := core.Run(prob, cfg)
					if err != nil {
						b.Fatal(err)
					}
					s = res.Summary
				}
				b.ReportMetric(s.WallClock, "vwall-s")
				b.ReportMetric(float64(s.ProcsLost), "lost")
				b.ReportMetric(float64(s.SeedsAdopted), "adopted")
				b.ReportMetric(float64(s.RingReforms), "reforms")
				b.ReportMetric(float64(s.MasterFailovers), "failovers")
			})
		}
	}
}

// BenchmarkUnsteadyCampaign runs the unsteady (pathline) astro cell for
// every algorithm, reporting the simulated cost of the time dimension:
// the same seeds and spatial decomposition as the steady Figure 5-8
// cell, but traced through space-time blocks (DESIGN.md §7).
func BenchmarkUnsteadyCampaign(b *testing.B) {
	sc := experiments.SmallScale()
	procs := sc.ProcCounts[len(sc.ProcCounts)/2]
	prob, err := experiments.BuildInjectedProblem(experiments.Astro, experiments.Sparse, sc, true, experiments.InjectT0)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range core.Algorithms() {
		b.Run(string(alg), func(b *testing.B) {
			cfg := experiments.KeyMachineConfig(experiments.Key{Alg: alg, Procs: procs, Unsteady: true}, sc)
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				res, err := core.Run(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				s = res.Summary
			}
			b.ReportMetric(s.WallClock, "vwall-s")
			b.ReportMetric(s.TotalIO, "vio-s")
			b.ReportMetric(float64(s.EpochCrossings), "epochs")
		})
	}
}
