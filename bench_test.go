// Benchmarks of the design choices called out in DESIGN.md §5 (the
// ablations) at the small scale, reporting simulated metrics as custom
// benchmark outputs (vwall-s, vio-s, vcomm-s, E), and three substrate
// probes bench/probes.go does not report. Host time of the campaigns
// themselves is measured in one place, the nested bench/ module, under
// the names BENCHMARK.json declares; the paper's figures are
// `slbench -scale small` tables.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/metrics"
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
