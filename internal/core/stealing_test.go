package core

import (
	"errors"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/seeds"
	"repro/internal/store"
	"repro/internal/vec"
)

// denseProblem concentrates every seed in one block — the workload that
// leaves a 1/n split maximally imbalanced unless streamlines migrate.
func denseProblem(nSeeds int) Problem {
	f := field.DefaultABC()
	d := grid.NewDecomposition(f.Bounds(), 4, 4, 4, 16)
	center := d.Bounds(d.ID(2, 1, 2)).Center()
	return Problem{
		Provider: grid.AnalyticProvider{F: f, D: d},
		Seeds:    seeds.DenseCluster(f.Bounds(), center, 0.05, nSeeds, 23),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.05},
		MaxSteps: 150,
	}
}

func TestStealingBalancesDenseSeeds(t *testing.T) {
	// All seeds sort into one block, so the plain 1/n split gives nearly
	// all early work to few processors; stealing must spread it.
	p := denseProblem(120)
	res := mustRun(t, p, testConfig(WorkStealing, 6))
	if res.Summary.StreamlinesCompleted != 120 {
		t.Fatalf("completed %d/120", res.Summary.StreamlinesCompleted)
	}
	if res.Summary.StealHits == 0 {
		t.Error("no successful steals on a maximally imbalanced workload")
	}
	busy := 0
	for _, ps := range res.PerProc {
		if ps.Steps > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d processors integrated; stealing did not distribute work", busy)
	}
}

// imbalancedProblem mixes short- and long-lived streamlines in separate
// spatial clusters: corner seeds orbit out of the box within a fraction
// of a revolution, center seeds circle until the step budget. The
// block-grouped 1/n split hands each cluster to different processors, so
// per-processor work differs wildly — the regime stealing exists for.
func imbalancedProblem(nSeeds int) Problem {
	f := field.Rotation{Omega: 1, Box: vec.Box(vec.Of(-1, -1, -0.2), vec.Of(1, 1, 0.2))}
	d := grid.NewDecomposition(f.Bounds(), 4, 4, 1, 16)
	short := seeds.DenseCluster(f.Bounds(), vec.Of(0.85, 0.85, 0), 0.05, nSeeds/2, 31)
	long := seeds.DenseCluster(f.Bounds(), vec.Of(0.3, 0, 0), 0.05, nSeeds-nSeeds/2, 37)
	return Problem{
		Provider: grid.AnalyticProvider{F: f, D: d},
		Seeds:    append(short, long...),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.05},
		MaxSteps: 500,
	}
}

func TestStealingBeatsOnDemandWhenImbalanced(t *testing.T) {
	// The point of stealing over Load On Demand: same 1/n split, same
	// caches, but processors whose short-lived streamlines finish early
	// pull work from the ones stuck with the long orbits.
	p := imbalancedProblem(120)
	lod := mustRun(t, p, testConfig(LoadOnDemand, 6))
	st := mustRun(t, p, testConfig(WorkStealing, 6))
	if st.Summary.WallClock >= lod.Summary.WallClock {
		t.Errorf("stealing wall %.4f not below ondemand wall %.4f on an imbalanced workload",
			st.Summary.WallClock, lod.Summary.WallClock)
	}
	if st.Summary.StealHits == 0 {
		t.Error("no successful steals despite the imbalance")
	}
}

func TestStealingTokenRing(t *testing.T) {
	// Termination is decentralized: the token must actually circulate,
	// and every processor (not just processor 0) takes part.
	p := testProblem(40)
	res := mustRun(t, p, testConfig(WorkStealing, 5))
	if res.Summary.TokensPassed == 0 {
		t.Error("token never circulated")
	}
	passers := 0
	for _, ps := range res.PerProc {
		if ps.TokensPassed > 0 {
			passers++
		}
	}
	if passers < 2 {
		t.Errorf("only %d processors passed the token; the ring is not decentralized", passers)
	}
}

func TestStealingSurvivesDenseBudget(t *testing.T) {
	// The even split plus migration keeps per-processor geometry bounded
	// where Static Allocation's owner-concentration blows the budget
	// (same setup as TestStaticOOMOnDenseSeeds).
	f := field.DefaultABC()
	d := grid.NewDecomposition(f.Bounds(), 4, 4, 4, 16)
	center := d.Bounds(d.ID(1, 1, 1)).Center()
	p := Problem{
		Provider: grid.AnalyticProvider{F: f, D: d},
		Seeds:    seeds.DenseCluster(f.Bounds(), center, 0.05, 400, 7),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.01},
		MaxSteps: 60,
	}
	const budget = 600_000
	cfgS := testConfig(StaticAlloc, 4)
	cfgS.MemoryBudget = budget
	var oom *store.OOMError
	if _, err := Run(p, cfgS); !errors.As(err, &oom) {
		t.Fatalf("static err = %v, want OOMError", err)
	}
	cfgW := testConfig(WorkStealing, 4)
	cfgW.MemoryBudget = budget
	cfgW.CacheBlocks = 1
	if _, err := Run(p, cfgW); err != nil {
		t.Errorf("stealing with same budget failed: %v", err)
	}
}
