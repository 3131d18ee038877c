package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
)

// withWorker runs body on one simulated processor wired exactly like the
// algorithms wire theirs (fabric endpoint, block cache, stats), so the
// memory-accounting internals can be exercised in isolation.
func withWorker(t *testing.T, p Problem, cfg Config, body func(r *runState, w *worker)) *runState {
	t.Helper()
	r := &runState{
		prob:    &p,
		cfg:     &cfg,
		kernel:  sim.New(),
		collect: metrics.NewCollector(1),
		procs:   make([]*sim.Proc, 1),
		workers: make([]*worker, 1),
	}
	r.fabric = comm.NewFabric(cfg.Net)
	var w *worker
	proc := r.kernel.Spawn("mem-test", func(proc *sim.Proc) { body(r, w) })
	w = r.newWorker(proc, 0, cfg.CacheBlocks)
	if err := r.kernel.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	return r
}

func TestAdoptReleaseSymmetry(t *testing.T) {
	p := testProblem(4)
	withWorker(t, p, testConfig(LoadOnDemand, 1), func(r *runState, w *worker) {
		sls := []*trace.Streamline{
			trace.New(0, vec.Of(0.5, 0.5, 0.5), 0),
			trace.New(1, vec.Of(1.5, 1.5, 1.5), 1),
		}
		sls[1].Append([]vec.V3{vec.Of(1.6, 1.5, 1.5), vec.Of(1.7, 1.5, 1.5)})
		var want int64
		for _, sl := range sls {
			w.adoptStreamline(sl)
			want += sl.MemoryBytes()
		}
		if w.geomBytes != want {
			t.Errorf("after adopt: geomBytes = %d, want %d", w.geomBytes, want)
		}
		for _, sl := range sls {
			w.releaseStreamline(sl)
		}
		if w.geomBytes != 0 {
			t.Errorf("after release: geomBytes = %d, want 0", w.geomBytes)
		}
	})
}

func TestAdvanceTracksGeometryGrowth(t *testing.T) {
	p := testProblem(4)
	withWorker(t, p, testConfig(LoadOnDemand, 1), func(r *runState, w *worker) {
		rec := r.seedRecords()[0]
		sl := trace.New(rec.id, rec.p, rec.block)
		w.adoptStreamline(sl)
		before := w.geomBytes
		ev := w.cache.Get(sl.Block)
		w.advance(sl, ev)
		if growth := w.geomBytes - before; growth != sl.MemoryBytes()-trace.StateBytes-trace.PointBytes {
			t.Errorf("geomBytes grew %d, streamline grew %d",
				growth, sl.MemoryBytes()-trace.StateBytes-trace.PointBytes)
		}
		if len(sl.Points) < 2 {
			t.Fatal("advance produced no geometry; growth check is vacuous")
		}
	})
}

func TestCheckMemoryTripsOOM(t *testing.T) {
	p := testProblem(4)
	cfg := testConfig(LoadOnDemand, 1)
	cfg.MemoryBudget = 1 // everything overflows
	r := withWorker(t, p, cfg, func(r *runState, w *worker) {
		sl := trace.New(0, vec.Of(0.5, 0.5, 0.5), 0)
		w.adoptStreamline(sl)
		if w.checkMemory("unit-test geometry") {
			t.Error("checkMemory passed with a 1-byte budget")
		}
		if !r.failed() {
			t.Error("run not marked failed after OOM")
		}
	})
	var oom *store.OOMError
	if !errors.As(r.err, &oom) {
		t.Fatalf("run error = %v, want OOMError", r.err)
	}
	if oom.Proc != 0 || !strings.Contains(oom.What, "unit-test geometry") {
		t.Errorf("OOM details wrong: %+v", oom)
	}
	if oom.NeededBytes <= oom.BudgetBytes {
		t.Errorf("OOM with needed %d <= budget %d", oom.NeededBytes, oom.BudgetBytes)
	}
	// Only the FIRST failure is kept: a later error must not overwrite.
	r.fail(errors.New("collateral deadlock"))
	if !errors.As(r.err, &oom) {
		t.Error("root-cause OOM was overwritten by a later failure")
	}
}

func TestCheckMemoryCountsCacheAndGeometry(t *testing.T) {
	p := testProblem(4)
	cfg := testConfig(LoadOnDemand, 1)
	blockBytes := p.Provider.Decomp().BlockBytes()
	// Budget fits two blocks but not two blocks plus a streamline.
	cfg.MemoryBudget = 2*blockBytes + 100
	withWorker(t, p, cfg, func(r *runState, w *worker) {
		w.cache.Get(0)
		w.cache.Get(1)
		if !w.checkMemory("blocks only") {
			t.Fatal("two blocks alone should fit")
		}
		sl := trace.New(0, vec.Of(0.5, 0.5, 0.5), 0)
		w.adoptStreamline(sl)
		if w.checkMemory("blocks plus streamline") {
			t.Error("blocks + streamline should exceed the budget")
		}
		if got := w.stats.PeakMemoryBytes; got != 2*blockBytes+sl.MemoryBytes() {
			t.Errorf("peak memory %d, want %d", got, 2*blockBytes+sl.MemoryBytes())
		}
	})
}

func TestPoolPendingAndWorkableRouting(t *testing.T) {
	p := testProblem(4)
	cfg := testConfig(LoadOnDemand, 1)
	cfg.CacheBlocks = 1
	withWorker(t, p, cfg, func(r *runState, w *worker) {
		pl := newPool(r, w)
		w.cache.Get(3) // block 3 resident
		inLoaded := trace.New(0, p.Provider.Decomp().Bounds(3).Center(), 3)
		elsewhere := trace.New(1, p.Provider.Decomp().Bounds(7).Center(), 7)
		pl.adopt(inLoaded)
		pl.adopt(elsewhere)
		if len(pl.workable) != 1 || len(pl.pending.get(7)) != 1 {
			t.Fatalf("routing wrong: workable=%d pending[7]=%d", len(pl.workable), len(pl.pending.get(7)))
		}
		if pl.active != 2 {
			t.Errorf("active = %d, want 2", pl.active)
		}
		// Evict block 3 by loading another block (capacity 1), then let
		// advanceOne discover the eviction: the streamline must fall back
		// to pending, not advance through a missing block.
		w.cache.Get(5)
		if w.cache.Has(3) {
			t.Fatal("block 3 not evicted; LRU capacity not enforced")
		}
		if terminated := pl.advanceOne(); terminated {
			t.Error("advanceOne terminated a streamline with its block missing")
		}
		if len(pl.pending.get(3)) != 1 {
			t.Errorf("evicted streamline not re-pended: pending[3]=%d", len(pl.pending.get(3)))
		}
		if w.stats.BlocksPurged == 0 {
			t.Error("eviction not counted toward block efficiency")
		}
	})
}

func TestPoolLoadBestPicksMostBlocked(t *testing.T) {
	p := testProblem(4)
	cfg := testConfig(LoadOnDemand, 1)
	withWorker(t, p, cfg, func(r *runState, w *worker) {
		pl := newPool(r, w)
		d := p.Provider.Decomp()
		// Two streamlines wait on block 9, one on block 2.
		pl.adopt(trace.New(0, d.Bounds(9).Center(), 9))
		pl.adopt(trace.New(1, d.Bounds(9).Center(), 9))
		pl.adopt(trace.New(2, d.Bounds(2).Center(), 2))
		pl.loadBest()
		if !w.cache.Has(9) {
			t.Error("loadBest did not read the most-blocked block")
		}
		if len(pl.workable) != 2 || pl.pending.len() != 1 {
			t.Errorf("after loadBest: workable=%d pending=%d", len(pl.workable), pl.pending.len())
		}
		// Tie: equal counts break toward the lower block ID.
		pl2 := newPool(r, w)
		push(&pl2.pending, 12, trace.New(3, d.Bounds(12).Center(), 12))
		push(&pl2.pending, 4, trace.New(4, d.Bounds(4).Center(), 4))
		pl2.active = 2
		pl2.loadBest()
		if !w.cache.Has(4) {
			t.Error("tie not broken toward the lower block ID")
		}
	})
}

func TestPoolLoadBestStuckFailsRun(t *testing.T) {
	p := testProblem(4)
	r := withWorker(t, p, testConfig(LoadOnDemand, 1), func(r *runState, w *worker) {
		pl := newPool(r, w)
		pl.active = 3 // bookkeeping claims work exists, but nothing is pending
		pl.loadBest()
		if !r.failed() {
			t.Error("stuck pool did not fail the run")
		}
	})
	if r.err == nil || !strings.Contains(r.err.Error(), "stuck") {
		t.Errorf("stuck error = %v", r.err)
	}
}

// TestPoolWorkerStuckFailsRun pins the bookkeeping guard of the shared
// pool-worker loop for both rows that run it: a pool claiming active
// streamlines with nothing workable, pending or parked is a bug, and
// must surface as the "stuck" error rather than a wait that only the
// kernel's deadlock report would end.
func TestPoolWorkerStuckFailsRun(t *testing.T) {
	for _, alg := range []Algorithm{LoadOnDemand, WorkStealing} {
		p := testProblem(4)
		r := withWorker(t, p, testConfig(alg, 1), func(r *runState, w *worker) {
			r.alg = policies[alg]
			r.poolWorkers = make([]*poolWorker, 1)
			pw := newPoolWorker(r, w, 0, 1)
			pw.pool.active = 3
			pw.run(nil)
		})
		if r.err == nil || !strings.Contains(r.err.Error(), "stuck with 3 active") {
			t.Errorf("%s: stuck error = %v", alg, r.err)
		}
	}
}

func TestPoolLoadBestChargesBudget(t *testing.T) {
	// The loadBest I/O path must hit the memory check: a cache read that
	// overflows the budget kills the run with the block named.
	p := testProblem(4)
	cfg := testConfig(LoadOnDemand, 1)
	cfg.MemoryBudget = p.Provider.Decomp().BlockBytes() / 2
	r := withWorker(t, p, cfg, func(r *runState, w *worker) {
		pl := newPool(r, w)
		push(&pl.pending, 0, trace.New(0, vec.Of(0.5, 0.5, 0.5), 0))
		pl.active = 1
		pl.loadBest()
	})
	var oom *store.OOMError
	if !errors.As(r.err, &oom) || !strings.Contains(oom.What, "block cache") {
		t.Fatalf("err = %v, want block-cache OOM", r.err)
	}
}

func TestSendStreamlinesReleasesMemory(t *testing.T) {
	// Migrating a streamline away must release its memory accounting on
	// the sender — otherwise Static's communication would OOM senders.
	p := testProblem(4)
	cfg := testConfig(StaticAlloc, 2)
	r := &runState{
		prob:    &p,
		cfg:     &cfg,
		kernel:  sim.New(),
		collect: metrics.NewCollector(2),
		procs:   make([]*sim.Proc, 2),
		workers: make([]*worker, 2),
	}
	r.fabric = comm.NewFabric(cfg.Net)
	var w0, w1 *worker
	proc0 := r.kernel.Spawn("sender", func(proc *sim.Proc) {
		sl := trace.New(0, vec.Of(0.5, 0.5, 0.5), 0)
		sl.Append([]vec.V3{vec.Of(0.6, 0.5, 0.5)})
		w0.adoptStreamline(sl)
		w0.sendStreamlines(1, []*trace.Streamline{sl})
		if w0.geomBytes != 0 {
			t.Errorf("sender retained %d bytes after migration", w0.geomBytes)
		}
	})
	proc1 := r.kernel.Spawn("receiver", func(proc *sim.Proc) {
		env := w1.end.Recv()
		m := env.Payload.(msgStreamlines)
		for _, sl := range m.sls {
			w1.adoptStreamline(sl)
		}
		if w1.geomBytes == 0 {
			t.Error("receiver adopted nothing")
		}
	})
	w0 = r.newWorker(proc0, 0, 0)
	w1 = r.newWorker(proc1, 1, 0)
	if err := r.kernel.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}
