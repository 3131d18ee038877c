package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/seeds"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
)

// testProblem builds a small but non-trivial workload: the ABC flow over
// a 4×4×4 block decomposition with seeds spread through the domain.
func testProblem(nSeeds int) Problem {
	f := field.DefaultABC()
	d := grid.NewDecomposition(f.Bounds(), 4, 4, 4, 16)
	return Problem{
		Provider: grid.AnalyticProvider{F: f, D: d},
		Seeds:    seeds.SparseRandom(f.Bounds().Expand(-0.5), nSeeds, 101),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.05},
		MaxSteps: 150,
	}
}

func testConfig(alg Algorithm, procs int) Config {
	return Config{
		Procs:       procs,
		Algorithm:   alg,
		Disk:        store.DiskModel{LatencySec: 0.005, BandwidthBytesSec: 500e6},
		Net:         Config{}.Net, // zero net: filled below
		CacheBlocks: 8,
		Hybrid:      HybridParams{N: 4, NO: 80, NL: 8, W: 8},
	}
}

func mustRun(t *testing.T, p Problem, cfg Config) *Result {
	t.Helper()
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("Run(%s/%d): %v", cfg.Algorithm, cfg.Procs, err)
	}
	return res
}

func TestValidation(t *testing.T) {
	p := testProblem(10)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := p
	bad.Seeds = nil
	if _, err := Run(bad, testConfig(StaticAlloc, 2)); err == nil {
		t.Error("empty seeds accepted")
	}
	bad = p
	bad.Seeds = []vec.V3{vec.Of(100, 100, 100)}
	if _, err := Run(bad, testConfig(StaticAlloc, 2)); err == nil {
		t.Error("out-of-domain seed accepted")
	}
	bad = p
	bad.Provider = nil
	if _, err := Run(bad, testConfig(StaticAlloc, 2)); err == nil {
		t.Error("nil provider accepted")
	}
	cfg := testConfig(StaticAlloc, 0)
	if _, err := Run(p, cfg); err == nil {
		t.Error("zero procs accepted")
	}
	cfg = testConfig(Algorithm("bogus"), 2)
	if _, err := Run(p, cfg); err == nil {
		t.Error("unknown algorithm accepted")
	}
	cfg = testConfig(HybridMS, 1)
	if _, err := Run(p, cfg); err == nil {
		t.Error("hybrid with one processor accepted")
	}
}

func TestAllSeedsComplete(t *testing.T) {
	p := testProblem(60)
	for _, alg := range Algorithms() {
		for _, procs := range []int{2, 4, 7} {
			cfg := testConfig(alg, procs)
			cfg.CollectTraces = true
			res := mustRun(t, p, cfg)
			if got := res.Summary.StreamlinesCompleted; got != 60 {
				t.Errorf("%s/%d: completed %d, want 60", alg, procs, got)
			}
			if len(res.Streamlines) != 60 {
				t.Errorf("%s/%d: collected %d traces", alg, procs, len(res.Streamlines))
			}
			for i, sl := range res.Streamlines {
				if sl.ID != i {
					t.Fatalf("%s/%d: trace %d has ID %d", alg, procs, i, sl.ID)
				}
				if !sl.Status.Terminated() {
					t.Errorf("%s/%d: streamline %d not terminated: %v", alg, procs, i, sl.Status)
				}
				if len(sl.Points) < 2 {
					t.Errorf("%s/%d: streamline %d has no geometry", alg, procs, i)
				}
			}
		}
	}
}

// TestAlgorithmEquivalence is the central correctness property: the
// parallelization strategy must not change the numerics. All four
// algorithms, at several processor counts, must produce bit-identical
// streamline geometry.
func TestAlgorithmEquivalence(t *testing.T) {
	p := testProblem(40)

	var reference []*trace.Streamline
	for _, alg := range Algorithms() {
		for _, procs := range []int{2, 5} {
			cfg := testConfig(alg, procs)
			cfg.CollectTraces = true
			res := mustRun(t, p, cfg)
			if reference == nil {
				reference = res.Streamlines
				continue
			}
			for i, sl := range res.Streamlines {
				ref := reference[i]
				if sl.ID != ref.ID {
					t.Fatalf("%s/%d: ID mismatch %d vs %d", alg, procs, sl.ID, ref.ID)
				}
				if len(sl.Points) != len(ref.Points) {
					t.Fatalf("%s/%d: streamline %d has %d points, reference %d",
						alg, procs, sl.ID, len(sl.Points), len(ref.Points))
				}
				for j := range sl.Points {
					if sl.Points[j] != ref.Points[j] {
						t.Fatalf("%s/%d: streamline %d point %d differs: %v vs %v",
							alg, procs, sl.ID, j, sl.Points[j], ref.Points[j])
					}
				}
				if sl.Status != ref.Status {
					t.Errorf("%s/%d: streamline %d status %v vs %v",
						alg, procs, sl.ID, sl.Status, ref.Status)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := testProblem(30)
	for _, alg := range Algorithms() {
		cfg := testConfig(alg, 4)
		a := mustRun(t, p, cfg)
		b := mustRun(t, p, cfg)
		if a.Summary != b.Summary {
			t.Errorf("%s: non-deterministic summaries:\n%+v\n%+v", alg, a.Summary, b.Summary)
		}
	}
}

func TestStaticBlockEfficiencyIdeal(t *testing.T) {
	// "Static Allocation performs ideally, loading each block once and
	// never purging" (Section 5.1).
	p := testProblem(50)
	res := mustRun(t, p, testConfig(StaticAlloc, 4))
	if res.Summary.BlocksPurged != 0 {
		t.Errorf("static purged %d blocks", res.Summary.BlocksPurged)
	}
	if res.Summary.BlockEfficiency != 1 {
		t.Errorf("static E = %g, want 1", res.Summary.BlockEfficiency)
	}
	// Each block is loaded at most once across the whole machine.
	if max := int64(p.Provider.Decomp().NumBlocks()); res.Summary.BlocksLoaded > max {
		t.Errorf("static loaded %d blocks, max %d", res.Summary.BlocksLoaded, max)
	}
}

func TestOnDemandNoCommunication(t *testing.T) {
	// "no communication occurs with the Load On Demand algorithm"
	// (Section 5.1).
	p := testProblem(50)
	res := mustRun(t, p, testConfig(LoadOnDemand, 4))
	if res.Summary.MsgsSent != 0 || res.Summary.BytesSent != 0 {
		t.Errorf("ondemand communicated: %d msgs, %d bytes",
			res.Summary.MsgsSent, res.Summary.BytesSent)
	}
	if res.Summary.TotalComm != 0 {
		t.Errorf("ondemand comm time = %g", res.Summary.TotalComm)
	}
}

func TestOnDemandRedundantIO(t *testing.T) {
	// With sparse seeds and a small cache, Load On Demand re-reads blocks:
	// more total loads than Static Allocation.
	p := testProblem(50)
	cfgLoD := testConfig(LoadOnDemand, 4)
	cfgLoD.CacheBlocks = 3 // tight memory forces purging
	lod := mustRun(t, p, cfgLoD)
	static := mustRun(t, p, testConfig(StaticAlloc, 4))
	if lod.Summary.BlocksLoaded <= static.Summary.BlocksLoaded {
		t.Errorf("ondemand loads (%d) not above static loads (%d)",
			lod.Summary.BlocksLoaded, static.Summary.BlocksLoaded)
	}
	if lod.Summary.BlockEfficiency >= 1 {
		t.Errorf("ondemand E = %g, expected purging", lod.Summary.BlockEfficiency)
	}
}

func TestStaticCommunicatesHybridLess(t *testing.T) {
	// Static must communicate every block crossing, carrying ever-growing
	// geometry; Hybrid avoids most of it by replicating blocks (the
	// paper's headline communication result, Figure 8). The effect needs
	// the regime the paper runs in: long-lived streamlines that traverse
	// many blocks — a rotation field, whose circular orbits re-cross the
	// same processor boundaries forever.
	f := field.Rotation{Omega: 1, Box: vec.Box(vec.Of(-1, -1, -0.2), vec.Of(1, 1, 0.2))}
	d := grid.NewDecomposition(f.Bounds(), 4, 4, 1, 16)
	p := Problem{
		Provider: grid.AnalyticProvider{F: f, D: d},
		Seeds:    seeds.SparseRandom(f.Bounds().Expand(-0.3), 60, 17),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.05},
		MaxSteps: 500,
	}
	static := mustRun(t, p, testConfig(StaticAlloc, 6))
	cfgH := testConfig(HybridMS, 6)
	cfgH.CacheBlocks = 16 // enough memory to replicate an orbit's ring of blocks
	hybrid := mustRun(t, p, cfgH)
	if static.Summary.BytesSent == 0 {
		t.Fatal("static sent no bytes; seeds never crossed blocks")
	}
	if hybrid.Summary.BytesSent >= static.Summary.BytesSent {
		t.Errorf("hybrid bytes (%d) not below static bytes (%d)",
			hybrid.Summary.BytesSent, static.Summary.BytesSent)
	}
}

func TestStaticOOMOnDenseSeeds(t *testing.T) {
	// The paper's Section 5.3 failure: all dense seeds land on one
	// processor, whose streamline memory exceeds budget.
	f := field.DefaultABC()
	d := grid.NewDecomposition(f.Bounds(), 4, 4, 4, 16)
	center := d.Bounds(d.ID(1, 1, 1)).Center()
	p := Problem{
		Provider: grid.AnalyticProvider{F: f, D: d},
		Seeds:    seeds.DenseCluster(f.Bounds(), center, 0.05, 400, 7),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.01},
		MaxSteps: 60, // short advection: work (and geometry) stays local
	}
	// Budget sized so 1/4 of the results fit comfortably but 4/4 on one
	// processor cannot: Static concentrates all 400 dense seeds on the
	// block's owner (whose finished geometry stays resident for output)
	// while Load On Demand splits them evenly.
	const budget = 600_000
	cfg := testConfig(StaticAlloc, 4)
	cfg.MemoryBudget = budget
	_, err := Run(p, cfg)
	var oom *store.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want OOMError", err)
	}

	cfgLoD := testConfig(LoadOnDemand, 4)
	cfgLoD.MemoryBudget = budget
	cfgLoD.CacheBlocks = 1
	if _, err := Run(p, cfgLoD); err != nil {
		t.Errorf("ondemand with same budget failed: %v", err)
	}
}

func TestHybridAdaptsToDenseSeeds(t *testing.T) {
	// Dense seeds all start on one slave; the hybrid master must spread
	// the work so multiple slaves end up integrating.
	f := field.DefaultABC()
	d := grid.NewDecomposition(f.Bounds(), 4, 4, 4, 16)
	center := d.Bounds(d.ID(2, 2, 2)).Center()
	p := Problem{
		Provider: grid.AnalyticProvider{F: f, D: d},
		Seeds:    seeds.DenseCluster(f.Bounds(), center, 0.08, 120, 11),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.05},
		MaxSteps: 120,
	}
	cfg := testConfig(HybridMS, 6) // 1 master, 5 slaves
	res := mustRun(t, p, cfg)
	busySlaves := 0
	for _, ps := range res.PerProc[1:] { // skip the master
		if ps.Steps > 0 {
			busySlaves++
		}
	}
	if busySlaves < 2 {
		t.Errorf("only %d slaves integrated; hybrid did not distribute work", busySlaves)
	}
	if res.Summary.StreamlinesCompleted != 120 {
		t.Errorf("completed %d/120", res.Summary.StreamlinesCompleted)
	}
}

func TestHybridLoadBalance(t *testing.T) {
	// With uniform seeds, hybrid work should be reasonably spread: the
	// busiest slave must not dominate completely.
	p := testProblem(80)
	cfg := testConfig(HybridMS, 9) // 1 master, 8 slaves
	res := mustRun(t, p, cfg)
	var total, maxSteps int64
	for _, ps := range res.PerProc[1:] {
		total += ps.Steps
		if ps.Steps > maxSteps {
			maxSteps = ps.Steps
		}
	}
	if total == 0 {
		t.Fatal("no integration happened")
	}
	if frac := float64(maxSteps) / float64(total); frac > 0.6 {
		t.Errorf("busiest slave did %.0f%% of all steps", frac*100)
	}
}

func TestWallClockScalesDown(t *testing.T) {
	// More processors must reduce wall clock for a compute-heavy problem.
	p := testProblem(120)
	for _, alg := range Algorithms() {
		cfg2 := testConfig(alg, 2)
		cfg8 := testConfig(alg, 8)
		small := mustRun(t, p, cfg2).Summary.WallClock
		big := mustRun(t, p, cfg8).Summary.WallClock
		if big >= small {
			t.Errorf("%s: wall clock did not improve with procs: %g (2p) vs %g (8p)",
				alg, small, big)
		}
	}
}

func TestSampledProviderEquivalence(t *testing.T) {
	// The sampled (materialized-array) data path must complete and stay
	// close to the analytic path.
	f := field.DefaultABC()
	d := grid.NewDecomposition(f.Bounds(), 2, 2, 2, 24)
	seedPts := seeds.SparseRandom(f.Bounds().Expand(-0.5), 10, 33)
	base := Problem{
		Seeds:    seedPts,
		IntOpts:  integrate.Options{Tol: 1e-6, HMax: 0.02},
		MaxSteps: 80,
	}
	pa := base
	pa.Provider = grid.AnalyticProvider{F: f, D: d}
	ps := base
	ps.Provider = grid.SampledProvider{F: f, D: d}

	cfg := testConfig(LoadOnDemand, 2)
	cfg.CollectTraces = true
	ra := mustRun(t, pa, cfg)
	rs := mustRun(t, ps, cfg)
	for i := range ra.Streamlines {
		a, s := ra.Streamlines[i], rs.Streamlines[i]
		// Interpolation error is bounded; trajectories stay close for a
		// while. Compare a mid-trajectory prefix point.
		n := len(a.Points)
		if len(s.Points) < n {
			n = len(s.Points)
		}
		probe := n / 4
		if d := a.Points[probe].Dist(s.Points[probe]); d > 0.2 {
			t.Errorf("streamline %d diverged by %g at point %d", i, d, probe)
		}
	}
}

func TestRunSummaryConsistency(t *testing.T) {
	p := testProblem(40)
	for _, alg := range Algorithms() {
		res := mustRun(t, p, testConfig(alg, 4))
		s := res.Summary
		if s.WallClock <= 0 {
			t.Errorf("%s: wall clock %g", alg, s.WallClock)
		}
		if s.Steps <= 0 {
			t.Errorf("%s: no steps", alg)
		}
		if s.BlocksLoaded < 0 || s.BlocksPurged > s.BlocksLoaded {
			t.Errorf("%s: inconsistent blocks: %+v", alg, s)
		}
		if s.BlockEfficiency < 0 || s.BlockEfficiency > 1 {
			t.Errorf("%s: E out of range: %g", alg, s.BlockEfficiency)
		}
		if math.IsNaN(s.Imbalance) {
			t.Errorf("%s: NaN imbalance", alg)
		}
		// Per-proc stats must sum to the aggregate.
		var io float64
		for _, ps := range res.PerProc {
			io += ps.IOTime
		}
		if math.Abs(io-s.TotalIO) > 1e-9 {
			t.Errorf("%s: per-proc io %g != total %g", alg, io, s.TotalIO)
		}
	}
}

func TestHybridParamsDefaults(t *testing.T) {
	h := HybridParams{}.defaults()
	if h.N != 10 || h.NO != 200 || h.NL != 40 || h.W != 32 {
		t.Errorf("defaults = %+v", h)
	}
	// NO follows a custom N.
	h = HybridParams{N: 5}.defaults()
	if h.NO != 100 {
		t.Errorf("NO = %d, want 20×N = 100", h.NO)
	}
}

func TestHybridTopology(t *testing.T) {
	cases := []struct {
		procs, w        int
		masters, slaves int
	}{
		{2, 32, 1, 1},
		{33, 32, 1, 32},
		{66, 32, 2, 64},
		{512, 32, 15, 497},
		{4, 2, 1, 3},
		{9, 2, 3, 6},
	}
	for _, c := range cases {
		m, s := hybridTopology(c.procs, c.w)
		if m != c.masters || s != c.slaves {
			t.Errorf("topology(%d,%d) = (%d,%d), want (%d,%d)",
				c.procs, c.w, m, s, c.masters, c.slaves)
		}
		if m+s != c.procs {
			t.Errorf("topology(%d,%d) loses processors", c.procs, c.w)
		}
	}
}

// TestMasterModelOrder pins the orders the hybrid master's decisions run
// in, none of them sorted per decision: a slave's loaded set reads
// ascending however it grew, and of several equally busy blocks in its
// perBlock or its stranded blocks the lowest wins. A stranded block the
// slave is then told to load leaves the stranded list.
func TestMasterModelOrder(t *testing.T) {
	s := &slaveRec{}
	for _, b := range []grid.BlockID{9, 2, 40, 2, 17, 9, 0} {
		s.load(b)
	}
	if want := []grid.BlockID{0, 2, 9, 17, 40}; !slices.Equal(s.loaded, want) {
		t.Errorf("loaded set %v, want %v", s.loaded, want)
	}
	if !s.has(17) || s.has(16) || s.has(41) || (&slaveRec{}).has(0) {
		t.Errorf("has disagrees with the loaded set %v", s.loaded)
	}
	for _, e := range []blockEntry[tally]{{31, 4}, {5, 7}, {17, 9}, {12, 7}, {3, 1}, {8, 7}} {
		s.hold(e.b, e.v)
	}
	if b, n := s.perBlock.fullest(); b != 17 || n != 9 {
		t.Errorf("busiest = block %d (%d), want the loaded block 17 (9)", b, n)
	}
	if b, n := s.stranded.fullest(); b != 5 || n != 7 {
		t.Errorf("busiest unloaded = block %d (%d), want 5 (7), the lowest of three sevens", b, n)
	}
	s.load(5)
	if b, n := s.stranded.fullest(); b != 8 || n != 7 {
		t.Errorf("busiest unloaded after loading 5 = block %d (%d), want 8 (7)", b, n)
	}
	if got := dumpBlocks(&s.stranded); got != "3:1 8:7 12:7 31:4 (total 19)" || s.active != 35 {
		t.Errorf("stranded %s (active %d), want 3:1 8:7 12:7 31:4 (total 19) (active 35)", got, s.active)
	}
	if b, n := (&slaveRec{}).stranded.fullest(); b != grid.NoBlock || n != 0 {
		t.Errorf("busiest of an idle slave = block %d (%d), want none", b, n)
	}
}

// TestForceOffloadWalksPastForcedBlocks pins step 1 over the list a force
// edits under it: a slave (endpoint 1) holds unloaded blocks {3: 2, 5: 1,
// 9: 4}, and each force drops the block it moves from the slave's
// stranded list while forceOffload walks that list. Every block must be
// visited once, in ascending order — the forced ones leave, the rest
// stay — and the slave must be told exactly those forces, in that order.
func TestForceOffloadWalksPastForcedBlocks(t *testing.T) {
	for _, tc := range []struct {
		peerLoaded       [2]grid.BlockID // the block endpoints 2 and 3 hold
		forced, stays    string
		peer2, peer3     string
		slaveActiveAfter int
	}{
		{[2]grid.BlockID{3, 9}, "[3→2 9→3]", "5:1 (total 1)", "3:2 (total 2)", "9:4 (total 4)", 1},
		// A skipped block would go unforced here: 5 sits right after 3.
		{[2]grid.BlockID{3, 5}, "[3→2 5→3]", "9:4 (total 4)", "3:2 (total 2)", "5:1 (total 1)", 4},
	} {
		p := testProblem(4)
		cfg := testConfig(HybridMS, 4)
		r := &runState{prob: &p, cfg: &cfg, kernel: sim.New(), collect: metrics.NewCollector(4),
			procs: make([]*sim.Proc, 4), workers: make([]*worker, 4)}
		r.fabric = comm.NewFabric(cfg.Net)
		var forced []string
		var mw *worker
		proc := r.kernel.Spawn("master", func(*sim.Proc) {
			s := &slaveRec{ep: 1}
			for _, e := range []blockEntry[tally]{{9, 4}, {3, 2}, {5, 1}} {
				s.hold(e.b, e.v)
			}
			peers := [2]*slaveRec{{ep: 2}, {ep: 3}}
			for i, peer := range peers {
				peer.load(tc.peerLoaded[i])
			}
			m := &master{r: r, w: mw, slaves: []*slaveRec{s, peers[0], peers[1]}}
			m.forceOffload(s)
			if got := dumpBlocks(&s.perBlock); got != tc.stays || dumpBlocks(&s.stranded) != got || s.active != tc.slaveActiveAfter {
				t.Errorf("peers hold %v: slave keeps %s (active %d), want %s (active %d)",
					tc.peerLoaded, got, s.active, tc.stays, tc.slaveActiveAfter)
			}
			for i, want := range []string{tc.peer2, tc.peer3} {
				if got := dumpBlocks(&peers[i].perBlock); got != want || peers[i].active != peers[i].perBlock.total() {
					t.Errorf("peers hold %v: endpoint %d models %s (active %d), want %s",
						tc.peerLoaded, peers[i].ep, got, peers[i].active, want)
				}
			}
		})
		mw = r.newWorker(proc, 0, 0)
		var sw *worker
		proc = r.kernel.Spawn("slave", func(p *sim.Proc) {
			p.Sleep(1)
			for env, ok := sw.end.TryRecv(); ok; env, ok = sw.end.TryRecv() {
				f := env.Payload.(msgSendForce)
				forced = append(forced, fmt.Sprintf("%d→%d", f.block, f.to))
			}
		})
		sw = r.newWorker(proc, 1, 0)
		for ep := 2; ep <= 3; ep++ {
			r.newWorker(r.kernel.Spawn(fmt.Sprint("peer-", ep), func(*sim.Proc) {}), ep, 0)
		}
		if err := r.kernel.Run(); err != nil {
			t.Fatalf("kernel: %v", err)
		}
		if got := fmt.Sprint(forced); got != tc.forced {
			t.Errorf("peers hold %v: slave told %s, want %s", tc.peerLoaded, got, tc.forced)
		}
	}
}

func TestStaticOwner(t *testing.T) {
	for _, tc := range []struct{ blocks, procs int }{
		{64, 4}, {64, 7}, {10, 3}, {5, 8}, {512, 512},
	} {
		owner := staticOwner(tc.blocks, tc.procs)
		counts := make([]int, tc.procs)
		prev := 0
		for b := 0; b < tc.blocks; b++ {
			o := owner(grid.BlockID(b))
			if o < 0 || o >= tc.procs {
				t.Fatalf("owner(%d) = %d out of range", b, o)
			}
			if o < prev {
				t.Fatalf("ownership not monotone at block %d", b)
			}
			prev = o
			counts[o]++
			// Consistency with the slice definition.
			lo := o * tc.blocks / tc.procs
			hi := (o + 1) * tc.blocks / tc.procs
			if b < lo || b >= hi {
				t.Fatalf("%d/%d: block %d assigned to %d outside [%d,%d)",
					tc.blocks, tc.procs, b, o, lo, hi)
			}
		}
		// Near-even split.
		for i, c := range counts {
			if c > tc.blocks/tc.procs+1 {
				t.Errorf("%d/%d: proc %d owns %d blocks", tc.blocks, tc.procs, i, c)
			}
		}
	}
}

func TestManyProcsMoreThanSeeds(t *testing.T) {
	// Degenerate: more processors than seeds or blocks must still finish.
	p := testProblem(5)
	for _, alg := range Algorithms() {
		cfg := testConfig(alg, 12)
		res := mustRun(t, p, cfg)
		if res.Summary.StreamlinesCompleted != 5 {
			t.Errorf("%s: completed %d/5", alg, res.Summary.StreamlinesCompleted)
		}
	}
}

func TestSingleProcRuns(t *testing.T) {
	p := testProblem(10)
	for _, alg := range []Algorithm{StaticAlloc, LoadOnDemand, WorkStealing} {
		cfg := testConfig(alg, 1)
		res := mustRun(t, p, cfg)
		if res.Summary.StreamlinesCompleted != 10 {
			t.Errorf("%s/1: completed %d", alg, res.Summary.StreamlinesCompleted)
		}
	}
}

func TestTokamakWorkingSetFitsCache(t *testing.T) {
	// The fusion observation (Section 5.2): dense seeds in the torus keep
	// the LoD working set inside memory, so purging stays moderate.
	tok := field.DefaultTokamak()
	d := grid.NewDecomposition(tok.Bounds(), 4, 4, 2, 16)
	p := Problem{
		Provider: grid.AnalyticProvider{F: field.Scaled{F: tok, S: 1}, D: d},
		Seeds:    seeds.TorusRing(tok.MajorRadius, tok.MinorRadius, 0.3, 60, 5),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.05},
		MaxSteps: 400,
	}
	cfg := testConfig(LoadOnDemand, 4)
	cfg.CacheBlocks = 24 // the torus ring fits
	res := mustRun(t, p, cfg)
	if res.Summary.BlockEfficiency < 0.5 {
		t.Errorf("torus working set should fit: E = %g", res.Summary.BlockEfficiency)
	}
}

func TestResultLabels(t *testing.T) {
	if got := fmt.Sprint(Algorithms()); got != "[static ondemand hybrid stealing]" {
		t.Errorf("Algorithms() = %s", got)
	}
}

// testUnsteadyProblem builds a time-sliced workload: a pulsing rotation
// field over a 4×4×4 spatial decomposition with 4 stored time slices
// (3 epochs), seeds released at t = 0.
func testUnsteadyProblem(nSeeds int) Problem {
	f := unsteadyRotation{omega: 1.2, box: vec.Box(vec.Of(-1, -1, -1), vec.Of(1, 1, 1)), horizon: 2}
	d := grid.NewDecomposition(f.Bounds(), 4, 4, 4, 16)
	d.TimeSlices = 4
	d.T0, d.T1 = 0, 2
	return Problem{
		Provider: grid.AnalyticProvider{F: f, D: d},
		Seeds:    seeds.SparseRandom(f.Bounds().Expand(-0.4), nSeeds, 202),
		IntOpts:  integrate.Options{Tol: 1e-5, HMax: 0.05},
		MaxSteps: 400,
	}
}

// unsteadyRotation is a rotation whose angular velocity ramps with time,
// so pathlines genuinely depend on t (a frozen field gives different
// curves).
type unsteadyRotation struct {
	omega   float64
	box     vec.AABB
	horizon float64
}

func (u unsteadyRotation) Eval(p vec.V3) vec.V3 { return u.EvalAt(p, 0) }
func (u unsteadyRotation) Bounds() vec.AABB     { return u.box }
func (u unsteadyRotation) TimeRange() (float64, float64) {
	return 0, u.horizon
}
func (u unsteadyRotation) EvalAt(p vec.V3, t float64) vec.V3 {
	w := u.omega * (0.5 + t/u.horizon)
	return vec.V3{X: -w * p.Y, Y: w * p.X, Z: 0.15 * w}
}

// TestUnsteadyAlgorithmEquivalence extends the central correctness
// property to pathlines: all four algorithms tracing a time-sliced
// problem must produce bit-identical geometry, with no per-algorithm
// forks in the time handling.
func TestUnsteadyAlgorithmEquivalence(t *testing.T) {
	p := testUnsteadyProblem(40)

	var reference []*trace.Streamline
	var refAlg string
	for _, alg := range Algorithms() {
		for _, procs := range []int{2, 5} {
			cfg := testConfig(alg, procs)
			cfg.CollectTraces = true
			res := mustRun(t, p, cfg)
			if res.Summary.EpochCrossings == 0 {
				t.Errorf("%s/%d: no epoch crossings; pathlines never left epoch 0", alg, procs)
			}
			if res.Summary.PathlineSteps != res.Summary.Steps {
				t.Errorf("%s/%d: pathline steps %d != total steps %d on a pure unsteady run",
					alg, procs, res.Summary.PathlineSteps, res.Summary.Steps)
			}
			if reference == nil {
				reference, refAlg = res.Streamlines, fmt.Sprintf("%s/%d", alg, procs)
				continue
			}
			for i, sl := range res.Streamlines {
				ref := reference[i]
				if len(sl.Points) != len(ref.Points) {
					t.Fatalf("%s/%d: pathline %d has %d points, %s has %d",
						alg, procs, sl.ID, len(sl.Points), refAlg, len(ref.Points))
				}
				for j := range sl.Points {
					if sl.Points[j] != ref.Points[j] {
						t.Fatalf("%s/%d: pathline %d point %d differs from %s: %v vs %v",
							alg, procs, sl.ID, j, refAlg, sl.Points[j], ref.Points[j])
					}
				}
				if sl.Status != ref.Status || sl.T != ref.T {
					t.Errorf("%s/%d: pathline %d state (%v, t=%g) differs from %s (%v, t=%g)",
						alg, procs, sl.ID, sl.Status, sl.T, refAlg, ref.Status, ref.T)
				}
			}
		}
	}
}

// TestUnsteadyDiffersFromFrozen guards against the time axis silently
// degenerating: pathlines through the time-dependent field must differ
// from streamlines through the same field frozen at t = 0.
func TestUnsteadyDiffersFromFrozen(t *testing.T) {
	up := testUnsteadyProblem(10)
	fd := up.Provider.Decomp()
	fd.TimeSlices, fd.T0, fd.T1 = 0, 0, 0
	frozen := up
	frozen.Provider = grid.AnalyticProvider{
		F: up.Provider.(grid.AnalyticProvider).F,
		D: fd,
	}
	frozen.MaxTime = 2 // same horizon as the unsteady data range

	cfg := testConfig(LoadOnDemand, 2)
	cfg.CollectTraces = true
	ur := mustRun(t, up, cfg)
	fr := mustRun(t, frozen, cfg)
	same := true
	for i := range ur.Streamlines {
		a, b := ur.Streamlines[i], fr.Streamlines[i]
		if len(a.Points) != len(b.Points) {
			same = false
			break
		}
		for j := range a.Points {
			if a.Points[j] != b.Points[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("pathlines identical to frozen-field streamlines; time dependence is not reaching the solver")
	}
}

// TestUnsteadySampledProvider sends the materialized (two-slice) data
// path through the engine: it must complete and stay close to the
// analytic path.
func TestUnsteadySampledProvider(t *testing.T) {
	p := testUnsteadyProblem(8)
	ap := p.Provider.(grid.AnalyticProvider)
	ps := p
	ps.Provider = grid.SampledProviderT{F: ap.F.(field.FieldT), D: ap.D}

	cfg := testConfig(LoadOnDemand, 2)
	cfg.CollectTraces = true
	ra := mustRun(t, p, cfg)
	rs := mustRun(t, ps, cfg)
	for i := range ra.Streamlines {
		a, s := ra.Streamlines[i], rs.Streamlines[i]
		n := len(a.Points)
		if len(s.Points) < n {
			n = len(s.Points)
		}
		probe := n / 4
		if d := a.Points[probe].Dist(s.Points[probe]); d > 0.2 {
			t.Errorf("pathline %d diverged by %g at point %d", i, d, probe)
		}
	}
}
