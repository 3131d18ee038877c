package experiments

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/prefetch"
	"repro/internal/store"
)

// numResults counts the campaign's memoized cells.
func (c *Campaign) numResults() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

func TestFiguresCoverPaper(t *testing.T) {
	figs := Figures()
	if len(figs) != 12 {
		t.Fatalf("figures = %d, want 12 (Figures 5-16)", len(figs))
	}
	seen := map[int]bool{}
	for _, f := range figs {
		if f.ID < 5 || f.ID > 16 {
			t.Errorf("unexpected figure ID %d", f.ID)
		}
		if seen[f.ID] {
			t.Errorf("duplicate figure %d", f.ID)
		}
		seen[f.ID] = true
		switch f.Metric {
		case "wall", "io", "comm", "efficiency":
		default:
			t.Errorf("figure %d has unknown metric %q", f.ID, f.Metric)
		}
	}
	if _, ok := FigureByID(5); !ok {
		t.Error("FigureByID(5) missing")
	}
	if _, ok := FigureByID(99); ok {
		t.Error("FigureByID(99) should not exist")
	}
}

func TestBuildProblemAllDatasets(t *testing.T) {
	sc := SmallScale()
	for _, ds := range datasets() {
		for _, seeding := range Seedings() {
			prob, err := BuildProblem(ds, seeding, sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds, seeding, err)
			}
			if err := prob.Validate(); err != nil {
				t.Fatalf("%s/%s: invalid problem: %v", ds, seeding, err)
			}
			if len(prob.Seeds) == 0 {
				t.Errorf("%s/%s: no seeds", ds, seeding)
			}
		}
	}
	if _, err := BuildProblem(Dataset("nope"), Sparse, sc); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := BuildProblem(Astro, Seeding("nope"), sc); err == nil {
		t.Error("unknown seeding accepted")
	}
}

func TestSeedCountsMatchScale(t *testing.T) {
	sc := SmallScale()
	astro, _ := BuildProblem(Astro, Sparse, sc)
	if len(astro.Seeds) != sc.AstroSeeds {
		t.Errorf("astro seeds = %d, want %d", len(astro.Seeds), sc.AstroSeeds)
	}
	thermalSparse, _ := BuildProblem(Thermal, Sparse, sc)
	want := sc.ThermalSparseGrid * sc.ThermalSparseGrid * sc.ThermalSparseGrid
	if len(thermalSparse.Seeds) != want {
		t.Errorf("thermal sparse seeds = %d, want %d", len(thermalSparse.Seeds), want)
	}
	thermalDense, _ := BuildProblem(Thermal, Dense, sc)
	if len(thermalDense.Seeds) != sc.ThermalDenseSeeds {
		t.Errorf("thermal dense seeds = %d, want %d", len(thermalDense.Seeds), sc.ThermalDenseSeeds)
	}
}

func TestDenseThermalCircleFitsOneBlock(t *testing.T) {
	// The entire inlet circle must land in a single block — that is what
	// concentrates all dense-thermal work on one processor (the paper's
	// Figure 13 OOM).
	for _, sc := range []Scale{SmallScale(), defaultScale(), paperScale()} {
		prob, err := BuildProblem(Thermal, Dense, sc)
		if err != nil {
			t.Fatal(err)
		}
		d := prob.Provider.Decomp()
		blocks := map[int]bool{}
		for _, s := range prob.Seeds {
			b, ok := d.Locate(s)
			if !ok {
				t.Fatalf("scale %s: seed %v outside domain", sc.Name, s)
			}
			blocks[int(b)] = true
		}
		if len(blocks) != 1 {
			t.Errorf("scale %s: inlet circle spans %d blocks, want 1", sc.Name, len(blocks))
		}
	}
}

func TestMemoryBudgetOrdering(t *testing.T) {
	// The budget must fit the balanced working sets but not one processor
	// holding all dense-thermal geometry.
	for _, sc := range []Scale{SmallScale(), defaultScale()} {
		budget := steadyMemoryBudget(sc)
		if budget <= 0 {
			t.Fatalf("scale %s: non-positive budget", sc.Name)
		}
		prob, _ := BuildProblem(Thermal, Dense, sc)
		d := prob.Provider.Decomp()
		worstCase := int64(len(prob.Seeds))*int64(sc.ShortSteps)*48 + d.BlockBytes()
		if worstCase <= budget {
			t.Errorf("scale %s: budget %d admits the full dense concentration %d — the Figure 13 OOM cannot manifest",
				sc.Name, budget, worstCase)
		}
	}
}

func TestCampaignCachesRuns(t *testing.T) {
	sc := SmallScale()
	sc.AstroSeeds = 40
	sc.MaxSteps = 100
	c := NewCampaign(sc)
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8}
	a := c.Run(k)
	b := c.Run(k)
	if a.Summary.String() != b.Summary.String() {
		t.Error("cached run differs")
	}
	if c.numResults() != 1 {
		t.Errorf("results cached = %d, want 1", c.numResults())
	}
	if _, ok := c.Cached(k); !ok {
		t.Error("Cached(k) missing after Run")
	}
	if !strings.Contains(k.Label(), "astro/sparse/ondemand/8") {
		t.Errorf("Label = %q", k.Label())
	}
}

func TestFigureTableRenders(t *testing.T) {
	sc := SmallScale()
	sc.AstroSeeds = 30
	sc.FusionSeeds = 30
	sc.ThermalDenseSeeds = 60
	sc.MaxSteps = 80
	sc.ShortSteps = 40
	sc.ProcCounts = []int{4}
	c := NewCampaign(sc)
	fig, _ := FigureByID(5)
	out := c.FigureTable(fig)
	for _, want := range []string{"Figure 5", "astro/sparse/static/4", "astro/dense/hybrid/4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestThermalDenseStaticOOMSmallScale(t *testing.T) {
	// The headline Figure 13 failure must reproduce at the CI scale.
	sc := SmallScale()
	prob, err := BuildProblem(Thermal, Dense, sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MachineConfig(core.StaticAlloc, sc.ProcCounts[len(sc.ProcCounts)-1], sc)
	_, err = core.Run(prob, cfg)
	var oom *store.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("static dense thermal: err = %v, want OOM", err)
	}

	// And the other three algorithms must survive the same machine.
	for _, alg := range []core.Algorithm{core.LoadOnDemand, core.HybridMS, core.WorkStealing} {
		cfg := MachineConfig(alg, sc.ProcCounts[len(sc.ProcCounts)-1], sc)
		if _, err := core.Run(prob, cfg); err != nil {
			t.Errorf("%s dense thermal failed: %v", alg, err)
		}
	}
}

func TestShapeChecksSmallScale(t *testing.T) {
	// The full qualitative battery at CI scale. Individual claims that
	// only manifest at larger scale are permitted to fail here ONLY if
	// listed; everything else must pass. Drift fails either way: a listed
	// claim that comes to pass is a stale entry, and a passing claim
	// whose margin falls under the floor is about to flip.
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	// Every §6 work-stealing claim and every §8 unsteady-pathline claim
	// must pass even here: stealing beating Static on dense seeding (it
	// survives the OOM), stealing losing to Hybrid under fusion's block
	// contention, and time slicing widening the ondemand-vs-hybrid I/O
	// gap are robust at all scales, so none of them appear in the allow
	// list.
	c := NewCampaign(SmallScale())
	allowFail := map[string]bool{
		// Small-scale runs (64 tiny blocks, 1 ms reads, hundreds of
		// seeds) compress the cost structure so much that these four
		// relative claims lose their regime. They fail ONLY here:
		// `slbench -shapes` at the default scale passes every check
		// (exit 0) and prints each claim's margin.
		"Fig 5 (sparse): Hybrid stays within 1.5x of the best astro wall clock":         true,
		"Fig 8: Static communicates more than Hybrid (astro sparse)":                    true,
		"Fig 11: Static communication is higher for dense fusion seeds":                 true,
		"Fig 13: dense thermal — Load-On-Demand outperforms Hybrid (compute hides I/O)": true,
	}
	// A passing claim must hold by at least marginFloor, so drift that
	// erodes one fails here before it flips. The floor sits under the
	// smallest nonzero margin at this scale, +0.000676 (Fig 13's OOM and
	// §6's OOM survival: bytes needed against the budget). The exact facts
	// hold at margin 0 by construction and are exempt.
	const marginFloor = 0.0005
	exact := map[string]bool{
		"Fig 7 (sparse): block efficiency Static=1, Hybrid at or above Load-On-Demand":                 true,
		"Fig 7 (dense): block efficiency Static=1, Hybrid at or above Load-On-Demand":                  true,
		"§11: static allocation cannot survive processor loss — it fails with the typed error":         true,
		"§11: survivors adopt the lost processor's streamlines and complete every seed (astro sparse)": true,
		"§11: stealing re-forms its ring and keeps the fault penalty bounded (astro sparse)":           true,
		"§11: hybrid pays a master-failover spike to recover (astro sparse)":                           true,
	}
	// slbench -shapes prewarms ShapeKeys on the worker pool, then runs the
	// checks serially: ShapeKeys must list every cell CheckShapes reads,
	// or the checks execute the missing ones one at a time.
	var executions atomic.Int64
	c.Tune = func(*core.Config) { executions.Add(1) }
	c.RunKeys(ShapeKeys(c))
	prewarmed := executions.Load()
	results := CheckShapes(c)
	if n := executions.Load() - prewarmed; n != 0 {
		t.Errorf("CheckShapes executed %d cells ShapeKeys does not list", n)
	}
	seen := make(map[string]bool)
	for _, r := range results {
		seen[r.Claim] = true
		switch {
		case !r.OK && !allowFail[r.Claim]:
			t.Errorf("shape check failed: %s: %s (margin %+.3g)", r.Claim, r.Detail, r.Margin)
		case r.OK && allowFail[r.Claim]:
			t.Errorf("stale allow-list entry: %s now passes (margin %+.3g); remove it", r.Claim, r.Margin)
		case r.OK && !exact[r.Claim] && r.Margin < marginFloor:
			t.Errorf("shape check thin: %s holds by %+.3g, under the %g floor: %s", r.Claim, r.Margin, marginFloor, r.Detail)
		}
	}
	for _, m := range []map[string]bool{allowFail, exact} {
		for claim := range m {
			if !seen[claim] {
				t.Errorf("listed claim %q is not a shape check", claim)
			}
		}
	}
}

// TestShapeChecksFailedCell: a claim that reads the summary of a failed
// cell fails and names that cell, rather than comparing the zero summary.
// Every Hybrid cell runs out of memory here, so no claim that reads one
// may pass.
func TestShapeChecksFailedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	c := NewCampaign(SmallScale())
	c.Tune = func(cfg *core.Config) {
		if cfg.Algorithm == core.HybridMS {
			cfg.MemoryBudget = 1
		}
	}
	c.RunKeys(ShapeKeys(c))
	results := CheckShapes(c)
	readsHybrid := 0
	for i, s := range shapes {
		r := &reader{c: c, record: true}
		s.check(r)
		if !slices.ContainsFunc(r.keys, func(k Key) bool { return k.Alg == core.HybridMS }) {
			continue
		}
		readsHybrid++
		if res := results[i]; res.OK || res.Margin >= 0 || !strings.Contains(res.Detail, "/hybrid/") || !strings.Contains(res.Detail, "oom") {
			t.Errorf("%s: ok=%v margin=%+.3g detail %q, want a failure naming the hybrid cell's OOM", res.Claim, res.OK, res.Margin, res.Detail)
		}
	}
	if readsHybrid == 0 {
		t.Error("no claim reads a Hybrid cell")
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "default", "paper"} {
		sc, ok := ScaleByName(name)
		if !ok || sc.Name != name {
			t.Errorf("ScaleByName(%q) = (%q, %v)", name, sc.Name, ok)
		}
	}
	if _, ok := ScaleByName("bogus"); ok {
		t.Error("ScaleByName accepted an unknown scale")
	}
}

func TestScalesAreOrdered(t *testing.T) {
	small, def, paper := SmallScale(), defaultScale(), paperScale()
	if !(small.AstroSeeds < def.AstroSeeds && def.AstroSeeds < paper.AstroSeeds) {
		t.Error("astro seeds not increasing across scales")
	}
	if !(small.CellsPerAxis <= def.CellsPerAxis && def.CellsPerAxis <= paper.CellsPerAxis) {
		t.Error("cells not increasing across scales")
	}
	for _, sc := range []Scale{small, def, paper} {
		if len(sc.ProcCounts) == 0 {
			t.Errorf("scale %s has no processor counts", sc.Name)
		}
		for i := 1; i < len(sc.ProcCounts); i++ {
			if sc.ProcCounts[i] <= sc.ProcCounts[i-1] {
				t.Errorf("scale %s processor sweep not increasing", sc.Name)
			}
		}
	}
}

func TestDatasetFields(t *testing.T) {
	for _, ds := range datasets() {
		f := ds.Field()
		if f.Bounds().Volume() <= 0 {
			t.Errorf("%s: empty field bounds", ds)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown dataset Field() should panic")
		}
	}()
	Dataset("bogus").Field()
}

func TestBuildUnsteadyProblemAllDatasets(t *testing.T) {
	sc := SmallScale()
	for _, ds := range datasets() {
		for _, seeding := range Seedings() {
			prob, err := BuildUnsteadyProblem(ds, seeding, sc, sc.TimeSlices)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds, seeding, err)
			}
			if err := prob.Validate(); err != nil {
				t.Fatalf("%s/%s: invalid problem: %v", ds, seeding, err)
			}
			d := prob.Provider.Decomp()
			if !d.Unsteady() || d.Epochs() != sc.TimeSlices-1 {
				t.Errorf("%s/%s: decomposition not time-sliced: %+v", ds, seeding, d)
			}
			steady, _ := BuildProblem(ds, seeding, sc)
			if len(prob.Seeds) != len(steady.Seeds) {
				t.Errorf("%s/%s: unsteady seeds %d != steady %d", ds, seeding, len(prob.Seeds), len(steady.Seeds))
			}
		}
	}
	if _, err := BuildUnsteadyProblem(Astro, Sparse, sc, 1); err == nil {
		t.Error("single time slice accepted")
	}
	if _, err := BuildUnsteadyProblem(Dataset("nope"), Sparse, sc, 4); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestUnsteadyMemoryBudgetOrdering(t *testing.T) {
	for _, sc := range []Scale{SmallScale(), defaultScale()} {
		steady := steadyMemoryBudget(sc)
		u := KeyMachineConfig(Key{Alg: core.StaticAlloc, Procs: sc.ProcCounts[0], Unsteady: true}, sc).MemoryBudget
		if u <= steady {
			t.Errorf("scale %s: unsteady budget %d not above steady %d (space-time pinning needs room)",
				sc.Name, u, steady)
		}
		// Static's worst-case pinned share of space-time blocks (plus one
		// cache's worth of reads) must fit: the unsteady campaign studies
		// I/O shapes, not an artificial OOM — the Figure 13 memory claim
		// stays a steady-campaign check.
		d := grid.Decomposition{CellsPerAxis: sc.CellsPerAxis, Ghost: 1, TimeSlices: sc.TimeSlices, T1: 1}
		blocks := sc.BlocksPerAxis * sc.BlocksPerAxis * sc.BlocksPerAxis * d.Epochs()
		minProcs := sc.ProcCounts[0]
		pinned := int64((blocks+minProcs-1)/minProcs) * d.BlockBytes()
		if pinned >= u {
			t.Errorf("scale %s: unsteady budget %d cannot hold the pinned share %d",
				sc.Name, u, pinned)
		}
	}
}

func TestUnsteadyKeyLabel(t *testing.T) {
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8}
	if k.Label() != "astro/sparse/ondemand/8" {
		t.Errorf("steady label = %q", k.Label())
	}
	k.Unsteady = true
	if k.Label() != "u:astro/sparse/ondemand/8" {
		t.Errorf("unsteady label = %q", k.Label())
	}
}

func TestCampaignUnsteadyCells(t *testing.T) {
	sc := SmallScale()
	sc.AstroSeeds = 60
	sc.MaxSteps = 200
	c := NewCampaign(sc)
	steady := c.Run(Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8})
	un := c.Run(Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8, Unsteady: true})
	if steady.Err != nil || un.Err != nil {
		t.Fatalf("errs: steady=%v unsteady=%v", steady.Err, un.Err)
	}
	if steady.Summary.EpochCrossings != 0 {
		t.Errorf("steady cell crossed %d epochs", steady.Summary.EpochCrossings)
	}
	if un.Summary.EpochCrossings == 0 {
		t.Error("unsteady cell crossed no epochs")
	}
	if un.Summary.String() == steady.Summary.String() {
		t.Error("unsteady cell identical to steady cell; the axis is not wired through")
	}
	if c.numResults() != 2 {
		t.Errorf("cells cached = %d, want 2 (unsteady must not collide with steady)", c.numResults())
	}
}

func TestCampaignUnsteadyFlagFlipsKeys(t *testing.T) {
	c := NewCampaign(SmallScale())
	for _, k := range c.datasetKeys(Astro) {
		if k.Unsteady {
			t.Fatal("steady campaign emitted unsteady keys")
		}
	}
	c.Cell.Unsteady = true
	for _, k := range c.allKeys() {
		if !k.Unsteady {
			t.Fatal("unsteady campaign emitted steady keys")
		}
	}
}

func TestShapeKeysIncludeUnsteadyCells(t *testing.T) {
	// ShapeKeys is derived from the claims: each cell they read, once —
	// the four unsteady astro cells of the §8 pathline claim among them —
	// and no cell that no claim reads.
	c := NewCampaign(SmallScale())
	top := c.Scale.ProcCounts[len(c.Scale.ProcCounts)-1]
	seen := map[Key]bool{}
	for _, k := range ShapeKeys(c) {
		if seen[k] {
			t.Errorf("ShapeKeys lists %s twice", k.Label())
		}
		seen[k] = true
	}
	for _, alg := range core.Algorithms() {
		if k := (Key{Dataset: Astro, Seeding: Sparse, Alg: alg, Procs: top, Unsteady: true}); !seen[k] {
			t.Errorf("ShapeKeys lacks %s", k.Label())
		}
	}
	if k := (Key{Dataset: Thermal, Seeding: Sparse, Alg: core.WorkStealing, Procs: top}); seen[k] {
		t.Errorf("ShapeKeys lists %s, which no claim reads", k.Label())
	}
}

func TestPrefetchKeyLabel(t *testing.T) {
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8}
	k.Prefetch = prefetch.Neighbor
	if k.Label() != "astro/sparse/ondemand/8+pf:neighbor" {
		t.Errorf("prefetch label = %q", k.Label())
	}
	k.Unsteady = true
	k.Prefetch = prefetch.Temporal
	if k.Label() != "u:astro/sparse/ondemand/8+pf:temporal" {
		t.Errorf("unsteady prefetch label = %q", k.Label())
	}
	k.Unsteady = false
	k.Prefetch = prefetch.Off
	if k.Label() != "astro/sparse/ondemand/8" {
		t.Errorf("off label = %q", k.Label())
	}
}

func TestKeyMachineConfig(t *testing.T) {
	sc := SmallScale()
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8}
	if cfg := KeyMachineConfig(k, sc); cfg.Prefetch.Policy.Enabled() {
		t.Errorf("prefetch-off key produced prefetch config %+v", cfg.Prefetch)
	}
	k.Prefetch = prefetch.Neighbor
	cfg := KeyMachineConfig(k, sc)
	if cfg.Prefetch.Policy != prefetch.Neighbor || cfg.Prefetch.Depth != sc.PrefetchDepth {
		t.Errorf("prefetch config = %+v, want neighbor at depth %d", cfg.Prefetch, sc.PrefetchDepth)
	}
	k.Unsteady = true
	if got := KeyMachineConfig(k, sc).MemoryBudget; got <= cfg.MemoryBudget {
		t.Errorf("unsteady prefetch key budget = %d, not above the steady %d", got, cfg.MemoryBudget)
	}
}

func TestCampaignPrefetchCells(t *testing.T) {
	sc := SmallScale()
	sc.AstroSeeds = 60
	sc.MaxSteps = 200
	c := NewCampaign(sc)
	top := sc.ProcCounts[len(sc.ProcCounts)-1]
	off := c.Run(Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: top})
	pf := c.Run(Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: top, Prefetch: prefetch.Neighbor})
	if off.Err != nil || pf.Err != nil {
		t.Fatalf("errs: off=%v prefetch=%v", off.Err, pf.Err)
	}
	if off.Summary.PrefetchIssued != 0 {
		t.Errorf("prefetch-off cell issued %d prefetches", off.Summary.PrefetchIssued)
	}
	if pf.Summary.PrefetchIssued == 0 {
		t.Error("prefetch cell issued nothing; the axis is not wired through")
	}
	if c.numResults() != 2 {
		t.Errorf("cells cached = %d, want 2 (prefetch must not collide with off)", c.numResults())
	}
}

func TestCampaignPrefetchFlagFlipsKeys(t *testing.T) {
	c := NewCampaign(SmallScale())
	for _, k := range c.datasetKeys(Astro) {
		if k.Prefetch.Enabled() {
			t.Fatal("plain campaign emitted prefetch keys")
		}
	}
	c.Cell.Prefetch = prefetch.Both
	for _, k := range c.allKeys() {
		if k.Prefetch != prefetch.Both {
			t.Fatal("prefetch campaign emitted non-prefetch keys")
		}
	}
}

func TestDatasetFieldTs(t *testing.T) {
	for _, ds := range datasets() {
		f := ds.FieldT()
		if f.Bounds() != ds.Field().Bounds() {
			t.Errorf("%s: unsteady bounds differ from steady", ds)
		}
		t0, t1 := f.TimeRange()
		if !(t1 > t0) || t0 != 0 {
			t.Errorf("%s: bad time range [%g, %g]", ds, t0, t1)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown dataset FieldT() should panic")
		}
	}()
	Dataset("bogus").FieldT()
}

// TestCampaignLogsEachOutcome pins the progress log behind `slbench -v`:
// one line per executed cell — its label with the summary, or FAILED
// with the error for a cell that fails by design — and none for a cache
// hit.
func TestCampaignLogsEachOutcome(t *testing.T) {
	sc := SmallScale()
	sc.AstroSeeds = 40
	sc.MaxSteps = 100
	sc.FaultTime = 0.005 // mid-run for a cell this small
	c := NewCampaign(sc)
	var lines []string
	c.Log = func(s string) { lines = append(lines, s) }
	ok := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8}
	c.Run(ok)
	c.Run(ok)
	refused := Key{Dataset: Astro, Seeding: Sparse, Alg: core.StaticAlloc, Procs: 8, Faults: FaultsKill}
	c.Run(refused)
	if len(lines) != 2 {
		t.Fatalf("logged %d lines, want 2 (one per executed cell): %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], ok.Label()) || strings.Contains(lines[0], "FAILED") {
		t.Errorf("success line = %q", lines[0])
	}
	if !strings.Contains(lines[1], refused.Label()) || !strings.Contains(lines[1], "FAILED: faults: static cannot recover") {
		t.Errorf("failure line = %q", lines[1])
	}
}

// TestFigureColumnsFollowAxes: every enabled campaign axis adds its
// columns after the figure's own metric, in a fixed order.
func TestFigureColumnsFollowAxes(t *testing.T) {
	c := NewCampaign(SmallScale())
	fig := Figures()[0]
	if got := c.FigureColumns(fig); len(got) != 1 || got[0] != fig.Metric {
		t.Errorf("plain campaign columns = %v", got)
	}
	c.Cell = Key{Unsteady: true, Prefetch: prefetch.Both, Injection: InjectStagger, Faults: FaultsKill}
	want := []string{fig.Metric, "epochs", "psteps", "hidden", "prefetch", "pfwaste", "apeak", "rstalls",
		"lost", "adopted", "reforms", "failovers", "sendfail"}
	if got := c.FigureColumns(fig); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("all-axes columns = %v, want %v", got, want)
	}
}
