package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/store"
	"repro/internal/trace"
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
		for _, seeding := range seedings() {
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

// TestMemoryBudgetOrdering holds the steady memoryBudget to what each
// scale's cells need of it: it holds a balanced working set but not one
// processor with all dense-thermal geometry, so the Figure 13 OOM can
// manifest.
func TestMemoryBudgetOrdering(t *testing.T) { checkMemoryBudget(t, false) }

// TestUnsteadyMemoryBudgetOrdering holds the unsteady memoryBudget above
// the steady one, because space-time pinning needs room, and to a
// balanced working set; the Figure 13 memory claim stays a
// steady-campaign check.
func TestUnsteadyMemoryBudgetOrdering(t *testing.T) { checkMemoryBudget(t, true) }

// checkMemoryBudget is the one budget table, {small, default, paper} ×
// {steady, unsteady}, each test taking one column. Every budget holds a
// balanced working set — Static's pinned share of the problem's own
// blocks at the smallest processor count, plus the block cache.
func checkMemoryBudget(t *testing.T, unsteady bool) {
	for _, sc := range []Scale{SmallScale(), defaultScale(), paperScale()} {
		t.Run(sc.Name, func(t *testing.T) {
			budget := memoryBudget(sc, unsteady)
			prob, err := BuildInjectedProblem(Thermal, Dense, sc, unsteady, injectT0)
			if err != nil {
				t.Fatal(err)
			}
			d := prob.Provider.Decomp()
			minProcs := int64(sc.ProcCounts[0])
			balanced := ((int64(d.NumBlocks())+minProcs-1)/minProcs + int64(sc.CacheBlocks)) * d.BlockBytes()
			if balanced > budget {
				t.Errorf("budget %d cannot hold the balanced working set %d", budget, balanced)
			}
			if unsteady {
				if steady := memoryBudget(sc, false); budget <= steady {
					t.Errorf("unsteady budget %d not above steady %d", budget, steady)
				}
				return
			}
			concentrated := int64(len(prob.Seeds))*int64(sc.ShortSteps)*trace.PointBytes + d.BlockBytes()
			if concentrated <= budget {
				t.Errorf("budget %d admits the full dense concentration %d (%.2f× the budget): the Figure 13 OOM cannot manifest",
					budget, concentrated, float64(concentrated)/float64(budget))
			}
		})
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
	if a.Summary != b.Summary {
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

// TestClaims pins every shape claim's verdict and margin at the small and
// default scales in testdata/claims.txt, one line per (scale, claim), so
// a change that moves a margin or flips a verdict shows as a diff line.
// Regenerate after a deliberate change:
//
//	go test ./internal/experiments -run TestClaims -update
//
// The default scale is the one the figures are read at: every claim must
// hold there, whatever the file says.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	got := map[string]string{}
	for _, name := range []string{"small", "default"} {
		sc, _ := ScaleByName(name)
		c := NewCampaign(sc)
		// slbench -shapes prewarms ShapeKeys on the worker pool, then runs
		// the checks serially: ShapeKeys must list every cell CheckShapes
		// reads, or the checks execute the missing ones one at a time.
		var executions atomic.Int64
		c.tune = func(*core.Config) { executions.Add(1) }
		c.RunKeys(ShapeKeys(c))
		prewarmed := executions.Load()
		results := CheckShapes(c)
		if n := executions.Load() - prewarmed; n != 0 {
			t.Errorf("%s: CheckShapes executed %d cells ShapeKeys does not list", name, n)
		}
		for i, r := range results {
			key := fmt.Sprintf("%s/%02d", name, i+1)
			got[key] = claimLine(r)
			if name == "default" && !r.OK {
				t.Errorf("%s fails at the default scale: %s", key, got[key])
			}
		}
	}
	checkGoldenFile(t, "claims.txt", "Shape claims: <scale>/<nn> <PASS|FAIL> <got> <op> <bound> margin <m> | <claim>; a claim a failed cell broke gives <cell>: <error>", got)
}

// claimLine renders one claim for testdata/claims.txt: its verdict, the
// comparison got op bound with its signed margin, each to 4 significant
// digits, and its text. CheckShapes' Detail is "got op bound (margin m)"
// for a comparison; for a claim a failed cell broke it is that cell's
// label and error, and the line carries it instead.
func claimLine(r ShapeResult) string {
	verdict := "PASS"
	if !r.OK {
		verdict = "FAIL"
	}
	var got, bound float64
	var op string
	if _, err := fmt.Sscanf(r.Detail, "%g %s %g", &got, &op, &bound); err != nil {
		return fmt.Sprintf("%s %s | %s", verdict, r.Detail, r.Claim)
	}
	return fmt.Sprintf("%s %.4g %s %.4g margin %+.4g | %s", verdict, r.Got, op, r.Bound, r.Margin, r.Claim)
}

// TestShapeChecksFailedCell: a claim that reads the summary of a failed
// cell fails and names that cell, rather than comparing the zero summary.
// Every Hybrid cell runs out of memory here, so no claim that reads one
// may pass, and its claims.txt line carries the cell, not a comparison.
func TestShapeChecksFailedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	c := NewCampaign(SmallScale())
	c.tune = func(cfg *core.Config) {
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
		res := results[i]
		if res.OK || res.Margin >= 0 || !strings.Contains(res.Detail, "/hybrid/") || !strings.Contains(res.Detail, "oom") {
			t.Errorf("%s: ok=%v margin=%+.3g detail %q, want a failure naming the hybrid cell's OOM", res.Claim, res.OK, res.Margin, res.Detail)
		}
		if line, want := claimLine(res), "FAIL "+res.Detail+" | "+res.Claim; line != want {
			t.Errorf("claims.txt line %q, want %q", line, want)
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
		for _, seeding := range seedings() {
			prob, err := BuildInjectedProblem(ds, seeding, sc, true, injectT0)
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
	single := sc
	single.TimeSlices = 1
	if _, err := BuildInjectedProblem(Astro, Sparse, single, true, injectT0); err == nil {
		t.Error("single time slice accepted")
	}
	if _, err := BuildInjectedProblem(Dataset("nope"), Sparse, sc, true, injectT0); err == nil {
		t.Error("unknown dataset accepted")
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
	if un.Summary == steady.Summary {
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
// one line per executed cell — its label with its Key.Columns, or FAILED
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
	refused := Key{Dataset: Astro, Seeding: Sparse, Alg: core.StaticAlloc, Procs: 8, Faults: faultsKill}
	c.Run(refused)
	if len(lines) != 2 {
		t.Fatalf("logged %d lines, want 2 (one per executed cell): %q", len(lines), lines)
	}
	// A success line prints the cell's columns, as slrun does.
	want := fmt.Sprintf("%-36s", ok.Label())
	for _, col := range ok.Columns() {
		want += " " + col + "=" + c.Run(ok).Summary.Column(col)
	}
	if lines[0] != want {
		t.Errorf("success line = %q, want %q", lines[0], want)
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
	c.Cell = Key{Unsteady: true, Prefetch: prefetch.Both, Injection: injectStagger, Faults: faultsKill}
	want := []string{fig.Metric, "epochs", "psteps", "hidden", "prefetch", "pfwaste", "apeak", "rstalls", "rstall-s",
		"lost", "adopted", "reforms", "failovers", "sendfail"}
	if got := c.FigureColumns(fig); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("all-axes columns = %v, want %v", got, want)
	}
	// A cell's Columns are its totals, stealing's, then the same axis
	// columns, every one a column Summary.Column formats.
	k := c.Cell
	k.Alg = core.WorkStealing
	cols := k.Columns()
	if got := strings.Join(cols[len(cols)-len(want)+1:], ","); got != strings.Join(want[1:], ",") {
		t.Errorf("stealing all-axes Columns end %s, want %v", got, want[1:])
	}
	for _, col := range cols {
		if (metrics.Summary{}).Column(col) == "?" {
			t.Errorf("Key.Columns names %q, which Summary.Column does not format", col)
		}
	}
}
