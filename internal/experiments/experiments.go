// Package experiments defines the paper's evaluation campaign: the three
// application datasets with sparse and dense seedings (Section 3.2), the
// simulated machine configuration (JaguarPF stand-in), and one experiment
// per figure of Section 5 (Figures 5–16). Figures 1–4, the illustrative
// renderings, are covered by the render package and cmd/slviz.
//
// Everything is parameterized by a Scale so the full paper-sized
// configuration (512 blocks × 1M cells, 20k seeds) and reduced
// CI/benchmark configurations share one code path.
//
// A Campaign memoizes at three levels: results by Key (Run retains
// them; Compute executes without retaining, for a caller that keeps a
// cache of its own), problems by (dataset, seeding, unsteady), and —
// since the sweep runs each problem under every algorithm, processor
// count and release schedule — the integration itself, as one segment
// tape per problem (tape.go): a streamline is integrated by the first
// cell that touches it and replayed by every cell, and the outcome is
// byte-identical to integrating it in each.
package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/seeds"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
)

// Dataset names one of the paper's three application problems.
type Dataset string

// The paper's datasets.
const (
	Astro   Dataset = "astro"   // supernova magnetic field (GenASiS stand-in)
	Fusion  Dataset = "fusion"  // tokamak field (NIMROD stand-in)
	Thermal Dataset = "thermal" // twin-inlet mixing box (Nek5000 stand-in)
)

// datasets lists all datasets in presentation order.
func datasets() []Dataset { return []Dataset{Astro, Fusion, Thermal} }

// Seeding selects the initial-condition placement of Section 3.1.
type Seeding string

// Seed distributions studied by the paper.
const (
	Sparse Seeding = "sparse"
	Dense  Seeding = "dense"
)

// seedings lists both seeding modes.
func seedings() []Seeding { return []Seeding{Sparse, Dense} }

// Scale sizes a campaign (ScaleByName). The "paper" scale reproduces the
// paper's numbers; "default" reduces seed counts ~10× for tractable
// wall-clock; "small" (SmallScale) is for CI and unit tests. A scale is
// its Curves, which fix every streamline a cell traces, and its Machine,
// which only decides where and when each is computed; both halves are
// embedded, so a field reads as sc.Field either way.
type Scale struct {
	Name string
	Curves
	Machine
}

// Curves is the half of a Scale the problem reads: the decomposition,
// the seed sets and the integration parameters. Curves.problem reads
// nothing else, so no Machine field can reach a memoized problem or its
// segment tape.
type Curves struct {
	BlocksPerAxis int // decomposition is BlocksPerAxis^3 blocks
	CellsPerAxis  int // cells per block per axis (1M cells = 100)
	// Seed counts, already scaled: the paper uses astro 20,000;
	// fusion 10,000; thermal sparse 4,096 (16^3); thermal dense 22,000.
	AstroSeeds        int
	FusionSeeds       int
	ThermalSparseGrid int // lattice edge n (seeds = n^3)
	ThermalDenseSeeds int
	// Integration budgets: dense thermal uses the short advection the
	// paper describes ("we only integrated the streamlines a short
	// distance").
	MaxSteps   int
	ShortSteps int
	// Integration parameters.
	Tol, HMax float64
	// TimeSlices is the number of stored time slices for unsteady
	// (pathline) cells. Steady cells ignore it.
	TimeSlices int
}

// Machine is the half of a Scale that simulates the curves: processors,
// caches, disks, and when seeds are released and processors lost.
type Machine struct {
	// ProcCounts is the strong-scaling sweep (the paper plots 64–512).
	ProcCounts []int
	// CacheBlocks is the per-processor LRU capacity for Load On Demand
	// and Hybrid slaves.
	CacheBlocks int
	// DiskServers models the parallel filesystem's concurrency: total
	// I/O bandwidth is DiskServers × per-stream bandwidth (0 disables
	// contention).
	DiskServers int
	// DiskLatencySec is the per-read latency; reduced scales with tiny
	// blocks use a smaller value than the paper's 10 ms so the
	// latency:transfer ratio stays realistic.
	DiskLatencySec float64
	// PrefetchDepth is the lookahead of the prefetch subsystem for cells
	// whose Key carries a prefetch policy. Cells with prefetching off
	// ignore it.
	PrefetchDepth int
	// InjectWindow is the virtual-second interval over which staggered
	// injection schedules (DESIGN.md §9) spread seed releases; cells
	// whose Key carries an all-at-t0 injection ignore it. Calibrated per
	// scale to the same order as the campaign wall clocks, so late
	// releases genuinely overlap — and reshape — the computation.
	InjectWindow float64
	// InjectRate is the rate-limited injection schedule's release rate
	// in seeds per virtual second.
	InjectRate float64
	// FaultTime is the virtual second at which fault-injecting cells
	// (DESIGN.md §11) lose their victims; calibrated per scale to land
	// mid-run, so the dead processors hold real in-flight work. Cells
	// whose Key carries no fault mode ignore it.
	FaultTime float64
}

// ScaleByName resolves a scale name as used by the sl* commands' -scale
// flag: "small", "default" or "paper".
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "small":
		return SmallScale(), true
	case "default":
		return defaultScale(), true
	case "paper":
		return paperScale(), true
	}
	return Scale{}, false
}

// paperScale reproduces the paper's configuration: 512 blocks of 1M
// cells, full seed counts, 64–512 processors. Expect multi-minute runs.
func paperScale() Scale {
	return Scale{
		Name: "paper",
		Curves: Curves{
			BlocksPerAxis:     8,
			CellsPerAxis:      100,
			AstroSeeds:        20000,
			FusionSeeds:       10000,
			ThermalSparseGrid: 16,
			ThermalDenseSeeds: 22000,
			MaxSteps:          1000,
			ShortSteps:        800,
			Tol:               1e-5,
			// ~50 integration steps per block crossing (1M-cell blocks
			// are finely resolved), so each loaded block amortizes real
			// compute — the balance the paper's machines ran at.
			HMax:       0.005,
			TimeSlices: 9,
		},
		Machine: Machine{
			ProcCounts:     []int{64, 128, 256, 512},
			CacheBlocks:    40,
			DiskServers:    8,
			DiskLatencySec: 0.01,
			PrefetchDepth:  2,
			// Paper-scale runs last tens of virtual seconds; a 10 s
			// window keeps the last waves landing while early seeds
			// still compute.
			InjectWindow: 10,
			InjectRate:   2000,
			// Killing at 5 s takes the victim while most streamlines
			// are still in flight.
			FaultTime: 5,
		},
	}
}

// defaultScale is the slbench default: the paper's block structure with
// ~10× fewer seeds, so a full campaign completes in minutes while
// preserving every qualitative shape.
func defaultScale() Scale {
	s := paperScale()
	s.Name = "default"
	// The scale-down preserves the paper's dimensionless regime: the
	// block count, processor sweep and seed counts all shrink ~8-10×
	// together, keeping seeds-per-block (~39 in the paper), seeds-per-
	// slave, blocks-per-processor and cache coverage in the ranges the
	// hybrid heuristics (N, NO, NL) were calibrated against.
	s.BlocksPerAxis = 4 // 64 blocks
	s.CellsPerAxis = 46 // ~1/10 of the paper's block bytes, like the seeds
	s.DiskLatencySec = 0.001
	s.ProcCounts = []int{8, 16, 32, 64}
	// 28 blocks (~356 MB) per processor: proportionally the ~20% of the
	// dataset a 1.3 GB JaguarPF core could cache, and just enough for the
	// dense-fusion torus working set (~24 blocks) to fit — the Section
	// 5.2 effect.
	s.CacheBlocks = 28
	s.AstroSeeds = 2000
	s.FusionSeeds = 1000
	s.ThermalSparseGrid = 8 // 512 seeds
	// The dense thermal count is the paper's 22,000, un-shrunk, and
	// memoryBudget's geometry term is derived from it. The Figure 13
	// OOM does not need it (small scale reproduces it at 1,200 seeds);
	// shrinking it is a workload change.
	s.ThermalDenseSeeds = 22000
	s.HMax = 0.01 // blocks are twice as wide as at paper scale
	// 4 epochs: enough that pathlines sweep several time slabs within
	// their step budget while the campaign stays minutes-scale.
	s.TimeSlices = 5
	// Default-scale cells run ~1-4 virtual seconds; a 1 s window makes
	// the injection schedule overlap roughly the first half of a run.
	s.InjectWindow = 1
	s.InjectRate = 2000
	// The fastest fault-injecting cells (astro sparse at the top of the
	// processor sweep) finish in ~0.3 virtual seconds; killing at 0.1 s
	// lands inside every cell's first half, mid-run even for the
	// quickest.
	s.FaultTime = 0.1
	return s
}

// SmallScale is for CI and unit tests: 64 blocks, small seed sets, a
// short processor sweep.
func SmallScale() Scale {
	return Scale{
		Name: "small",
		Curves: Curves{
			BlocksPerAxis:     4,
			CellsPerAxis:      20,
			AstroSeeds:        300,
			FusionSeeds:       200,
			ThermalSparseGrid: 4,
			ThermalDenseSeeds: 1200,
			MaxSteps:          600,
			ShortSteps:        150,
			Tol:               1e-4,
			HMax:              0.0125,
			TimeSlices:        4,
		},
		Machine: Machine{
			ProcCounts:     []int{8, 16, 32},
			CacheBlocks:    28,
			DiskServers:    4,
			DiskLatencySec: 0.001, // 128 KB test blocks read fast
			PrefetchDepth:  2,
			InjectWindow:   0.2,
			InjectRate:     1000,
			FaultTime:      0.05, // small cells run a few tenths of a virtual second
		},
	}
}

// Field returns the analytic stand-in field for a dataset.
func (d Dataset) Field() field.Field {
	switch d {
	case Astro:
		return field.DefaultSupernova()
	case Fusion:
		return field.DefaultTokamak()
	case Thermal:
		return field.DefaultThermalHydraulics()
	default:
		panic(fmt.Sprintf("experiments: unknown dataset %q", d))
	}
}

// FieldT returns the time-varying variant of a dataset's stand-in field,
// used by the unsteady (pathline) campaign cells. Each variant shares
// its steady counterpart's domain and qualitative structure (see
// internal/field/unsteady.go).
func (d Dataset) FieldT() field.FieldT {
	switch d {
	case Astro:
		return field.DefaultPulsingSupernova()
	case Fusion:
		return field.DefaultSawtoothTokamak()
	case Thermal:
		return field.DefaultSwitchingThermal()
	default:
		panic(fmt.Sprintf("experiments: unknown dataset %q", d))
	}
}

// BuildProblem assembles the steady core.Problem for a dataset and
// seeding at the given scale.
func BuildProblem(ds Dataset, seeding Seeding, sc Scale) (core.Problem, error) {
	return sc.Curves.problem(ds, seeding, false)
}

// problem assembles the core.Problem for a dataset and seeding. An
// unsteady (pathline) problem has the same decomposition, seed set and
// integration budget, but serves the dataset's time-varying field over
// TimeSlices stored time slices: every (spatial block, epoch) pair is
// then an independent block (paper Section 4), so the four algorithms
// trace pathlines through their unmodified block machinery.
func (cv Curves) problem(ds Dataset, seeding Seeding, unsteady bool) (core.Problem, error) {
	if !slices.Contains(datasets(), ds) {
		return core.Problem{}, fmt.Errorf("experiments: unknown dataset %q", ds)
	}
	if !slices.Contains(seedings(), seeding) {
		return core.Problem{}, fmt.Errorf("experiments: unknown seeding %q (valid: sparse, dense)", seeding)
	}
	if unsteady && cv.TimeSlices < 2 {
		return core.Problem{}, fmt.Errorf("experiments: need at least 2 time slices, got %d", cv.TimeSlices)
	}
	f := ds.Field()
	d := grid.NewDecomposition(f.Bounds(), cv.BlocksPerAxis, cv.BlocksPerAxis, cv.BlocksPerAxis, cv.CellsPerAxis)

	var seedPts []vec.V3
	maxSteps := cv.MaxSteps
	intOpts := integrate.Options{Tol: cv.Tol, HMax: cv.HMax}
	switch ds {
	case Astro:
		sn := f.(field.Supernova)
		if seeding == Sparse {
			seedPts = seeds.SparseRandom(f.Bounds().Expand(-0.1), cv.AstroSeeds, 1001)
		} else {
			// "seeded outside the proto-neutron star" — a shell hugging
			// the core, where rotation keeps field lines localized.
			seedPts = seeds.DenseCluster(f.Bounds(),
				vec.Of(sn.CoreRadius*1.5, 0, 0), sn.CoreRadius*0.8, cv.AstroSeeds, 1002)
		}
	case Fusion:
		tok := f.(field.Tokamak)
		if seeding == Sparse {
			seedPts = seeds.SparseInRegion(f.Bounds(), cv.FusionSeeds, 1003, tok.InsideTorus)
		} else {
			// Dense: one poloidal patch of the torus; the rotational
			// transform spreads the lines around the core anyway
			// (Section 5.2's observation).
			seedPts = seeds.DenseCluster(f.Bounds(),
				vec.Of(tok.MajorRadius, 0, 0), tok.MinorRadius*0.3, cv.FusionSeeds, 1004)
		}
	case Thermal:
		th := f.(field.ThermalHydraulics)
		if seeding == Sparse {
			// "4,096 seed points evenly on a 16x16x16 grid". The
			// overview seeding integrates a moderate distance.
			seedPts = seeds.SparseGrid(f.Bounds().Expand(-0.02), cv.ThermalSparseGrid)
			maxSteps = cv.MaxSteps / 2
		} else {
			// "22,000 streamlines in the shape of a circle immediately
			// around the inlet", integrated a short distance: the step
			// size is refined 40× so the curves resolve the inlet
			// turbulence (many points, little travel — the combination
			// behind the paper's Figure 13 memory blow-up).
			center := th.InletA.Add(vec.Of(0.02, 0, 0))
			seedPts = seeds.Circle(center, vec.Of(1, 0, 0), 0.05, cv.ThermalDenseSeeds)
			for i, p := range seedPts {
				seedPts[i] = f.Bounds().Expand(-1e-6).Clamp(p)
			}
			maxSteps = cv.ShortSteps
			// "We only integrated the streamlines a short distance": cap
			// the step size so the whole advection stays within the
			// inlet's block (speed ≤ ~1.5), resolving the inlet
			// turbulence with ShortSteps many points. This is what keeps
			// all 22,000 results on the one processor owning the inlet
			// block — the paper's Figure 13 memory blow-up.
			blockX := d.BlockSize().X
			intOpts.HMax = (0.7*blockX - 0.04) / (1.5 * float64(cv.ShortSteps))
		}
	}

	var prov grid.Provider = grid.AnalyticProvider{F: f, D: d}
	if unsteady {
		ft := ds.FieldT()
		d.TimeSlices = cv.TimeSlices
		d.T0, d.T1 = ft.TimeRange()
		prov = grid.AnalyticProvider{F: ft, D: d}
	}
	return core.Problem{
		Provider: prov,
		Seeds:    seedPts,
		IntOpts:  intOpts,
		MaxSteps: maxSteps,
	}, nil
}

// memoryBudget is a cell's per-processor memory limit: Static's pinned
// share of all blocks at the smallest processor count, plus the LRU
// cache, plus one eighth of the dense thermal result geometry. A single
// processor holding ALL dense thermal results therefore exceeds the
// steady budget — the paper's Figure 13 OOM — while every balanced
// distribution fits. Unsteady cells pin space-time blocks: epochs
// multiply the block count and two bounding time slices double the
// block bytes. It is the one function that reads both halves of a
// Scale: the block model and the dense geometry are the curves', the
// processor count and the cache the machine's.
func memoryBudget(sc Scale, unsteady bool) int64 {
	d := grid.Decomposition{CellsPerAxis: sc.CellsPerAxis, Ghost: 1}
	if unsteady {
		d.TimeSlices, d.T1 = sc.TimeSlices, 1
	}
	blocks := sc.BlocksPerAxis * sc.BlocksPerAxis * sc.BlocksPerAxis * d.Epochs()
	minProcs := sc.ProcCounts[0]
	pinned := int64((blocks + minProcs - 1) / minProcs)
	denseGeom := int64(sc.ThermalDenseSeeds) * int64(sc.ShortSteps) * trace.PointBytes
	return (pinned+int64(sc.CacheBlocks))*d.BlockBytes() + denseGeom/8
}

// MachineConfig builds the simulated-cluster configuration for one
// steady run.
func MachineConfig(alg core.Algorithm, procs int, sc Scale) core.Config {
	disk := store.DefaultDisk()
	disk.LatencySec = sc.DiskLatencySec
	return core.Config{
		Procs:        procs,
		Algorithm:    alg,
		Disk:         disk,
		Net:          comm.DefaultNetwork(),
		CacheBlocks:  sc.CacheBlocks,
		DiskServers:  sc.DiskServers,
		MemoryBudget: memoryBudget(sc, false),
		Hybrid:       core.DefaultHybrid(),
	}
}

// KeyMachineConfig builds the cluster configuration a campaign cell
// runs: MachineConfig, with the memory budget of the key's steady or
// unsteady blocks, the key's prefetch policy applied at the scale's
// lookahead depth and the key's fault mode materialized into the scale's
// kill schedule.
func KeyMachineConfig(k Key, sc Scale) core.Config {
	cfg := MachineConfig(k.Alg, k.Procs, sc)
	cfg.MemoryBudget = memoryBudget(sc, k.Unsteady)
	if k.Prefetch.Enabled() {
		cfg.Prefetch = prefetch.Config{Policy: k.Prefetch, Depth: sc.PrefetchDepth}
	}
	if k.Faults.Enabled() {
		cfg.Faults = sc.Machine.faultPlan(k.Faults)
	}
	return cfg
}

// Key identifies one run of the campaign.
type Key struct {
	Dataset Dataset
	Seeding Seeding
	Alg     core.Algorithm
	Procs   int
	// Unsteady selects the time-sliced (pathline) variant of the cell:
	// the dataset's time-varying field over Scale.TimeSlices stored
	// slices, traced by the same four algorithms.
	Unsteady bool
	// Prefetch selects the predictive-prefetching policy of the cell
	// (internal/prefetch) at Scale.PrefetchDepth lookahead. The zero
	// value (and prefetch.Off) runs without prefetching.
	Prefetch prefetch.Policy
	// Injection selects the seed-release schedule of the cell
	// (DESIGN.md §9) over Scale.InjectWindow. The zero value (and
	// "t0"/"off") releases every seed at time zero, the paper's
	// workload.
	Injection Injection
	// Faults selects the processor-loss scenario of the cell
	// (DESIGN.md §11), materialized by Scale.faultPlan. The zero value
	// (and "off") runs fault-free, the paper's workload.
	Faults FaultMode
}

// normalized maps the equivalent no-prefetch spellings ("" and
// prefetch.Off) and all-at-t0 injection spellings ("", "t0", "off") to
// one canonical key, so a cell cannot run or cache twice under two
// names.
func (k Key) normalized() Key {
	if !k.Prefetch.Enabled() {
		k.Prefetch = ""
	}
	k.Injection = k.Injection.normalized()
	k.Faults = k.Faults.normalized()
	return k
}

// Label renders the key the way tables list runs; unsteady (pathline)
// cells carry a "u:" prefix, staggered-injection cells an
// "+i:<schedule>" suffix, prefetching cells a "+pf:<policy>" suffix,
// fault-injecting cells a "+f:<mode>" suffix.
func (k Key) Label() string {
	label := string(k.Dataset) + "/" + string(k.Seeding) + "/" + string(k.Alg) + "/" + strconv.Itoa(k.Procs)
	if k.Unsteady {
		label = "u:" + label
	}
	if k.Injection.Enabled() {
		label += "+i:" + string(k.Injection)
	}
	if k.Prefetch.Enabled() {
		label += "+pf:" + string(k.Prefetch)
	}
	if k.Faults.Enabled() {
		label += "+f:" + string(k.Faults)
	}
	return label
}

// Outcome is one run's result (Err records expected failures such as the
// static-allocation OOM).
type Outcome struct {
	Key     Key
	Summary metrics.Summary
	Err     error
	// Obs holds the run's percentile report (stall, I/O-queue,
	// message-latency and step-count digests) when the campaign ran
	// with Observe set; nil otherwise. Observation never perturbs the
	// run, so Summary is bit-identical either way (the TraceEvents/
	// TraceBytes meta-counters excepted).
	Obs *obs.Report
}

// Campaign runs and caches the full evaluation at one scale. A Campaign
// is safe for concurrent use: Run and Compute may be called from any
// number of goroutines, and the batch entry points (RunKeys and
// FigureTable) execute missing cells on a bounded worker pool (see
// parallel.go). Every sweep cell is an independent deterministic
// simulation, so results are bit-identical regardless of execution order
// or worker count.
type Campaign struct {
	Scale Scale
	// Workers bounds how many sweep cells the batch entry points execute
	// concurrently: 0 (or negative) means runtime.NumCPU(), 1 forces
	// serial execution. Set it before the first Run.
	Workers int
	// Log, when non-nil, receives progress lines as runs complete. Calls
	// are serialized; completion order varies when Workers > 1.
	Log func(string)
	// Cell is the template of the key enumerators (datasetKeys and
	// FigureKeys): every cell they emit copies its machine axes —
	// Unsteady, Prefetch, Injection and Faults, the Key the slbench axis
	// flags build (AxisFlags). Its Dataset, Seeding, Alg and Procs are
	// ignored, and explicitly-built Keys are unaffected.
	Cell Key
	// Observe attaches a constant-memory obs recorder to every cell Run
	// or Compute executes and stores its percentile report in
	// Outcome.Obs — the slbench -json percentile block. Cells are
	// retained and shared by Key alone, so set it before the first Run.
	Observe bool

	mu       sync.Mutex
	results  map[Key]Outcome
	inflight map[Key]*flight

	probMu   sync.Mutex
	problems map[problemKey]*problemEntry
	// The segment tapes' state (tape.go), guarded by probMu: how many
	// Run/RunKeys calls are in flight and the ledger. tapeCount is the
	// one set of counters every tape adds to.
	active    int
	tapeStats TapeStats
	tapeCount core.TapeCounters

	logMu sync.Mutex

	// tune, when non-nil, adjusts each cell's machine configuration after
	// KeyMachineConfig builds it: the tests' seam for counting executions
	// and holding one open. A Key and a scale name are a cell's whole
	// identity, so nothing else sets it.
	tune func(*core.Config)
}

// NewCampaign creates an empty campaign at the given scale.
func NewCampaign(sc Scale) *Campaign {
	return &Campaign{
		Scale:    sc,
		results:  make(map[Key]Outcome),
		inflight: make(map[Key]*flight),
		problems: make(map[problemKey]*problemEntry),
	}
}

// problemKey is a problem's identity within the campaign's one Curves
// value — what reaches the integrator and nothing else: the dataset, the
// seeding, steady or unsteady. Every cell of such a triple shares one
// grid/field/seed construction and one segment tape (tape.go). A Key's
// other axes, the injection schedule among them, move no curve and stay
// out (TestKeyFieldIdentity holds the split), and no Machine field can
// reach the problem (Curves.problem cannot read one).
type problemKey struct {
	ds       Dataset
	seeding  Seeding
	unsteady bool
}

// problemEntry builds its problem exactly once, even under concurrent
// demand from many sweep cells.
type problemEntry struct {
	once sync.Once
	prob core.Problem
	err  error
	problemTape
}

// problem returns the memo entry of k's problem: Curves.problem of the
// campaign's scale for k's (dataset, seeding, unsteady), built on first
// demand, with no release schedule. The entry's Problem is shared between concurrent
// core.Run calls; that is safe because Run treats the problem as
// read-only (see core.Run) and execute writes a cell's release schedule
// into its own copy.
func (c *Campaign) problem(k Key) *problemEntry {
	pk := problemKey{ds: k.Dataset, seeding: k.Seeding, unsteady: k.Unsteady}
	c.probMu.Lock()
	e, ok := c.problems[pk]
	if !ok {
		e = &problemEntry{}
		c.problems[pk] = e
	}
	c.probMu.Unlock()
	e.once.Do(func() {
		e.prob, e.err = c.Scale.Curves.problem(pk.ds, pk.seeding, pk.unsteady)
	})
	return e
}

// Cached returns the outcome for k only if a Run has retained it; what
// Compute executes never shows here.
func (c *Campaign) Cached(k Key) (Outcome, bool) {
	k = k.normalized()
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.results[k]
	return out, ok
}

// Run returns the retained outcome of k, or computes it and retains it:
// the memo in front of Compute, consulted again by the call that takes
// the flight.
func (c *Campaign) Run(k Key) Outcome {
	if out, ok := c.Cached(k); ok {
		return out
	}
	return c.Compute(k, func() (Outcome, bool) { return c.Cached(k) }, func(out Outcome) {
		c.mu.Lock()
		c.results[out.Key] = out
		c.mu.Unlock()
	})
}

// flight is an execution in progress: out is final once done is closed.
type flight struct {
	done chan struct{}
	out  Outcome
}

// Compute executes k, with the obs recorder attached if the campaign
// observes, and retains nothing: the caller owns the outcome
// (cmd/slserve's cache is internal/serve's Store). Identical calls in
// flight share one execution. The call that takes a flight first asks lookup, if
// non-nil, for the caller's cached outcome: a hit is the flight's
// outcome and nothing executes, which closes the window between a
// caller's cache miss and its arrival here, during which an identical
// flight may have filled the cache and ended. Otherwise keep, if
// non-nil, runs once, on the call that executes, before the waiting
// calls are released or any later call can start a new execution — a
// cache filled there is filled by the time any other caller has the
// outcome.
func (c *Campaign) Compute(k Key, lookup func() (Outcome, bool), keep func(Outcome)) Outcome {
	k = k.normalized()
	c.mu.Lock()
	if f, busy := c.inflight[k]; busy {
		c.mu.Unlock()
		<-f.done
		return f.out
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[k] = f
	c.mu.Unlock()

	hit := false
	if lookup != nil {
		f.out, hit = lookup()
	}
	if !hit {
		c.enter()
		res, rep, err := c.execute(k)
		c.leave()
		f.out = Outcome{Key: k, Obs: rep, Err: err}
		if err == nil {
			f.out.Summary = res.Summary
		}
		if keep != nil {
			keep(f.out)
		}
	}

	c.mu.Lock()
	delete(c.inflight, k)
	c.mu.Unlock()
	close(f.done)
	if !hit {
		c.logOutcome(f.out)
	}
	return f.out
}

// execute performs the simulation for one configuration (no caching):
// a copy of the memoized problem carrying k's release schedule — the
// schedule gates when a seed starts, never where its curve goes, so the
// copy runs on the one segment tape (tape.go) of every cell of the
// problem — on k's machine.
func (c *Campaign) execute(k Key) (*core.Result, *obs.Report, error) {
	e := c.problem(k)
	if e.err != nil {
		return nil, nil, e.err
	}
	prob := e.prob
	if err := applyInjection(&prob, k.Injection, c.Scale.Machine); err != nil {
		return nil, nil, err
	}
	cfg := KeyMachineConfig(k, c.Scale)
	if c.tune != nil {
		c.tune(&cfg)
	}
	if c.Observe {
		cfg.Trace = obs.NewDigest()
	}
	prob.Tape = c.attachTape(e)
	defer c.detachTape()
	// Label the run for CPU profiling: every sample taken inside this
	// cell carries its key, so pprof -tagfocus isolates one cell of a
	// campaign (the slbench -cpuprofile flags).
	var res *core.Result
	var err error
	pprof.Do(context.Background(), pprof.Labels("cell", k.Label()), func(context.Context) {
		res, err = core.Run(prob, cfg)
	})
	var rep *obs.Report
	if cfg.Trace != nil {
		r := cfg.Trace.Report()
		rep = &r
	}
	return res, rep, err
}

func (c *Campaign) logOutcome(out Outcome) {
	if c.Log == nil {
		return
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	line := fmt.Sprintf("%-36s", out.Key.Label())
	if out.Err != nil {
		line += fmt.Sprintf(" FAILED: %v", out.Err)
	} else {
		for _, col := range out.Key.Columns() {
			line += " " + col + "=" + out.Summary.Column(col)
		}
	}
	c.Log(line)
}

// datasetKeys enumerates one dataset's full sweep (both seedings, all
// algorithms, all processor counts) in presentation order.
func (c *Campaign) datasetKeys(ds Dataset) []Key {
	var keys []Key
	t := c.Cell.normalized()
	for _, seeding := range seedings() {
		for _, alg := range core.Algorithms() {
			for _, procs := range c.Scale.ProcCounts {
				keys = append(keys, Key{Dataset: ds, Seeding: seeding, Alg: alg, Procs: procs,
					Unsteady: t.Unsteady, Prefetch: t.Prefetch, Injection: t.Injection, Faults: t.Faults})
			}
		}
	}
	return keys
}

// Figure describes one of the paper's quantitative figures.
type Figure struct {
	ID      int
	Title   string
	Dataset Dataset
	Metric  string // a metrics.Table column: wall, io, comm, efficiency
}

// Figures lists the paper's evaluation figures 5–16 in order.
func Figures() []Figure {
	return []Figure{
		{5, "Astrophysics: wall clock time", Astro, "wall"},
		{6, "Astrophysics: total I/O time", Astro, "io"},
		{7, "Astrophysics: block efficiency", Astro, "efficiency"},
		{8, "Astrophysics: communication time", Astro, "comm"},
		{9, "Fusion: wall clock time", Fusion, "wall"},
		{10, "Fusion: total I/O time", Fusion, "io"},
		{11, "Fusion: communication time", Fusion, "comm"},
		{12, "Fusion: block efficiency", Fusion, "efficiency"},
		{13, "Thermal hydraulics: wall clock time", Thermal, "wall"},
		{14, "Thermal hydraulics: total I/O time", Thermal, "io"},
		{15, "Thermal hydraulics: communication time", Thermal, "comm"},
		{16, "Thermal hydraulics: block efficiency", Thermal, "efficiency"},
	}
}

// FigureByID returns the figure definition with the given ID.
func FigureByID(id int) (Figure, bool) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// FigureKeys enumerates the configurations a figure needs, in the order
// its table lists them.
func (c *Campaign) FigureKeys(fig Figure) []Key {
	return c.datasetKeys(fig.Dataset)
}

// Columns names the metrics.Table columns that report cell k, the one
// vocabulary slrun, the campaign log and the figure tables print a
// Summary in: the run's totals, then the probe and token counts for a
// work-stealing cell, then k's axisColumns.
func (k Key) Columns() []string {
	cols := []string{"wall", "io", "ioq", "comm", "compute", "efficiency", "loads", "purges",
		"msgs", "bytes", "steps", "done", "peakmem", "imbalance"}
	if k.Alg == core.WorkStealing {
		cols = append(cols, "steals", "tokens")
	}
	return append(cols, k.axisColumns()...)
}

// axisColumns returns the metric columns a table of cells like k adds
// for k's machine axes, after its own: the epoch-crossing and
// pathline-step counts for unsteady cells, the hidden-I/O and
// hit/issue/waste columns for prefetching cells, the active-peak and
// release-stall columns for staggered-injection cells, and the
// loss/recovery columns for fault-injecting cells.
func (k Key) axisColumns() []string {
	var cols []string
	if k.Unsteady {
		cols = append(cols, "epochs", "psteps")
	}
	if k.Prefetch.Enabled() {
		cols = append(cols, "hidden", "prefetch", "pfwaste")
	}
	if k.Injection.Enabled() {
		cols = append(cols, "apeak", "rstalls", "rstall-s")
	}
	if k.Faults.Enabled() {
		cols = append(cols, "lost", "adopted", "reforms", "failovers", "sendfail")
	}
	return cols
}

// FigureColumns returns the metric columns a figure's table renders: the
// figure's own metric, then the campaign template's axisColumns.
func (c *Campaign) FigureColumns(fig Figure) []string {
	return append([]string{fig.Metric}, c.Cell.axisColumns()...)
}

// FigureTable runs (or fetches) every configuration a figure needs and
// renders it as an aligned text table, one row per cell in FigureKeys'
// order whatever the order the worker pool finished them in.
func (c *Campaign) FigureTable(fig Figure) string {
	keys := c.FigureKeys(fig)
	c.RunKeys(keys)
	var rows []metrics.TableRow
	for _, k := range keys {
		out := c.Run(k) // cached by RunKeys
		rows = append(rows, metrics.TableRow{Label: out.Key.Label(), Summary: out.Summary, Err: out.Err})
	}
	return fmt.Sprintf("Figure %d — %s (scale %s)\n%s",
		fig.ID, fig.Title, c.Scale.Name, metrics.Table(rows, c.FigureColumns(fig)))
}
