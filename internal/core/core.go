// Package core implements four parallel streamline algorithms over the
// simulated cluster — the paper's three plus a decentralized ablation —
// as four rows of one table (policies, below; DESIGN.md §4): a row is a
// placement (its builder), whether its pool loop steals, and its
// fault-recovery entry points.
//
//   - Static Allocation (Section 4.1): parallelize over blocks; each
//     processor owns a fixed 1/n of the blocks and streamlines are
//     communicated to block owners.
//   - Load On Demand (Section 4.2): parallelize over streamlines; each
//     processor owns a fixed 1/n of the seeds and loads blocks it needs
//     into an LRU cache. No communication.
//   - Hybrid Master/Slave (Section 4.3, the paper's contribution):
//     dedicated masters dynamically assign both streamlines and blocks to
//     slaves, applying the five rules (Assign-loaded, Assign-unloaded,
//     Send-force, Send-hint, Load) in the paper's 7-step sequence.
//   - Work Stealing (this repo's extension of the paper's Section 8
//     outlook; see DESIGN.md §6): Load On Demand's loop with stealing
//     on — idle processors steal batches of inactive streamlines from
//     probed victims, with termination detected by a circulating token
//     ring — fully decentralized, no masters, no global counter.
//
// The shared mechanisms are written once: the pool-worker loop
// (stealing.go, pool.go) runs both pool rows, every role parks
// not-yet-released seeds in a releaseQueue, drains its inbox with
// worker.drain, and lists what it holds through worker.resident for the
// recovery layer's one salvage routine (recovery.go).
//
// All four trace either workload: steady streamlines, or — when the
// problem's decomposition is time-sliced (DESIGN.md §7) — unsteady
// pathlines through space-time blocks, with no per-algorithm forks and
// one solver call (worker.integrate: integrate's one loop, reached
// through the evaluator interface, DESIGN.md §12).
// All four produce identical geometry for a given problem —
// parallelization strategy must not change the numerics — which the
// integration tests and golden digests verify.
//
// That invariant is also what lets a problem be integrated once and
// simulated many times: worker.advance, the one place any algorithm
// integrates, runs a streamline to the exit of its block as a pure
// function of the streamline's own state, so a Problem may carry a
// segment tape (Tape, tape.go): one of the runs holding it integrates
// each streamline once, seed to end, and every run replays the record — same
// summaries, same per-processor statistics, same trace events, a
// fraction of the host time (DESIGN.md §12). The tape
// holds no geometry, because the simulated machine reads none: a
// streamline's curve is a vertex count and a two-point tail
// (trace.Streamline), materialized only by runs that hand curves out
// (Config.CollectTraces).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
)

// Algorithm selects a parallelization strategy.
type Algorithm string

// The three algorithms of the paper, plus the decentralized
// work-stealing ablation.
const (
	StaticAlloc  Algorithm = "static"
	LoadOnDemand Algorithm = "ondemand"
	HybridMS     Algorithm = "hybrid"
	WorkStealing Algorithm = "stealing"
)

// Algorithms lists all strategies in presentation order: the paper's
// three first, then the work-stealing extension.
func Algorithms() []Algorithm {
	return []Algorithm{StaticAlloc, LoadOnDemand, HybridMS, WorkStealing}
}

// policy is one row of the design-space table (DESIGN.md §4): what an
// algorithm is, as far as Run and the recovery layer can tell.
type policy struct {
	// build spawns the processors and places blocks and seeds on them.
	build func(*runState)
	// steal turns on the pool loop's stealing: dry processors probe peers
	// for batches, and a token ring detects termination.
	steal bool
	// check rejects configs the row cannot run; nil accepts all.
	check func(*Config) error
	// The recovery entry points (recovery.go). died salvages and
	// re-homes what was lost with processor idx; route re-homes
	// salvaged records (dead letters included) anchored at deadIdx;
	// ledgerFull, when set, runs as the completion ledger reaches the
	// seed total under a fault plan.
	died       func(r *runState, idx int, envs []comm.Envelope)
	route      func(r *runState, recs []seedRec, deadIdx int)
	ledgerFull func(r *runState)
}

// policies is the table: four algorithms, four rows. Static allocation's
// recovery column is the typed refusal.
var policies = map[Algorithm]policy{
	StaticAlloc: {build: (*runState).buildStatic, died: (*runState).staticDied},
	LoadOnDemand: {build: (*runState).buildPoolWorkers,
		died: (*runState).poolWorkerDied, route: (*runState).routeToSurvivors, ledgerFull: (*runState).releaseSurvivors},
	HybridMS: {build: (*runState).buildHybrid, check: checkHybrid,
		died: (*runState).hybridDied, route: (*runState).routeToMaster},
	WorkStealing: {build: (*runState).buildPoolWorkers, steal: true,
		died: (*runState).poolWorkerDied, route: (*runState).routeToSuccessor},
}

// Problem describes one streamline computation: the dataset, the seed
// set, and the integration budget.
type Problem struct {
	// Provider serves block data for the decomposed dataset.
	Provider grid.Provider
	// Seeds are the initial conditions. Seeds outside the domain are
	// rejected by Validate.
	Seeds []vec.V3
	// IntOpts configures the Dormand–Prince solver.
	IntOpts integrate.Options
	// MaxSteps bounds each streamline's accepted steps (0 = 1000).
	MaxSteps int
	// MaxTime bounds each streamline's integration time (0 = unlimited).
	MaxTime float64
	// Release holds each seed's injection time in virtual machine
	// seconds (package seeds, DESIGN.md §9); nil means the paper's
	// fixed population, all released at time zero. A seed with a future
	// release is zero-cost to every algorithm until its time arrives —
	// parked, never advanced, loaded for, or migrated. Release gates
	// scheduling only: the geometry of a particle's path after release
	// is independent of the schedule (pinned by the golden digests).
	Release []float64
	// Tape, when non-nil, is this problem's segment tape (tape.go): the
	// run replays its streamlines from the tape, recording first those
	// no run has. It changes no result — summaries, per-processor
	// statistics and trace events are byte-identical with or without it —
	// only how long the run takes on the host. A handle, not an option:
	// experiments.Campaign decides how long it lives, and nothing else
	// sets it.
	Tape *Tape
}

// Validate reports a descriptive error for malformed problems.
func (p *Problem) Validate() error {
	if p.Provider == nil {
		return errors.New("core: nil provider")
	}
	if err := p.Provider.Decomp().Validate(); err != nil {
		return err
	}
	if len(p.Seeds) == 0 {
		return errors.New("core: no seeds")
	}
	d := p.Provider.Decomp()
	if d.Unsteady() && d.T0 != 0 {
		// Seeds are released at integration time zero (trace.New), so a
		// time-sliced dataset must cover [0, T1].
		return fmt.Errorf("core: unsteady decomposition starts at t=%g, want 0", d.T0)
	}
	for i, s := range p.Seeds {
		if _, ok := d.Locate(s); !ok {
			return fmt.Errorf("core: seed %d at %v outside domain %v", i, s, d.Domain)
		}
	}
	if p.Release != nil {
		if len(p.Release) != len(p.Seeds) {
			return fmt.Errorf("core: %d release times for %d seeds", len(p.Release), len(p.Seeds))
		}
		for i, t := range p.Release {
			if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
				return fmt.Errorf("core: seed %d has invalid release time %g", i, t)
			}
		}
	}
	return nil
}

// release returns seed i's injection time (zero when no schedule is set).
func (p *Problem) release(i int) float64 {
	if p.Release == nil {
		return 0
	}
	return p.Release[i]
}

func (p *Problem) maxSteps() int {
	if p.MaxSteps <= 0 {
		return 1000
	}
	return p.MaxSteps
}

// secPerStep is the virtual CPU cost of one accepted Runge–Kutta step
// (including its field evaluations/interpolations), loosely calibrated
// to 2009-era per-core advection throughput (~200k adaptive steps/s).
const secPerStep = 5e-6

// HybridParams are the tuning constants of the Hybrid Master/Slave
// algorithm, with the paper's published defaults.
type HybridParams struct {
	N  int // seeds per assignment ("Initially, each slave is assigned N = 10")
	NO int // slave overload limit ("NO = 20×N")
	NL int // block-load threshold ("NL = 40")
	W  int // slaves per master ("one master per W = 32 slaves")
}

// DefaultHybrid returns the paper's parameter choices.
func DefaultHybrid() HybridParams {
	return HybridParams{N: 10, NO: 200, NL: 40, W: 32}
}

func (h HybridParams) defaults() HybridParams {
	d := DefaultHybrid()
	if h.N <= 0 {
		h.N = d.N
	}
	if h.NO <= 0 {
		h.NO = 20 * h.N
	}
	if h.NL <= 0 {
		h.NL = d.NL
	}
	if h.W <= 0 {
		h.W = d.W
	}
	return h
}

// Config describes the simulated machine and the strategy to run.
type Config struct {
	Procs     int
	Algorithm Algorithm
	Disk      store.DiskModel
	Net       comm.Network

	// CacheBlocks is the per-processor LRU capacity in blocks for Load
	// On Demand and for Hybrid slaves (0 = unbounded). Static Allocation
	// pins its owned blocks instead.
	CacheBlocks int
	// DiskServers, when > 0, serializes block reads through that many
	// shared I/O servers, modeling a parallel filesystem whose aggregate
	// bandwidth does not grow with processor count.
	DiskServers int
	// MemoryBudget, when > 0, is the per-processor memory limit in bytes
	// (blocks + streamline geometry). Exceeding it aborts the run with a
	// *store.OOMError, the paper's Static-Allocation dense-seeding
	// failure mode.
	MemoryBudget int64
	// Hybrid holds the master/slave tuning parameters.
	Hybrid HybridParams
	// Prefetch configures predictive asynchronous block loading
	// (internal/prefetch): reads issued ahead of demand that overlap
	// computation. The zero value disables it. Prefetching changes
	// timings, never geometry (pinned by the golden digests).
	Prefetch prefetch.Config
	// CollectTraces gathers the finished streamlines into the Result,
	// and is what makes the run's streamlines keep their curves at all
	// (costs host memory and, on a segment tape, the replay; used by
	// tests, examples and rendering).
	CollectTraces bool
	// Faults schedules deterministic processor deaths (internal/faults).
	// The dynamic algorithms recover: survivors adopt the victim's
	// unfinished streamlines (restarting each from its seed, so geometry
	// is unchanged), work stealing re-forms its token ring around the
	// gap, and hybrid promotes a slave when a master dies. Static
	// allocation cannot recover — block ownership dies with the
	// processor — and fails with *faults.UnrecoverableError. The empty
	// plan leaves every run byte-identical to pre-fault builds.
	Faults faults.Plan
	// Trace, when non-nil, receives the run's virtual-time event stream
	// (internal/obs): per-processor activity spans plus block, message,
	// steal, token and recovery marks. Run installs it on the kernel
	// (sim.Kernel.SetTrace), through which every layer reaches it.
	// Tracing is purely observational — geometry, metrics and golden
	// digests are bit-identical with it on or off (only the
	// TraceEvents/TraceBytes meta-counters differ), and a nil recorder
	// (the default) records nothing: every emission is the recorder's
	// inlined nil-receiver no-op. Not a campaign axis: it never
	// participates in experiments.Key.
	Trace *obs.Recorder
}

// Validate reports a descriptive error for malformed configs.
func (c *Config) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("core: non-positive processor count %d", c.Procs)
	}
	row, ok := policies[c.Algorithm]
	if !ok {
		return fmt.Errorf("core: unknown algorithm %q", c.Algorithm)
	}
	if row.check != nil {
		if err := row.check(c); err != nil {
			return err
		}
	}
	if err := c.Prefetch.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(c.Procs); err != nil {
		return err
	}
	if c.Faults.Enabled() && c.Net.LatencySec == 0 {
		return &faults.NoLatencyError{}
	}
	return nil
}

// Result reports one run.
type Result struct {
	Summary metrics.Summary
	PerProc []metrics.ProcStats
	// Streamlines holds the finished curves when CollectTraces was set,
	// ordered by streamline ID.
	Streamlines []*trace.Streamline
}

// Run executes the configured algorithm on the problem and returns its
// metrics. Runs are deterministic: the same problem and config produce
// identical results.
//
// Concurrent Run calls are independent — each builds its own simulation
// kernel, fabric, caches and collectors — and may share a single Problem
// value: Run treats the problem as read-only (seeds are copied into
// per-run records before use) and requires only that the Provider be safe
// for concurrent use, which AnalyticProvider and SampledProvider are. The
// parallel campaign in internal/experiments relies on both properties.
func Run(p Problem, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Hybrid = cfg.Hybrid.defaults()

	r := &runState{
		prob:    &p,
		cfg:     &cfg,
		alg:     policies[cfg.Algorithm],
		kernel:  sim.New(),
		collect: metrics.NewCollector(cfg.Procs),
		pf:      prefetch.New(p.Provider.Decomp(), cfg.Prefetch),
	}
	r.fabric = comm.NewFabric(cfg.Net)
	if cfg.DiskServers > 0 {
		cfg.Disk.Shared = sim.NewResource(r.kernel, cfg.DiskServers)
	}
	// One recorder per run, held by the kernel: every layer reaches it
	// through the process it holds, and the kernel records message-wait
	// idle spans itself. The seed release schedule anchors the
	// recorder's active-streamline series.
	r.kernel.SetTrace(cfg.Trace)
	if cfg.Trace != nil {
		cfg.Trace.SetNumProcs(cfg.Procs)
		releases := make([]float64, len(p.Seeds))
		for i := range releases {
			releases[i] = p.release(i)
		}
		cfg.Trace.SetReleases(releases)
	}
	r.procs = make([]*sim.Proc, cfg.Procs)
	r.workers = make([]*worker, cfg.Procs)
	// The fault route is installed on every run. Without a plan no
	// processor fails, so no letter is ever dead and nothing is armed.
	r.faultsOn = cfg.Faults.Enabled()
	r.kernel.SetDeadLetter(r.onDeadLetter)

	r.alg.build(r)

	// Arm the plan in canonical (time, proc) order: simultaneous deaths
	// are processed lowest-index first, deterministically.
	for _, ev := range cfg.Faults.Canonicalize().Events {
		idx := ev.Proc
		r.kernel.At(ev.Time, func() { r.failProc(idx) })
	}

	simErr := r.kernel.Run()
	if p.Tape != nil {
		p.Tape.account(r.integrated, r.replayed)
	}
	if r.err != nil {
		// An in-simulation failure (OOM, an unrecoverable fault) halts
		// the kernel, which unwinds the surviving processes
		// deterministically at the fault instant; report the root cause.
		return nil, r.err
	}
	if simErr != nil {
		return nil, simErr
	}

	// Fold the trace volume into the metrics as the two meta-counters
	// (zero whenever tracing is off — the one deliberate exception to
	// the tracing-on/off bit-identity of the Summary).
	for i := 0; i < cfg.Procs; i++ {
		st := r.collect.P(i)
		st.TraceEvents, st.TraceBytes = cfg.Trace.ProcCount(i)
	}
	res := &Result{
		Summary: r.collect.Aggregate(),
		PerProc: r.collect.All(),
	}
	if cfg.CollectTraces {
		res.Streamlines = r.finished
		sort.Slice(res.Streamlines, func(i, j int) bool {
			return res.Streamlines[i].ID < res.Streamlines[j].ID
		})
		if len(res.Streamlines) != len(p.Seeds) {
			return nil, fmt.Errorf("core: %d streamlines finished, %d seeded",
				len(res.Streamlines), len(p.Seeds))
		}
	}
	return res, nil
}

// runState is the shared context of one run.
type runState struct {
	prob    *Problem
	cfg     *Config
	alg     policy // cfg.Algorithm's row of the policies table
	kernel  *sim.Kernel
	fabric  *comm.Fabric
	collect *metrics.Collector
	// pf predicts prefetch targets; nil when cfg.Prefetch is off, so
	// every hook gates on a nil check alone.
	pf *prefetch.Predictor

	err      error // first fatal in-simulation error (e.g. OOM)
	finished []*trace.Streamline
	// Accepted steps this run integrated resp. replayed from prob.Tape,
	// added to the tape's counters when the run ends.
	integrated, replayed int64

	// procs and workers index the per-processor runtime by endpoint
	// (spawn order == endpoint index for every algorithm). The recovery
	// layer reads them with its god's-eye view at fault instants.
	procs   []*sim.Proc
	workers []*worker

	// Fault-injection state (recovery.go). faultsOn reports a non-empty
	// plan, and is read only where the protocols differ under one: the
	// completion ledger below, Load On Demand's exit, and the hybrid
	// coordinator's count. The rest is inert until a processor dies.
	faultsOn bool
	// completedTotal is the run's durable completion ledger: the recovery
	// layer's stand-in for the completion records a resilient system
	// would keep outside any single processor's memory. It feeds token
	// regeneration and the coordinator recheck after a death.
	completedTotal int
	// poolWorkers registers each Load-On-Demand or work-stealing
	// processor.
	poolWorkers []*poolWorker
	// hybMasters / hybSlaves register hybrid roles by endpoint. A
	// promoted processor moves from hybSlaves to hybMasters.
	hybMasters []*master
	hybSlaves  []*slave
	// masterEPs lists live (or promotion-pending) master endpoints,
	// sorted ascending; coordEP == masterEPs[0] is the current
	// completion coordinator.
	masterEPs []int
	coordEP   int
	// hybOrphans parks salvaged hybrid work while no master is live but
	// a promotion is still in flight (its msgPromote dead-letters and
	// re-promotes one detection latency out); hybridAfterDeath flushes
	// the parked records to the next enthroned master.
	hybOrphans []seedRec
	// lastKilled is the processor failProc killed last: the one a
	// hybrid run that cannot recover names in its typed failure.
	lastKilled int
}

// fail records the first fatal error and halts the kernel: every
// surviving process is unwound deterministically at the current instant
// instead of being stranded until the event queue drains into a
// deadlock report, and one that has not run yet never starts.
func (r *runState) fail(err error) {
	if r.err == nil {
		r.err = err
		r.kernel.Halt()
	}
}

func (r *runState) failed() bool { return r.err != nil }

// complete records a finished streamline. Its geometry stays resident on
// the processor that finished it (results are held for output), which is
// what makes dense seeding under Static Allocation run out of memory in
// the paper's Section 5.3 — so completion does NOT release the
// streamline's memory accounting.
func (r *runState) complete(w *worker, sl *trace.Streamline) {
	w.stats.StreamlinesCompleted++
	w.noteDeactivated(1)
	w.proc.Trace().Mark(w.end.Index(), obs.MarkComplete, w.proc.Now(), int64(sl.ID), int64(sl.Steps))
	if r.cfg.CollectTraces {
		r.finished = append(r.finished, sl)
	}
	if r.faultsOn {
		r.completedTotal++
		if r.completedTotal == len(r.prob.Seeds) && r.alg.ledgerFull != nil {
			r.alg.ledgerFull(r)
		}
	}
}

// seedRec pairs a seed with its containing block, global ID and
// scheduled release time.
type seedRec struct {
	id      int
	p       vec.V3
	block   grid.BlockID
	release float64
}

// streamline materializes rec as a fresh trace object carrying its
// release time. This is where a run decides what its streamlines are:
// only one that hands its curves out (CollectTraces) keeps them; for the
// rest geometry is a count (trace.Streamline.Verts).
func (r *runState) streamline(rec seedRec) *trace.Streamline {
	sl := trace.NewAt(rec.id, rec.p, rec.block, rec.release)
	if !r.cfg.CollectTraces {
		sl.Points = nil
	}
	return sl
}

// seedRecords locates every seed, sorted by (block, id) so contiguous
// splits are grouped by block "to enhance data locality" (Section 4.2).
// Seeds are released at the decomposition's initial time, so for
// unsteady problems every seed starts in an epoch-0 space-time block —
// which Locate already returns.
func (r *runState) seedRecords() []seedRec {
	d := r.prob.Provider.Decomp()
	recs := make([]seedRec, len(r.prob.Seeds))
	for i, s := range r.prob.Seeds {
		b, _ := d.Locate(s) // validated already
		recs[i] = seedRec{id: i, p: s, block: b, release: r.prob.release(i)}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].block != recs[j].block {
			return recs[i].block < recs[j].block
		}
		return recs[i].id < recs[j].id
	})
	return recs
}

// releaseQueue parks work whose injection time (DESIGN.md §9) has not
// arrived and hands it back in (release, id) order — the one
// deterministic activation order, whoever holds the work: static owners
// and pool workers park streamlines, masters park seed records.
type releaseQueue[T any] struct {
	key    func(T) (release float64, id int)
	items  []T
	sorted bool
}

func slKey(sl *trace.Streamline) (float64, int) { return sl.Release, sl.ID }
func recKey(rec seedRec) (float64, int)         { return rec.release, rec.id }

func (q *releaseQueue[T]) push(x T) {
	q.items = append(q.items, x)
	q.sorted = false
}

// ordered returns the parked items in activation order.
func (q *releaseQueue[T]) ordered() []T {
	if !q.sorted {
		sort.Slice(q.items, func(i, j int) bool {
			ri, idi := q.key(q.items[i])
			rj, idj := q.key(q.items[j])
			if ri != rj {
				return ri < rj
			}
			return idi < idj
		})
		q.sorted = true
	}
	return q.items
}

// next returns the earliest parked release time, or false when nothing
// is parked.
func (q *releaseQueue[T]) next() (float64, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	release, _ := q.key(q.ordered()[0])
	return release, true
}

// release hands every item whose time has arrived on w's clock to
// activate, in order, and reports whether any moved.
func (q *releaseQueue[T]) release(w *worker, activate func(T)) (moved bool) {
	now := w.proc.Now()
	for len(q.items) > 0 {
		x := q.ordered()[0]
		release, id := q.key(x)
		if release > now {
			break
		}
		q.items = q.items[1:]
		w.proc.Trace().Mark(w.end.Index(), obs.MarkRelease, now, int64(id), 0)
		activate(x)
		moved = true
	}
	return moved
}

// worker bundles the per-processor runtime pieces shared by all four
// algorithms.
type worker struct {
	run   *runState
	proc  *sim.Proc
	end   *comm.Endpoint
	cache *store.Cache
	stats *metrics.ProcStats

	// geomBytes tracks resident streamline memory for the budget check.
	geomBytes int64
	// activeNow counts released, unterminated streamlines resident on
	// this processor; its high-water mark is the ActivePeak metric, the
	// instantaneous working population an injection schedule shapes.
	activeNow int64

	// sending / sendingRecs hold work that lives only in a local
	// variable while a Send's posting cost elapses — a kill window: if
	// the processor dies during that Sleep the streamlines are in
	// neither a pool nor the wire. The recovery layer salvages them.
	sending     []*trace.Streamline
	sendingRecs []seedRec
	// resident lists the work the processor's current role holds — a
	// pool's or slave's streamlines, a master's unassigned seeds — for
	// the same salvage.
	resident func() ([]*trace.Streamline, []seedRec)

	// solver and ptsBuf are reused across advance calls: the solver is
	// reconfigured per streamline (its H is per-streamline state), and
	// ptsBuf backs the integrator's geometry collection so steady-state
	// advection does not allocate.
	solver *integrate.DoPri5
	ptsBuf []vec.V3
}

// newWorker attaches a worker to proc with the given cache capacity.
func (r *runState) newWorker(proc *sim.Proc, statIdx, cacheBlocks int) *worker {
	stats := r.collect.P(statIdx)
	cache := store.NewCache(proc, r.prob.Provider, r.cfg.Disk, cacheBlocks, stats)
	if r.pf != nil {
		// Bound speculation: at most 2×depth reads in flight per
		// processor, so prefetching cannot monopolize the shared I/O
		// servers or flood a small cache faster than it consumes.
		cache.SetPrefetchLimit(2 * r.pf.Depth())
	}
	w := &worker{
		run:    r,
		proc:   proc,
		end:    r.fabric.Attach(proc, stats),
		cache:  cache,
		stats:  stats,
		solver: integrate.NewDoPri5(r.prob.IntOpts),
	}
	r.procs[statIdx] = proc
	r.workers[statIdx] = w
	return w
}

// tryPrefetch issues one speculative read, refusing when the memory
// budget lacks headroom: beyond this read's own buffer it keeps one
// further block of reserve, so speculation backs off well before the
// slack a demand load or geometry growth is about to need. (The guard
// is a strong backstop, not an absolute proof — a run already within
// one block of its budget can still be tipped by timing shifts, but
// such a run is on the OOM boundary with prefetching off too.)
// Already-resident and in-flight targets are no-ops inside the cache.
func (w *worker) tryPrefetch(id grid.BlockID) bool {
	if budget := w.run.cfg.MemoryBudget; budget > 0 {
		bb := w.run.prob.Provider.Decomp().BlockBytes()
		if w.cache.ResidentBytes()+w.geomBytes+2*bb > budget {
			return false
		}
	}
	return w.cache.Prefetch(id)
}

// prefetchAll issues asynchronous reads for predicted blocks.
func (w *worker) prefetchAll(ids []grid.BlockID) {
	for _, id := range ids {
		w.tryPrefetch(id)
	}
}

// prefetchOnExit issues the reads for a streamline that just advanced
// out of block prev into a non-resident block. No-op when prefetching is
// off.
func (w *worker) prefetchOnExit(prev grid.BlockID, sl *trace.Streamline) {
	if w.run.pf != nil {
		w.prefetchAll(w.run.pf.OnExit(prev, sl))
	}
}

// prefetchPreload streams a static worker's still-unloaded pinned blocks
// in behind a cold demanded load, in preload (ascending owned-ID) order,
// so later first-touch misses pay only residual time. No-op when
// prefetching is off or the policy has no meaning for this workload
// (prefetch.Predictor.PreloadEnabled).
func (w *worker) prefetchPreload(preload []grid.BlockID) {
	if w.run.pf == nil || !w.run.pf.PreloadEnabled() {
		return
	}
	issued := 0
	for _, b := range preload {
		if issued >= w.run.pf.Depth() {
			break
		}
		// Resident and in-flight blocks (including the just-demanded
		// one) are refused inside tryPrefetch.
		if w.tryPrefetch(b) {
			issued++
		}
	}
}

// adoptStreamline accounts for a streamline becoming resident.
func (w *worker) adoptStreamline(sl *trace.Streamline) { w.geomBytes += sl.Bytes() }

// releaseStreamline accounts for a streamline leaving this processor.
func (w *worker) releaseStreamline(sl *trace.Streamline) { w.geomBytes -= sl.Bytes() }

// noteActivated records streamlines entering this processor's released
// working population (a t0 or just-released seed, or a migrated/stolen
// arrival), tracking the ActivePeak metric.
func (w *worker) noteActivated(n int) {
	w.activeNow += int64(n)
	if w.activeNow > w.stats.ActivePeak {
		w.stats.ActivePeak = w.activeNow
	}
}

// noteDeactivated records streamlines leaving the released working
// population (completion here, or transmission elsewhere).
func (w *worker) noteDeactivated(n int) { w.activeNow -= int64(n) }

// stallForRelease parks the processor until the virtual clock reaches
// next — the earliest scheduled seed release it is waiting on — while
// staying responsive: an arriving message cuts the stall short and is
// returned for handling. Only a stall that actually ran to the release
// deadline is counted (a message arrival is ordinary traffic, not
// injection starvation).
func (w *worker) stallForRelease(next float64) (env comm.Envelope, got bool) {
	start := w.proc.Now()
	env, got = w.end.RecvUntil(next)
	if !got {
		w.stats.ReleaseStalls++
		w.stats.ReleaseStallTime += w.proc.Now() - start
		// The kernel records the stall interval itself as an idle span;
		// the mark attributes it to injection starvation.
		w.proc.Trace().Mark(w.end.Index(), obs.MarkPark, start, 0, 0)
	}
	return env, got
}

// recvOrRelease blocks for the next message — no longer than the
// earliest parked release, when something is parked (a releaseQueue's
// next()). It reports false when the release deadline cut the wait.
func (w *worker) recvOrRelease(next float64, parked bool) (comm.Envelope, bool) {
	if parked {
		return w.stallForRelease(next)
	}
	return w.end.Recv(), true
}

// drain handles every delivered message, stopping early — and reporting
// true — once handle says the processor is finished.
func (w *worker) drain(handle func(comm.Envelope) (stop bool)) bool {
	for {
		env, ok := w.end.TryRecv()
		if !ok {
			return false
		}
		if handle(env) {
			return true
		}
	}
}

// checkMemory enforces the per-processor budget; on violation it records
// an OOM error on the run and reports false.
func (w *worker) checkMemory(what string) bool {
	budget := w.run.cfg.MemoryBudget
	used := w.cache.ResidentBytes() + w.geomBytes
	w.stats.ObserveMemory(used)
	if budget > 0 && used > budget {
		w.run.fail(&store.OOMError{
			Proc:        w.end.Index(),
			NeededBytes: used,
			BudgetBytes: budget,
			What:        what,
		})
		return false
	}
	return true
}

// advance integrates sl inside evaluator ev, bounded by its block,
// charging compute time. It updates the streamline's status and block.
// Geometry growth is tracked against the memory budget.
//
// This one loop serves both workloads: when the decomposition is
// time-sliced the solver is handed the evaluator's time-dependent face
// (grid.EvaluatorT) and the segment is additionally bounded by the
// current block's epoch — crossing the epoch boundary moves the pathline to the
// next space-time block exactly as leaving the spatial bounds moves a
// streamline to a neighbor block. None of the four algorithms special-
// case time: block handoff, caching and communication see only BlockIDs.
func (w *worker) advance(sl *trace.Streamline, ev grid.Evaluator) {
	p := w.run.prob
	lim, epoch, unsteady, ok := w.segment(sl, ev)
	if !ok {
		return
	}

	// The one place the segment tape (tape.go) is consulted: its line
	// stands in for the integration of a streamline that keeps no curve,
	// and everything after this block — block lookup, virtual cost,
	// counters, spans, memory accounting — runs on res either way, so a
	// summary cannot tell the two apart.
	before := sl.Bytes()
	var res integrate.AdvectResult
	// tally is the counter the segment's steps land in, with stats.Steps
	// once the compute time has elapsed: a kill mid-sleep counts neither.
	tally := &w.run.integrated
	if p.Tape == nil || sl.Points != nil {
		res = w.integrate(sl, ev, unsteady, lim)
	} else if segs := p.Tape.line(w, sl.ID); sl.Seg < len(segs) {
		res = segs[sl.Seg].replay(sl)
		tally = &w.run.replayed
	} else {
		w.run.fail(fmt.Errorf("core: tape holds %d segments of streamline %d, the run asked for segment %d",
			len(segs), sl.ID, sl.Seg))
		sl.Status = trace.Failed
		return
	}
	sl.Seg++
	if unsteady {
		w.stats.PathlineSteps += int64(res.Steps)
	}
	w.geomBytes += sl.Bytes() - before

	// Charge virtual compute time.
	cost := float64(res.Steps) * secPerStep
	start := w.proc.Now()
	w.proc.Sleep(cost)
	now := w.proc.Now()
	w.stats.ComputeTime += now - start
	w.stats.Steps += int64(res.Steps)
	*tally += int64(res.Steps)
	w.proc.Trace().Span(w.end.Index(), obs.SpanCompute, start, now, int64(sl.ID), int64(res.Steps))
	if p.leave(sl, res, epoch) {
		w.stats.EpochCrossings++
	}
}

// segment returns the limits of sl's next segment inside evaluator ev:
// the bounds of sl's block, what is left of the step budget and, when the
// decomposition is time-sliced — unsteady — the end of the block's epoch.
// It fails the run, and reports false, when an unsteady problem is served
// an evaluator without a time-dependent face.
func (w *worker) segment(sl *trace.Streamline, ev grid.Evaluator) (lim integrate.AdvectLimits, epoch int, unsteady, ok bool) {
	p := w.run.prob
	d := p.Provider.Decomp()
	lim = integrate.AdvectLimits{
		Bounds:   d.Bounds(sl.Block),
		MaxSteps: p.maxSteps() - sl.Steps,
		MaxTime:  p.MaxTime,
		Buf:      w.ptsBuf,
	}
	if !d.Unsteady() {
		return lim, 0, false, true
	}
	if _, ok = ev.(grid.EvaluatorT); !ok {
		w.run.fail(fmt.Errorf("core: unsteady decomposition served a time-independent evaluator for block %d", sl.Block))
		sl.Status = trace.Failed
		return lim, 0, true, false
	}
	// Integrate at most to the end of this block's epoch; the data
	// beyond it lives in a different (space-time) block.
	_, horizon := d.EpochBounds(sl.Block)
	if lim.MaxTime == 0 || horizon < lim.MaxTime {
		lim.MaxTime = horizon
	}
	return lim, d.Epoch(sl.Block), true, true
}

// leave moves sl out of the segment that ended as res says — into the
// next block, or to a terminal status — and reports whether that was an
// epoch crossing.
func (p *Problem) leave(sl *trace.Streamline, res integrate.AdvectResult, epoch int) (crossed bool) {
	d := p.Provider.Decomp()
	switch res.Reason {
	case integrate.StopOutOfBlock:
		if nb, ok := d.Locate(sl.P); ok {
			// Same epoch, new spatial block (epoch is 0 when steady).
			sl.Block = d.SpaceTimeID(nb, epoch)
			// Still active; may re-trigger budget checks upstream.
		} else {
			sl.Status = trace.OutOfBounds
			sl.Block = grid.NoBlock
		}
	case integrate.StopMaxSteps:
		sl.Status = trace.MaxedOut
	case integrate.StopMaxTime:
		if d.Unsteady() && epoch+1 < d.Epochs() &&
			(p.MaxTime == 0 || res.T < p.MaxTime-timeEps) {
			// Crossed an epoch boundary: same spatial position, next
			// time slab. This is a block transition like any other —
			// Static communicates it, the cached algorithms miss on it.
			sl.Block = d.SpaceTimeID(d.Spatial(sl.Block), epoch+1)
			return true
		}
		// Reached the end of the data (or the problem's horizon).
		sl.Status = trace.MaxedOut
	case integrate.StopCritical:
		sl.Status = trace.AtCritical
	case integrate.StopError:
		sl.Status = trace.Failed
	}
	return false
}

// record integrates streamline id from its seed to its end, outside
// virtual time, through the segments every run's advance calls will ask
// for — each in the evaluator and bounds of the block it starts in —
// and returns one tape record per segment (tape.go).
func (w *worker) record(id int) []tapeSeg {
	p := w.run.prob
	d := p.Provider.Decomp()
	b, _ := d.Locate(p.Seeds[id]) // validated already
	sl := trace.New(id, p.Seeds[id], b)
	sl.Points = nil
	var segs []tapeSeg
	// The call sites retire a streamline that has used up its step budget
	// without another advance call.
	for sl.Status == trace.Active && sl.Steps < p.maxSteps() {
		ev := p.Provider.Block(sl.Block)
		lim, epoch, unsteady, ok := w.segment(sl, ev)
		if !ok {
			break
		}
		res := w.integrate(sl, ev, unsteady, lim)
		segs = append(segs, tapeSeg{steps: sl.Steps, t: sl.T, h: sl.H, p: sl.P, prev: sl.Prev, reason: res.Reason})
		p.leave(sl, res, epoch)
	}
	w.run.integrated += int64(sl.Steps)
	return segs
}

// integrate runs the solver over one segment — from sl's state to a
// limit of lim — and moves sl's head, geometry and step size to where
// it stopped. Every evaluator takes the one loop through the interface
// (DESIGN.md §12). A time-varying evaluator integrates the
// non-autonomous system only when the problem is unsteady (segment has
// checked that ev is a grid.EvaluatorT then); serving a steady problem
// it answers through its time-frozen Eval like any other.
func (w *worker) integrate(sl *trace.Streamline, ev grid.Evaluator, unsteady bool, lim integrate.AdvectLimits) integrate.AdvectResult {
	solver := w.solver
	solver.H = sl.H
	var res integrate.AdvectResult
	if unsteady {
		res = integrate.AdvectTWith(solver, ev.(grid.EvaluatorT), sl.P, sl.T, lim)
	} else {
		res = integrate.AdvectWith(solver, ev, sl.P, sl.T, lim)
	}
	sl.Append(res.Points)
	// Append copied the geometry into the streamline, so the scratch
	// buffer (possibly regrown inside the integrator) is free to reuse.
	w.ptsBuf = res.Points[:0]
	sl.T = res.T
	sl.Steps += res.Steps
	sl.H = solver.H
	return res
}

// timeEps guards float comparisons against the integration-time horizon:
// AdvectTWith lands on epoch boundaries by clamping the step size, so the
// final time matches the horizon only up to rounding.
const timeEps = 1e-12

// --- wire messages shared by the algorithms ---

// msgStreamlines carries migrating streamlines, geometry included, as
// the paper's implementation does (sending only the solver state is its
// §8 outlook, not modeled).
type msgStreamlines struct{ sls []*trace.Streamline }

// Bytes implements comm.Message.
func (m msgStreamlines) Bytes() int64 {
	var total int64
	for _, sl := range m.sls {
		total += sl.Bytes()
	}
	return total
}

// sendStreamlines transmits sls to endpoint to, releasing their memory
// here.
func (w *worker) sendStreamlines(to int, sls []*trace.Streamline) {
	if len(sls) == 0 {
		return
	}
	w.noteDeactivated(len(sls))
	for _, sl := range sls {
		w.releaseStreamline(sl)
	}
	w.sending = sls
	w.end.Send(to, msgStreamlines{sls: sls})
	w.sending = nil
}

// msgDone reports completed streamlines to a coordinator.
type msgDone struct{ count int }

// Bytes implements comm.Message.
func (msgDone) Bytes() int64 { return 16 }

// msgAllDone broadcasts global termination.
type msgAllDone struct{}

// Bytes implements comm.Message.
func (msgAllDone) Bytes() int64 { return 8 }
