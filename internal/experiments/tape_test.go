package experiments

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prefetch"
)

// cellBytes is everything a segment tape must leave byte-identical: the
// canonical summary, every per-processor column, the trace-event stream's
// hash, or the error text of a cell that fails by design.
type cellBytes struct {
	summary string
	perProc []metrics.ProcStats
	hash    uint64
	err     string
	steps   int64 // the summary's step count, for checks against the ledger
}

func cellOf(t *testing.T, res *core.Result, rep *obs.Report, err error) cellBytes {
	t.Helper()
	cb := cellBytes{hash: rep.Hash}
	if err != nil {
		cb.err = err.Error()
		return cb
	}
	enc, encErr := res.Summary.CanonicalJSON()
	if encErr != nil {
		t.Error(encErr) // not Fatal: cells also run off the test's goroutine
	}
	cb.summary, cb.perProc, cb.steps = string(enc), res.PerProc, res.Summary.Steps
	return cb
}

func (cb cellBytes) equal(o cellBytes) bool {
	if cb.summary != o.summary || cb.hash != o.hash || cb.err != o.err || len(cb.perProc) != len(o.perProc) {
		return false
	}
	for i := range cb.perProc {
		if cb.perProc[i] != o.perProc[i] {
			return false
		}
	}
	return true
}

// untaped runs k's cell the way the campaign did before it had tapes: a
// freshly built problem straight into core.Run, on the machine a campaign
// with the given Tune (nil for none) would build.
func untaped(t *testing.T, k Key, sc Scale, tune func(*core.Config)) cellBytes {
	t.Helper()
	prob, err := BuildInjectedProblem(k.Dataset, k.Seeding, sc, k.Unsteady, k.Injection)
	if err != nil {
		t.Fatal(err)
	}
	cfg := KeyMachineConfig(k, sc)
	if tune != nil {
		tune(&cfg)
	}
	cfg.Trace = obs.NewDigest()
	res, err := core.Run(prob, cfg)
	rep := cfg.Trace.Report()
	return cellOf(t, res, &rep, err)
}

// simulated runs k's cell on the campaign's tape for its problem, as
// one stretch of work.
func simulated(t *testing.T, c *Campaign, k Key) cellBytes {
	t.Helper()
	c.enter()
	defer c.leave()
	res, rep, err := c.execute(k.normalized(), c.Observe)
	return cellOf(t, res, rep, err)
}

// collectIdleTapes runs the collector until it has taken every tape the
// idle campaign holds weakly. One cycle does it, unless the goroutine of a
// simulated processor — unwound as its run returned — has not yet been
// scheduled to exit and still pins that run's problem.
func collectIdleTapes(t *testing.T, c *Campaign) {
	t.Helper()
	for range 50 {
		runtime.GC()
		held := false
		c.probMu.Lock()
		for _, e := range c.problems {
			held = held || e.idle.Value() != nil
		}
		c.probMu.Unlock()
		if !held {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("an idle campaign's tapes survive collection")
}

// tapeCells is the byte-identity matrix: every (dataset, seeding) under
// all four algorithms — the Figure 13 OOM among them — plus one cell per
// extension axis that touches what a replay fakes: pathline epochs, each
// prefetch policy (the predictor reads a streamline's last two points),
// and, per dynamic algorithm, a staggered release and a kill plan
// (restarted streamlines must replay from segment zero); last, static's
// typed refusal.
func tapeCells(sc Scale) []Key {
	procs := sc.ProcCounts[0]
	var keys []Key
	for _, ds := range datasets() {
		for _, seeding := range Seedings() {
			for _, alg := range core.Algorithms() {
				keys = append(keys, Key{Dataset: ds, Seeding: seeding, Alg: alg, Procs: procs})
			}
		}
	}
	dynamic := []core.Algorithm{core.LoadOnDemand, core.HybridMS, core.WorkStealing}
	keys = append(keys,
		Key{Dataset: Astro, Seeding: Sparse, Alg: core.HybridMS, Procs: procs, Unsteady: true},
		Key{Dataset: Fusion, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: procs, Prefetch: prefetch.Neighbor},
		Key{Dataset: Fusion, Seeding: Sparse, Alg: core.HybridMS, Procs: procs, Unsteady: true, Prefetch: prefetch.Temporal},
		Key{Dataset: Fusion, Seeding: Sparse, Alg: core.StaticAlloc, Procs: procs, Unsteady: true, Prefetch: prefetch.Both},
	)
	for _, alg := range dynamic {
		keys = append(keys,
			Key{Dataset: Astro, Seeding: Dense, Alg: alg, Procs: procs, Injection: InjectStagger},
			Key{Dataset: Fusion, Seeding: Dense, Alg: alg, Procs: procs, Faults: FaultsKill})
	}
	return append(keys, Key{Dataset: Thermal, Seeding: Sparse, Alg: core.StaticAlloc, Procs: procs, Faults: FaultsKill})
}

// lineSteps is what recording k's whole problem integrates: the steps of
// the fault-free cell (a kill plan makes survivors redo some, which a
// tape delivers a second time and integrates once).
func lineSteps(t *testing.T, k Key, sc Scale, tune func(*core.Config)) int64 {
	t.Helper()
	k.Faults = ""
	return untaped(t, k, sc, tune).steps
}

// checkRole runs k's cell on c and holds it to want, the untaped run's
// bytes, and holds the ledger to what the cell must have done: every step
// it delivers comes from the tape, it integrates the records steps of the
// lines nobody had recorded — none, for a cell that finds the tape
// complete, so a "replay" that quietly integrated fails here — and it
// begins a tape exactly when its problem holds none. A cell that fails by
// design is checked for its bytes alone.
func checkRole(t *testing.T, c *Campaign, k Key, want cellBytes, role string, records int64) {
	t.Helper()
	before := c.TapeStats()
	if got := simulated(t, c, k); !got.equal(want) {
		t.Errorf("%s %s: differs from the untaped run\n got %+v\nwant %+v", k.Label(), role, got, want)
	}
	if want.err != "" {
		return
	}
	st := c.TapeStats()
	integrated, replayed, recordings := st.StepsIntegrated-before.StepsIntegrated, st.StepsReplayed-before.StepsReplayed, st.Recordings-before.Recordings
	wantRecordings := int64(0)
	if records > 0 {
		wantRecordings = 1
	}
	if integrated != records || replayed != want.steps || recordings != wantRecordings {
		t.Errorf("%s %s: integrated %d, replayed %d, recordings %d; want %d, %d, %d",
			k.Label(), role, integrated, replayed, recordings, records, want.steps, wantRecordings)
	}
}

// TestTapeByteIdentity holds every cell of the matrix, in every role the
// campaign can give it, to the bytes of an untaped core.Run: (a) the
// problem's first cell, which records; (b) a replayer; and (c) recorder
// and replayer again after the idle campaign lost the tape to the garbage
// collector.
func TestTapeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("about two hundred simulations")
	}
	sc := goldenScale()
	failing := 0
	for _, k := range tapeCells(sc) {
		want := untaped(t, k, sc, nil)
		if want.err != "" {
			failing++
		}
		c := NewCampaign(sc)
		c.Observe = true
		records := lineSteps(t, k, sc, nil)

		c.enter() // stay busy: the tape is held strongly from (a) to (b)
		checkRole(t, c, k, want, "(a) first cell, recording", records)
		checkRole(t, c, k, want, "(b) replaying", 0)
		c.leave()
		collectIdleTapes(t, c) // idle: the tape is only weakly held, and goes
		c.enter()
		checkRole(t, c, k, want, "(c) recording again", records)
		checkRole(t, c, k, want, "(c) replaying again", 0)
		c.leave()
		if st := c.TapeStats(); want.err == "" && st.DroppedIdle != 1 {
			t.Errorf("%s: %d tapes dropped at idle, want 1", k.Label(), st.DroppedIdle)
		}
	}
	if failing < 2 {
		t.Errorf("%d cells of the matrix fail by design, want the Figure 13 OOM and static's refusal at least", failing)
	}
}

// TestTapeNoGeometryCells: cells that shed their streamlines' geometry on
// every send (core.Config.NoGeometry) and cells that carry it share their
// problem's tape, whichever of them recorded it.
func TestTapeNoGeometryCells(t *testing.T) {
	sc := goldenScale()
	static := Key{Dataset: Astro, Seeding: Sparse, Alg: core.StaticAlloc, Procs: sc.ProcCounts[0]}
	hybrid := static
	hybrid.Alg = core.HybridMS
	// Static's cells shed geometry, hybrid's carry it.
	tune := func(cfg *core.Config) { cfg.NoGeometry = cfg.Algorithm == core.StaticAlloc }
	shed, carried := untaped(t, static, sc, tune), untaped(t, hybrid, sc, tune)
	if full := untaped(t, static, sc, nil); shed.equal(full) {
		t.Fatal("NoGeometry left static's cell unchanged — the case is vacuous")
	}
	for _, order := range [][2]Key{{hybrid, static}, {static, hybrid}} {
		c := NewCampaign(sc)
		c.Observe = true
		c.Tune = tune
		c.enter()
		for i, k := range order {
			want := carried
			if k == static {
				want = shed
			}
			checkRole(t, c, k, want, []string{"recording", "replaying the other's tape"}[i], []int64{want.steps, 0}[i])
		}
		c.leave()
	}
}

// TestTapeConcurrentCells is (d): the twelve cells of one problem (four
// algorithms, three processor counts) run from four goroutines, sharing
// the recording of one tape on whatever interleaving the scheduler
// produces, each byte-identical to its untaped run — through execute
// (which also yields the per-processor columns) and through the public
// RunKeys path. One problem is plain, one contains the Figure 13 OOM,
// whose cells fail with the lines they touched recorded.
func TestTapeConcurrentCells(t *testing.T) {
	sc := goldenScale()
	for _, problem := range []struct {
		ds      Dataset
		seeding Seeding
	}{{Astro, Sparse}, {Thermal, Dense}} {
		var keys []Key
		for _, alg := range core.Algorithms() {
			for _, procs := range sc.ProcCounts {
				keys = append(keys, Key{Dataset: problem.ds, Seeding: problem.seeding, Alg: alg, Procs: procs})
			}
		}
		want := make(map[Key]cellBytes, len(keys))
		var steps, delivered int64
		failing := 0
		for _, k := range keys {
			want[k] = untaped(t, k, sc, nil)
			if want[k].err != "" {
				failing++
			}
			steps = max(steps, want[k].steps) // every cell that succeeds delivers the same steps
			delivered += want[k].steps
		}

		c := NewCampaign(sc)
		c.Observe = true
		work := make(chan Key)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range work {
					if got := simulated(t, c, k); !got.equal(want[k]) {
						t.Errorf("%s: concurrent cell differs from the untaped run", k.Label())
					}
				}
			}()
		}
		for _, k := range keys {
			work <- k
		}
		close(work)
		wg.Wait()
		st := c.TapeStats()
		if st.Recordings == 0 || st.StepsReplayed == 0 {
			t.Errorf("%s/%s: ledger %+v: nothing was recorded or nothing replayed", problem.ds, problem.seeding, st)
		}
		if st.StepsIntegrated != steps || st.Recordings != 1 || (failing == 0 && st.StepsReplayed != delivered) {
			// Whoever touches a streamline first records its line, and
			// cells that meet there wait for the one line, so the problem
			// is integrated once between them, the cells that fail
			// included.
			t.Errorf("%s/%s: ledger %+v, want one tape, the problem's %d steps integrated exactly once and %d replayed",
				problem.ds, problem.seeding, st, steps, delivered)
		}

		pub := NewCampaign(sc)
		pub.Observe = true
		pub.Workers = 4
		pub.RunKeys(keys)
		for _, k := range keys {
			out := pub.Run(k)
			got := cellBytes{hash: out.Obs.Hash}
			if out.Err != nil {
				got.err = out.Err.Error()
			} else {
				enc, err := out.Summary.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				got.summary = string(enc)
			}
			if w := want[k]; got.summary != w.summary || got.hash != w.hash || got.err != w.err {
				t.Errorf("%s: RunKeys outcome differs from the untaped run", k.Label())
			}
		}
		if st := pub.TapeStats(); st.StepsReplayed == 0 {
			t.Errorf("%s/%s: RunKeys replayed nothing: %+v", problem.ds, problem.seeding, st)
		}
	}
}

// injections is every release schedule a Key can name.
var injections = []Injection{InjectT0, InjectStagger, InjectBurst, InjectRate}

// TestTapeSharedAcrossInjection: a release schedule gates when a seed
// starts and never where its curve goes, so the cells of a (dataset,
// seeding, steady/unsteady) triple share one tape whatever their
// schedules. Whichever cell comes first records; the others integrate
// nothing and still match their untaped runs byte for byte; four
// schedules arriving at once integrate the problem once between them and
// write only their own copies of it.
func TestTapeSharedAcrossInjection(t *testing.T) {
	sc := goldenScale()
	algs := core.Algorithms()
	for _, base := range []Key{
		{Dataset: Astro, Seeding: Dense, Procs: sc.ProcCounts[0]},
		{Dataset: Astro, Seeding: Sparse, Procs: sc.ProcCounts[0], Unsteady: true},
	} {
		keys := make([]Key, len(injections))
		want := make([]cellBytes, len(injections))
		for i, inj := range injections {
			keys[i] = base
			keys[i].Alg, keys[i].Injection = algs[i], inj
			want[i] = untaped(t, keys[i], sc, nil)
		}
		if want[0].equal(want[1]) {
			t.Fatalf("%s: a staggered release left the cell unchanged — the case is vacuous", keys[1].Label())
		}
		records := lineSteps(t, keys[0], sc, nil)

		for _, order := range [][]int{{0, 1, 2, 3}, {1, 0}} {
			c := NewCampaign(sc)
			c.Observe = true
			c.enter() // stay busy: the tape is held strongly throughout
			for n, i := range order {
				role, steps := "replaying another schedule's tape", int64(0)
				if n == 0 {
					role, steps = "recording", records
				}
				checkRole(t, c, keys[i], want[i], role, steps)
			}
			c.leave()
		}

		c := NewCampaign(sc)
		c.Observe = true
		var wg sync.WaitGroup
		for i := range keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := simulated(t, c, keys[i]); !got.equal(want[i]) {
					t.Errorf("%s: concurrent cell differs from the untaped run", keys[i].Label())
				}
			}()
		}
		wg.Wait()
		if st := c.TapeStats(); st.StepsIntegrated != records || st.Recordings != 1 {
			t.Errorf("%s, four schedules at once: ledger %+v, want one tape and the problem's %d steps integrated exactly once",
				base.Label(), st, records)
		}
		if e := c.problem(base); e.prob.Release != nil {
			t.Errorf("%s: a cell wrote its release schedule into the shared problem", base.Label())
		}
	}
}

// TestTapeLedgerColdShape runs the shape of bench's serve_cold — every
// dataset, seeding, steady and unsteady, under each of the four release
// schedules, one cell each, with algorithm, prefetch policy and kill plan
// rotated across them — and holds the ledger to twelve tapes and twelve
// integrations, priced from untaped runs.
func TestTapeLedgerColdShape(t *testing.T) {
	sc := goldenScale()
	top := sc.ProcCounts[len(sc.ProcCounts)-1]
	algs := core.Algorithms()
	policies := []prefetch.Policy{"", prefetch.Neighbor, prefetch.Temporal, prefetch.Both}
	var keys []Key
	var steps int64
	for _, ds := range datasets() {
		for _, seeding := range Seedings() {
			for _, unsteady := range []bool{false, true} {
				id := Key{Dataset: ds, Seeding: seeding, Alg: core.LoadOnDemand, Procs: top, Unsteady: unsteady}
				steps += lineSteps(t, id, sc, nil)
				for _, inj := range injections {
					i := len(keys)
					k := id
					k.Alg, k.Prefetch, k.Injection = algs[(i+i/4)%4], policies[(i/4+i/16)%4], inj
					if i%3 == 2 && k.Alg != core.StaticAlloc {
						k.Faults = FaultsKill
					}
					keys = append(keys, k)
				}
			}
		}
	}
	c := NewCampaign(sc)
	c.Workers = 2
	c.RunKeys(keys) // one stretch of work: no tape is dropped on the way
	// What the cells that succeed deliver; the Figure 13 OOM delivers some too.
	var delivered int64
	for _, k := range keys {
		delivered += c.Run(k).Summary.Steps
	}
	st := c.TapeStats()
	if st.Recordings != 12 || st.StepsIntegrated != steps || st.StepsReplayed < delivered {
		t.Errorf("%d cells: ledger %+v, want 12 tapes, %d steps integrated and at least %d replayed",
			len(keys), st, steps, delivered)
	}
}

// TestTapeAdmission: every cell runs on its problem's tape — the first
// records the lines and replays them, every later one replays them —
// whatever the configuration: cells that shed geometry replay like any
// other, and cells that hand their curves out hold the tape too but
// integrate, since it has no curve to hand out, and record nothing.
func TestTapeAdmission(t *testing.T) {
	sc := goldenScale()
	procs := sc.ProcCounts[0]
	c := NewCampaign(sc)
	var steps int64
	for _, ds := range datasets() {
		for _, seeding := range Seedings() {
			steps += c.Run(Key{Dataset: ds, Seeding: seeding, Alg: core.LoadOnDemand, Procs: procs}).Summary.Steps
		}
	}
	first := c.TapeStats()
	if first.Recordings != 6 || first.Lines == 0 || first.BytesPeak == 0 || first.StepsIntegrated != steps || first.StepsReplayed != steps {
		t.Errorf("one cell per problem: %+v, want six tapes, %d steps integrated and as many replayed", first, steps)
	}
	for _, ds := range datasets() {
		for _, seeding := range Seedings() {
			c.Run(Key{Dataset: ds, Seeding: seeding, Alg: core.WorkStealing, Procs: procs})
		}
	}
	want := first
	want.StepsReplayed = 2 * steps
	if st := c.TapeStats(); st != want {
		t.Errorf("a second cell per problem: %+v, want %+v", st, want)
	}

	for name, tune := range map[string]func(*core.Config){
		"CollectTraces": func(cfg *core.Config) { cfg.CollectTraces = true },
		"NoGeometry":    func(cfg *core.Config) { cfg.NoGeometry = true },
	} {
		c := NewCampaign(sc)
		c.Tune = tune
		var delivered int64
		for _, alg := range core.Algorithms() {
			delivered += c.Run(Key{Dataset: Astro, Seeding: Sparse, Alg: alg, Procs: procs}).Summary.Steps
		}
		st := c.TapeStats()
		wantIntegrated, wantReplayed, wantLines := delivered/4, delivered, true
		if name == "CollectTraces" {
			wantIntegrated, wantReplayed, wantLines = delivered, 0, false
		}
		if st.Recordings != 1 || st.StepsReplayed != wantReplayed || st.StepsIntegrated != wantIntegrated || (st.Lines > 0) != wantLines {
			t.Errorf("%s: %+v, want one tape, %d steps integrated, %d replayed", name, st, wantIntegrated, wantReplayed)
		}
	}
}

// TestTapeIdleLifetime: a tape is strongly held only while work is in
// flight. An idle campaign holds it weakly — work that arrives before
// the next collection finds it, a collection takes it.
func TestTapeIdleLifetime(t *testing.T) {
	sc := goldenScale()
	c := NewCampaign(sc)
	e := c.problem(Key{Dataset: Astro, Seeding: Sparse})
	for _, alg := range []core.Algorithm{core.StaticAlloc, core.LoadOnDemand} {
		c.Run(Key{Dataset: Astro, Seeding: Sparse, Alg: alg, Procs: sc.ProcCounts[0]})
	}
	if e.tape != nil {
		t.Fatal("an idle campaign holds its tape strongly")
	}
	held := e.idle.Value()
	if held == nil || !held.Complete() {
		t.Fatal("the recorded tape did not survive to idle")
	}

	c.enter()
	if e.tape != held {
		t.Error("work arriving before a collection did not find the tape")
	}
	c.leave()
	runtime.KeepAlive(held)
	held = nil

	collectIdleTapes(t, c)
	if st := c.TapeStats(); st.DroppedIdle != 1 || st.Recordings != 1 {
		t.Errorf("after a collection at idle: %+v, want one tape dropped, one recording", st)
	}
	c.Run(Key{Dataset: Astro, Seeding: Sparse, Alg: core.HybridMS, Procs: sc.ProcCounts[0]})
	if st := c.TapeStats(); st.Recordings != 2 {
		t.Errorf("the cell after the drop did not record again: %+v", st)
	}
}
