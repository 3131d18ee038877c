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
// freshly built problem straight into core.Run.
func untaped(t *testing.T, k Key, sc Scale) cellBytes {
	t.Helper()
	prob, err := BuildInjectedProblem(k.Dataset, k.Seeding, sc, k.Unsteady, k.Injection)
	if err != nil {
		t.Fatal(err)
	}
	cfg := KeyMachineConfig(k, sc)
	cfg.Trace = obs.NewDigest()
	res, err := core.Run(prob, cfg)
	rep := cfg.Trace.Report()
	return cellOf(t, res, &rep, err)
}

// simulated runs k's cell through the campaign's tape admission, as one
// stretch of work.
func simulated(t *testing.T, c *Campaign, k Key) cellBytes {
	t.Helper()
	c.enter()
	defer c.leave()
	res, rep, err := c.execute(k.normalized())
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
	for _, ds := range Datasets() {
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

// TestTapeByteIdentity holds every cell of the matrix, in every role the
// campaign can give it, to the bytes of an untaped core.Run: (a) the
// problem's first cell, which runs untaped; (b) the recorder; (c) a
// replayer; and (d) recorder and replayer again after the idle campaign
// lost the tape to the garbage collector. The ledger is checked along the
// way, so a "replay" that quietly integrated would fail here too.
func TestTapeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("about two hundred simulations")
	}
	sc := goldenScale()
	failing := 0
	for _, k := range tapeCells(sc) {
		label := k.Label()
		want := untaped(t, k, sc)
		if want.err != "" {
			failing++
		}
		c := NewCampaign(sc)
		c.Observe = true
		check := func(role string, recordings, dropped int64, replays bool) {
			t.Helper()
			before := c.TapeStats()
			if got := simulated(t, c, k); !got.equal(want) {
				t.Errorf("%s %s: differs from the untaped run\n got %+v\nwant %+v", label, role, got, want)
			}
			if want.err != "" {
				return // a failing recorder completes nothing; every later cell records again
			}
			st := c.TapeStats()
			if st.Recordings != recordings || st.DroppedIdle != dropped {
				t.Errorf("%s %s: recordings %d, dropped idle %d; want %d, %d", label, role, st.Recordings, st.DroppedIdle, recordings, dropped)
			}
			if got := st.StepsReplayed > before.StepsReplayed; got != replays {
				t.Errorf("%s %s: replayed steps %d -> %d, want replay = %v", label, role, before.StepsReplayed, st.StepsReplayed, replays)
			}
			if replays && st.StepsIntegrated != before.StepsIntegrated {
				t.Errorf("%s %s: a replaying cell integrated %d steps", label, role, st.StepsIntegrated-before.StepsIntegrated)
			}
		}

		c.enter() // stay busy: the tape is held strongly from (b) to (c)
		check("(a) first cell, untaped", 0, 0, false)
		check("(b) recording", 1, 0, false)
		check("(c) replaying", 1, 0, true)
		c.leave()
		collectIdleTapes(t, c) // idle: the tape is only weakly held, and goes
		c.enter()
		check("(d) recording again", 2, 1, false)
		check("(d) replaying again", 2, 1, true)
		c.leave()
	}
	if failing < 2 {
		t.Errorf("%d cells of the matrix fail by design, want the Figure 13 OOM and static's refusal at least", failing)
	}
}

// TestTapeConcurrentCells is (e): the twelve cells of one problem (four
// algorithms, three processor counts) run from four goroutines, on
// whatever interleaving of untaped, recording, waiting and replaying
// cells the scheduler produces, each byte-identical to its untaped run —
// through execute (which also yields the per-processor columns) and
// through the public RunKeys path. One problem is plain, one contains the
// Figure 13 OOM, whose cells fail as recorders.
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
		var steps int64
		failing := 0
		for _, k := range keys {
			want[k] = untaped(t, k, sc)
			if want[k].err != "" {
				failing++
			}
		}
		for _, k := range keys {
			steps = max(steps, want[k].steps) // every cell that succeeds delivers the same steps
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
		if failing == 0 && st.StepsIntegrated != steps {
			// One recorder integrates the problem once; everyone else
			// waited for it. (A failing recorder integrates a part.)
			t.Errorf("%s/%s: taped cells integrated %d steps, want the problem's %d exactly once", problem.ds, problem.seeding, st.StepsIntegrated, steps)
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

// TestTapeAdmission: a problem asked for once gets no tape, and neither
// does a configuration that hands its streamlines out or sheds their
// geometry, however often it is asked for.
func TestTapeAdmission(t *testing.T) {
	sc := goldenScale()
	c := NewCampaign(sc)
	for _, ds := range Datasets() {
		for _, seeding := range Seedings() {
			c.Run(Key{Dataset: ds, Seeding: seeding, Alg: core.LoadOnDemand, Procs: sc.ProcCounts[0]})
		}
	}
	if st := c.TapeStats(); st != (TapeStats{}) {
		t.Errorf("one cell per problem left a tape ledger: %+v", st)
	}
	for _, e := range c.problems {
		if e.cells != 1 || e.tape != nil || e.idle.Value() != nil {
			t.Errorf("a problem asked for once has cells=%d and a tape", e.cells)
		}
	}

	for _, tune := range []func(*core.Config){
		func(cfg *core.Config) { cfg.CollectTraces = true },
		func(cfg *core.Config) { cfg.NoGeometry = true },
	} {
		c := NewCampaign(sc)
		c.Tune = tune
		for _, alg := range core.Algorithms() {
			c.Run(Key{Dataset: Astro, Seeding: Sparse, Alg: alg, Procs: sc.ProcCounts[0]})
		}
		if st := c.TapeStats(); st != (TapeStats{}) {
			t.Errorf("an untapeable configuration left a tape ledger: %+v", st)
		}
	}
}

// TestTapeIdleLifetime: a tape is strongly held only while work is in
// flight. An idle campaign holds it weakly — work that arrives before
// the next collection finds it, a collection takes it.
func TestTapeIdleLifetime(t *testing.T) {
	sc := goldenScale()
	c := NewCampaign(sc)
	e := c.problem(Astro, Sparse, false, InjectT0)
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

// TestTapeBudget: past the budget the least recently attached unused
// tape of another problem goes; a tape that would pass the budget alone
// is closed, and its cells neither wait nor differ.
func TestTapeBudget(t *testing.T) {
	sc := goldenScale()
	procs := sc.ProcCounts[0]
	cells := func(c *Campaign, ds Dataset, n int) {
		t.Helper()
		for _, alg := range core.Algorithms()[:n] {
			k := Key{Dataset: ds, Seeding: Sparse, Alg: alg, Procs: procs}
			if got, want := simulated(t, c, k), untaped(t, k, sc); !got.equal(want) {
				t.Errorf("%s: differs from the untaped run", k.Label())
			}
		}
	}

	// Size the two tapes on an unbounded campaign.
	c := NewCampaign(sc)
	c.Observe = true
	c.enter()
	cells(c, Astro, 2)
	astro := c.problem(Astro, Sparse, false, InjectT0).tape.Bytes()
	cells(c, Fusion, 2)
	fusion := c.problem(Fusion, Sparse, false, InjectT0).tape.Bytes()
	c.leave()
	if st := c.TapeStats(); st.Evictions != 0 || st.BytesPeak != astro+fusion {
		t.Fatalf("unbounded campaign: %+v, want no evictions and a peak of %d", st, astro+fusion)
	}

	// Room for either, not both: recording fusion evicts astro.
	c = NewCampaign(sc)
	c.Observe = true
	c.tapeLimit = max(astro, fusion) + 1
	c.enter()
	defer c.leave()
	cells(c, Astro, 3)
	cells(c, Fusion, 3)
	if st := c.TapeStats(); st.Evictions != 1 || st.Recordings != 2 || st.BytesPeak > astro+fusion {
		t.Errorf("after two problems on a budget for one: %+v, want one eviction, two recordings", st)
	}
	if c.problem(Astro, Sparse, false, InjectT0).tape != nil || c.problem(Fusion, Sparse, false, InjectT0).tape == nil {
		t.Error("the eviction did not take the older, unused tape")
	}
	cells(c, Astro, 1)
	if st := c.TapeStats(); st.Recordings != 3 || st.Evictions != 2 {
		t.Errorf("an evicted problem's next cell: %+v, want a third recording and fusion evicted", st)
	}

	// Room for neither: the tape closes, keeps a part, and serves it.
	c = NewCampaign(sc)
	c.Observe = true
	c.tapeLimit = astro / 2
	c.enter()
	defer c.leave()
	cells(c, Astro, 4)
	tape := c.problem(Astro, Sparse, false, InjectT0).tape
	st := c.TapeStats()
	if !tape.Closed() || tape.Bytes() > c.tapeLimit || st.BytesPeak > c.tapeLimit {
		t.Errorf("closed=%v bytes=%d peak=%d on a limit of %d", tape.Closed(), tape.Bytes(), st.BytesPeak, c.tapeLimit)
	}
	if st.Recordings != 1 || st.Lines == 0 || st.StepsReplayed == 0 {
		t.Errorf("a closed tape: %+v, want one recording, some lines, some replay", st)
	}
}
