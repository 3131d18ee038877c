package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/seeds"
	"repro/internal/store"
)

// newTape returns a tape for p with counters of its own.
func newTape(p Problem) *Tape { return NewTape(&p, new(TapeCounters)) }

// tapedRun is Run with tape attached and a full recorder, returning
// everything a tape must not be able to change.
type tapedRun struct {
	res  *Result
	hash uint64
	err  error
}

func runTaped(p Problem, cfg Config, tape *Tape) tapedRun {
	p.Tape = tape
	cfg.Trace = obs.New()
	res, err := Run(p, cfg)
	return tapedRun{res: res, hash: cfg.Trace.Hash(), err: err}
}

// mustReplay brackets run, a run on a tape that holds every line the run
// needs: the tape delivers every step of the run and the run integrates
// none, so the leg cannot have fallen back to integration unnoticed. A
// run that fails by design (res == nil) delivers no summary to check
// against.
func mustReplay(t *testing.T, label string, tape *Tape, run func() *Result) {
	t.Helper()
	integrated, replayed := tape.count.StepsIntegrated.Load(), tape.count.StepsReplayed.Load()
	res := run()
	if res == nil {
		return
	}
	if d := tape.count.StepsIntegrated.Load() - integrated; d != 0 {
		t.Errorf("%s: a replaying run integrated %d steps", label, d)
	}
	if d := tape.count.StepsReplayed.Load() - replayed; d != res.Summary.Steps {
		t.Errorf("%s: %d steps from the tape, the run delivered %d", label, d, res.Summary.Steps)
	}
}

// runReplaying is runTaped for a leg that must replay.
func runReplaying(t *testing.T, label string, p Problem, cfg Config, tape *Tape) (got tapedRun) {
	t.Helper()
	if cfg.CollectTraces {
		t.Fatalf("%s: a run that keeps its curves integrates them", label)
	}
	mustReplay(t, label, tape, func() *Result {
		got = runTaped(p, cfg, tape)
		return got.res
	})
	return got
}

// requireSameRun asserts got is indistinguishable from want: summary,
// every per-processor column and the whole trace-event stream.
func requireSameRun(t *testing.T, label string, got, want tapedRun) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) || (got.err != nil && got.err.Error() != want.err.Error()) {
		t.Fatalf("%s: err = %v, want %v", label, got.err, want.err)
	}
	if got.hash != want.hash {
		t.Errorf("%s: trace-event hash %x, want %x", label, got.hash, want.hash)
	}
	if got.err != nil {
		return
	}
	if !reflect.DeepEqual(got.res.Summary, want.res.Summary) {
		t.Errorf("%s: summary differs:\n got %+v\nwant %+v", label, got.res.Summary, want.res.Summary)
	}
	for i := range want.res.PerProc {
		if got.res.PerProc[i] != want.res.PerProc[i] {
			t.Errorf("%s: proc %d stats differ:\n got %+v\nwant %+v", label, i, got.res.PerProc[i], want.res.PerProc[i])
		}
	}
}

// TestBareMatchesCollected is the proof that the count model is the
// geometry model: a run whose streamlines keep no curve (the default) and
// one whose streamlines keep theirs (CollectTraces) are the same run —
// canonical summary, every per-processor column, the whole trace-event
// stream — for every algorithm under every feature that reads geometry:
// memory accounting and wire sizes (plain), the prefetch predictor's
// two-point tail, NoGeometry's truncation, pathline epochs, staggered
// release and restarts from seed. And a kept curve has the counted length.
func TestBareMatchesCollected(t *testing.T) {
	plain := testProblem(40)
	for _, alg := range Algorithms() {
		noGeom := testConfig(alg, 4)
		noGeom.NoGeometry = true
		kill := faultConfig(alg, 5)
		kill.Faults = faults.KillAt(0.3*mustRun(t, plain, kill).Summary.WallClock, 0)
		for _, c := range []struct {
			name string
			p    Problem
			cfg  Config
		}{
			{"plain", plain, testConfig(alg, 4)},
			{"prefetch both", testUnsteadyProblem(24), withPrefetch(testConfig(alg, 4), prefetch.Both)},
			{"NoGeometry", plain, noGeom},
			{"unsteady", testUnsteadyProblem(24), testConfig(alg, 4)},
			{"staggered", injectedProblem(40, seeds.UniformStagger(0, 0.3)), testConfig(alg, 4)},
			{"kill", testProblem(60), kill},
		} {
			label := fmt.Sprintf("%s/%s", alg, c.name)
			bare := runTaped(c.p, c.cfg, nil)
			c.cfg.CollectTraces = true
			kept := runTaped(c.p, c.cfg, nil)
			requireSameRun(t, label+" bare against collected", bare, kept)
			if kept.err != nil {
				var ue *faults.UnrecoverableError
				if alg != StaticAlloc || !errors.As(kept.err, &ue) {
					t.Errorf("%s: %v", label, kept.err)
				}
				continue
			}
			if len(bare.res.Streamlines) != 0 {
				t.Errorf("%s: a run without CollectTraces handed out %d streamlines", label, len(bare.res.Streamlines))
			}
			a, errA := bare.res.Summary.CanonicalJSON()
			b, errB := kept.res.Summary.CanonicalJSON()
			if errA != nil || errB != nil || string(a) != string(b) {
				t.Errorf("%s: canonical summaries differ (%v, %v):\n%s\n%s", label, errA, errB, a, b)
			}
			for _, sl := range kept.res.Streamlines {
				if sl.Verts != len(sl.Points) {
					t.Fatalf("%s: streamline %d counts %d vertices, holds %d", label, sl.ID, sl.Verts, len(sl.Points))
				}
			}
		}
	}
}

// TestTapeReplayIsInvisible is the tape's contract at the core level:
// for every algorithm, steady and unsteady, all-at-t0 and staggered, a
// run that records the tape's lines and a run that finds them recorded
// are byte-identical to a run with no tape — and the second integrates
// nothing.
func TestTapeReplayIsInvisible(t *testing.T) {
	problems := map[string]Problem{
		"steady":    testProblem(40),
		"staggered": injectedProblem(40, seeds.UniformStagger(0, 0.3)),
		"unsteady":  testUnsteadyProblem(24),
	}
	for name, p := range problems {
		for _, alg := range Algorithms() {
			label := fmt.Sprintf("%s/%s", name, alg)
			cfg := testConfig(alg, 4)
			want := runTaped(p, cfg, nil)
			if want.err != nil {
				t.Fatalf("%s: %v", label, want.err)
			}
			steps := want.res.Summary.Steps

			tape := newTape(p)
			requireSameRun(t, label+" recording", runTaped(p, cfg, tape), want)
			if !tape.Complete() {
				t.Fatalf("%s: tape incomplete after a full recording", label)
			}
			c := tape.count
			if in, out := c.StepsIntegrated.Load(), c.StepsReplayed.Load(); in != steps || out != steps {
				t.Errorf("%s: recorder integrated %d steps and replayed %d, the run delivered %d", label, in, out, steps)
			}
			if got := c.Lines.Load(); got != int64(len(p.Seeds)) {
				t.Errorf("%s: %d lines recorded, want %d", label, got, len(p.Seeds))
			}

			// Every algorithm replays the tape this one recorded.
			for _, other := range Algorithms() {
				ocfg := testConfig(other, 5)
				olabel := label + " replayed by " + string(other)
				requireSameRun(t, olabel, runReplaying(t, olabel, p, ocfg, tape), runTaped(p, ocfg, nil))
			}
		}
	}
}

// TestTapePrefetchSeesTrueGeometry: the prefetch predictor extrapolates
// from a streamline's last two points, so a replayed streamline must
// carry its true tail, not just its head.
func TestTapePrefetchSeesTrueGeometry(t *testing.T) {
	fired := map[prefetch.Policy]bool{}
	for _, p := range []Problem{testProblem(40), testUnsteadyProblem(24)} {
		tape := newTape(p)
		runTaped(p, testConfig(LoadOnDemand, 4), tape)
		for _, alg := range Algorithms() {
			for _, policy := range []prefetch.Policy{prefetch.Neighbor, prefetch.Temporal, prefetch.Both} {
				cfg := withPrefetch(testConfig(alg, 4), policy)
				label := fmt.Sprintf("%s/+pf:%s", alg, policy)
				want := runTaped(p, cfg, nil)
				fired[policy] = fired[policy] || want.res.Summary.PrefetchIssued > 0
				requireSameRun(t, label, runReplaying(t, label, p, cfg, tape), want)
			}
		}
	}
	if len(fired) != 3 || !fired[prefetch.Neighbor] || !fired[prefetch.Temporal] || !fired[prefetch.Both] {
		t.Errorf("prefetching fired for %v only — the case is vacuous", fired)
	}
}

// TestTapeCurveKeepersIntegrate: a run that hands its curves out cannot
// take them from a tape that holds none, and records none either: on an
// empty tape or a complete one it integrates every streamline, leaves the
// tape as it found it, and returns the geometry of an untaped run.
func TestTapeCurveKeepersIntegrate(t *testing.T) {
	p := testProblem(12)
	bare := testConfig(LoadOnDemand, 3)
	cfg := bare
	cfg.CollectTraces = true
	want := runTaped(p, cfg, nil)
	steps := want.res.Summary.Steps

	tape := newTape(p)
	c := tape.count
	for _, state := range []string{"an empty tape", "a complete tape"} {
		lines, bytes, integrated, replayed := c.Lines.Load(), tape.Bytes(), c.StepsIntegrated.Load(), c.StepsReplayed.Load()
		got := runTaped(p, cfg, tape)
		requireSameRun(t, "curve-keeping run on "+state, got, want)
		requireSameGeometry(t, "curve-keeping run on "+state, got.res.Streamlines, want.res.Streamlines)
		if c.Lines.Load() != lines || tape.Bytes() != bytes || c.StepsIntegrated.Load()-integrated != steps || c.StepsReplayed.Load() != replayed {
			t.Errorf("curve-keeping run on %s: lines %d -> %d, bytes %d -> %d, integrated %d (want %d), replayed %d",
				state, lines, c.Lines.Load(), bytes, tape.Bytes(), c.StepsIntegrated.Load()-integrated, steps, c.StepsReplayed.Load()-replayed)
		}
		// A bare run in between records the tape.
		requireSameRun(t, "bare run after a curve-keeper", runTaped(p, bare, tape), want)
		if !tape.Complete() {
			t.Fatal("a bare run left the tape incomplete")
		}
	}
}

// TestTapeFaultRestartReplaysFromSegmentZero: survivors restart a
// victim's streamlines from their seeds. Recorded under a kill plan or
// replayed under one, the run stays identical to the untaped kill run;
// static's refusal stays the same typed error.
func TestTapeFaultRestartReplaysFromSegmentZero(t *testing.T) {
	p := testProblem(60)
	for _, alg := range Algorithms() {
		cfg := faultConfig(alg, 5)
		base := runTaped(p, cfg, nil)
		cfg.Faults = faults.KillAt(0.3*base.res.Summary.WallClock, 0)
		want := runTaped(p, cfg, nil)
		if alg == StaticAlloc {
			var ue *faults.UnrecoverableError
			if !errors.As(want.err, &ue) {
				t.Fatalf("static under a kill plan: %v", want.err)
			}
		} else if want.res.Summary.SeedsAdopted == 0 {
			t.Fatalf("%s: the kill orphaned nothing — the case is vacuous", alg)
		}

		tape := newTape(p)
		requireSameRun(t, string(alg)+" kill, recording", runTaped(p, cfg, tape), want)
		if alg == StaticAlloc {
			requireSameRun(t, "static kill, on the partial tape", runTaped(p, cfg, tape), want)
			if tape.Complete() {
				t.Error("static: a refused run completed the tape")
			}
			continue
		}
		if !tape.Complete() {
			t.Errorf("%s: a recovered recording left the tape incomplete", alg)
		}
		label := string(alg) + " kill, replaying"
		requireSameRun(t, label, runReplaying(t, label, p, cfg, tape), want)
		// The fault-free cell of the same problem replays the tape the
		// faulted one recorded.
		cfg.Faults = faults.Plan{}
		label = string(alg) + " fault-free on the kill run's tape"
		requireSameRun(t, label, runReplaying(t, label, p, cfg, tape), base)
	}
}

// TestTapeFailedRecorderLeavesItsLines: a run that dies of OOM has
// recorded the streamlines it touched; the next run replays those and
// integrates only the rest, and both stay identical to untaped runs.
func TestTapeFailedRecorderLeavesItsLines(t *testing.T) {
	p := testProblem(60)
	cfg := testConfig(StaticAlloc, 4)
	whole := runTaped(p, cfg, nil)
	oomCfg := cfg
	oomCfg.MemoryBudget = whole.res.Summary.PeakMemoryBytes / 2
	want := runTaped(p, oomCfg, nil)
	var oom *store.OOMError
	if !errors.As(want.err, &oom) {
		t.Fatalf("half the peak memory did not OOM: %v", want.err)
	}

	tape := newTape(p)
	requireSameRun(t, "OOM recorder", runTaped(p, oomCfg, tape), want)
	c := tape.count
	kept := c.Lines.Load()
	if kept == 0 || tape.Complete() {
		t.Fatalf("OOM recorder left %d of %d lines; want some, not all", kept, len(p.Seeds))
	}
	requireSameRun(t, "OOM again on the partial tape", runTaped(p, oomCfg, tape), want)

	first := c.StepsIntegrated.Load()
	requireSameRun(t, "second recorder", runTaped(p, cfg, tape), whole)
	if !tape.Complete() {
		t.Fatal("second recorder did not complete the tape")
	}
	if got, steps := c.StepsIntegrated.Load(), whole.res.Summary.Steps; first == 0 || got != steps {
		t.Errorf("the two recorders integrated %d and %d steps; want some, and together the whole run's %d", first, got-first, steps)
	}
}

// TestTapeNoGeometryBothWays: a run whose streamlines shed their
// vertices on every send and one whose streamlines keep them integrate
// the same segments, so either records the tape the other replays — a
// record advances the vertex count by its steps, it does not set it.
func TestTapeNoGeometryBothWays(t *testing.T) {
	p := testProblem(40)
	full := testConfig(StaticAlloc, 4)
	shed := full
	shed.NoGeometry = true
	wantFull, wantShed := runTaped(p, full, nil), runTaped(p, shed, nil)
	if wantShed.res.Summary.MsgsSent == 0 || wantShed.res.Summary.BytesSent >= wantFull.res.Summary.BytesSent {
		t.Fatal("NoGeometry sent nothing, or no less than a geometry run — the case is vacuous")
	}
	for _, c := range []struct {
		how        string
		rec, rep   Config
		wrec, wrep tapedRun
	}{
		{"NoGeometry replaying a geometry run's tape", full, shed, wantFull, wantShed},
		{"a geometry run replaying NoGeometry's tape", shed, full, wantShed, wantFull},
	} {
		tape := newTape(p)
		requireSameRun(t, c.how+" (recording)", runTaped(p, c.rec, tape), c.wrec)
		if !tape.Complete() {
			t.Fatalf("%s: the recorder left the tape incomplete", c.how)
		}
		requireSameRun(t, c.how, runReplaying(t, c.how, p, c.rep, tape), c.wrep)
	}
}

// TestTapeSegmentOverrunFailsRun: a line with fewer segments than the
// run asks for is a broken tape, reported, not integrated around.
func TestTapeSegmentOverrunFailsRun(t *testing.T) {
	p := testProblem(8)
	tape := newTape(p)
	cfg := testConfig(LoadOnDemand, 2)
	runTaped(p, cfg, tape)
	ln := &tape.lines[3]
	if len(ln.segs) < 2 {
		t.Skip("streamline 3 has a single segment")
	}
	ln.segs = ln.segs[:1]
	if got := runTaped(p, cfg, tape); got.err == nil {
		t.Fatal("a truncated line replayed without error")
	}
}

// BenchmarkTapeReplay prices a replaying run against an integrating one.
func BenchmarkTapeReplay(b *testing.B) {
	p := testProblem(200)
	cfg := testConfig(HybridMS, 8)
	tape := newTape(p)
	p.Tape = tape
	if _, err := Run(p, cfg); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		tape *Tape
	}{{"integrate", nil}, {"replay", tape}} {
		b.Run(mode.name, func(b *testing.B) {
			p.Tape = mode.tape
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Run(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
