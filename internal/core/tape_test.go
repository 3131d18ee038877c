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
	"repro/internal/vec"
)

// newTape returns an unbounded tape for p with counters of its own.
func newTape(p Problem) *Tape { return NewTape(&p, 1<<40, new(TapeCounters)) }

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

// TestTapeReplayIsInvisible is the tape's contract at the core level:
// for every algorithm, steady and unsteady, all-at-t0 and staggered, a
// run that records and a run that replays are byte-identical to a run
// with no tape — and the replaying run integrates nothing.
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
			if !tape.Complete() || tape.Closed() {
				t.Fatalf("%s: tape complete=%v closed=%v after a full recording", label, tape.Complete(), tape.Closed())
			}
			// The estimate sizes every streamline at its full step budget;
			// spare capacity in a geometry array is less than its length.
			if est, got := tape.Estimate(), tape.Bytes(); est <= 0 || got > 2*est {
				t.Errorf("%s: complete tape holds %d bytes against an estimate of %d", label, got, est)
			}
			c := tape.count
			if got := c.StepsIntegrated.Load(); got != steps {
				t.Errorf("%s: recorder integrated %d steps, the run delivered %d", label, got, steps)
			}
			if got := c.Lines.Load(); got != int64(len(p.Seeds)) {
				t.Errorf("%s: %d lines published, want %d", label, got, len(p.Seeds))
			}

			// Every algorithm replays the tape this one recorded.
			for _, other := range Algorithms() {
				ocfg := testConfig(other, 5)
				before := c.StepsReplayed.Load()
				requireSameRun(t, label+" replayed by "+string(other), runTaped(p, ocfg, tape), runTaped(p, ocfg, nil))
				if got := c.StepsReplayed.Load() - before; got != steps {
					t.Errorf("%s replayed by %s: %d steps from the tape, want %d", label, other, got, steps)
				}
			}
			if got := c.StepsIntegrated.Load(); got != steps {
				t.Errorf("%s: replays integrated %d further steps", label, got-steps)
			}
		}
	}
}

// TestTapePrefetchSeesTrueGeometry: the prefetch predictor extrapolates
// from a streamline's last two points, so a replayed streamline must
// expose its true geometry, not just its head.
func TestTapePrefetchSeesTrueGeometry(t *testing.T) {
	fired := map[prefetch.Policy]bool{}
	for _, p := range []Problem{testProblem(40), testUnsteadyProblem(24)} {
		tape := newTape(p)
		runTaped(p, testConfig(LoadOnDemand, 4), tape)
		for _, alg := range Algorithms() {
			for _, policy := range []prefetch.Policy{prefetch.Neighbor, prefetch.Temporal, prefetch.Both} {
				cfg := withPrefetch(testConfig(alg, 4), policy)
				want := runTaped(p, cfg, nil)
				fired[policy] = fired[policy] || want.res.Summary.PrefetchIssued > 0
				requireSameRun(t, fmt.Sprintf("%s/+pf:%s", alg, policy), runTaped(p, cfg, tape), want)
			}
		}
	}
	if len(fired) != 3 || !fired[prefetch.Neighbor] || !fired[prefetch.Temporal] || !fired[prefetch.Both] {
		t.Errorf("prefetching fired for %v only — the case is vacuous", fired)
	}
}

// TestTapeReplayIsAView: a replayed streamline's Points alias the tape
// (no copy), clipped so that appending to them cannot write into it.
func TestTapeReplayIsAView(t *testing.T) {
	p := testProblem(12)
	cfg := testConfig(LoadOnDemand, 3)
	cfg.CollectTraces = true // test only: a Campaign never tapes such a run
	tape := newTape(p)
	p.Tape = tape
	rec := mustRun(t, p, cfg)
	rep := mustRun(t, p, cfg)
	requireSameGeometry(t, "replayed geometry", rep.Streamlines, rec.Streamlines)
	for i, sl := range rep.Streamlines {
		ln := tape.line(sl.ID)
		if &sl.Points[0] != &ln.pts[0] {
			t.Fatalf("streamline %d: replayed Points are a copy, not a view of the line", sl.ID)
		}
		if cap(sl.Points) != len(sl.Points) {
			t.Fatalf("streamline %d: view has spare capacity %d beyond its %d points", sl.ID, cap(sl.Points), len(sl.Points))
		}
		last := ln.pts[len(ln.pts)-1]
		sl.Append([]vec.V3{{X: 1, Y: 2, Z: 3}})
		if ln.pts[len(ln.pts)-1] != last || len(ln.pts) != len(rec.Streamlines[i].Points) {
			t.Fatalf("streamline %d: appending to a replayed streamline wrote into the tape", sl.ID)
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
		requireSameRun(t, string(alg)+" kill, replaying", runTaped(p, cfg, tape), want)
		if alg == StaticAlloc {
			if tape.Complete() {
				t.Error("static: a refused run completed the tape")
			}
			continue
		}
		if !tape.Complete() {
			t.Errorf("%s: a recovered recording left the tape incomplete", alg)
		}
		// The fault-free cell of the same problem replays the tape the
		// faulted one recorded.
		cfg.Faults = faults.Plan{}
		requireSameRun(t, string(alg)+" fault-free on the kill run's tape", runTaped(p, cfg, tape), base)
	}
}

// TestTapeFailedRecorderLeavesItsLines: a recorder that dies of OOM has
// published the streamlines it finished; the next recorder replays those
// and integrates only the rest, and both stay identical to untaped runs.
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
		t.Fatalf("OOM recorder published %d of %d lines; want some, not all", kept, len(p.Seeds))
	}
	requireSameRun(t, "OOM again on the partial tape", runTaped(p, oomCfg, tape), want)

	first := c.StepsIntegrated.Load()
	requireSameRun(t, "second recorder", runTaped(p, cfg, tape), whole)
	if !tape.Complete() {
		t.Fatal("second recorder did not complete the tape")
	}
	if c.StepsReplayed.Load() == 0 {
		t.Error("second recorder replayed none of the first one's lines")
	}
	if got := c.StepsIntegrated.Load() - first; got >= whole.res.Summary.Steps {
		t.Errorf("second recorder integrated %d steps, no fewer than the whole run's %d", got, whole.res.Summary.Steps)
	}
}

// TestTapeLimitCloses: a tape that would pass its limit stops recording,
// keeps what it has, and runs holding it stay identical.
func TestTapeLimitCloses(t *testing.T) {
	p := testProblem(40)
	cfg := testConfig(HybridMS, 4)
	want := runTaped(p, cfg, nil)

	full := newTape(p)
	runTaped(p, cfg, full)
	small := NewTape(&p, full.Bytes()/2, new(TapeCounters))
	requireSameRun(t, "recording into a small tape", runTaped(p, cfg, small), want)
	if !small.Closed() || small.Complete() {
		t.Fatalf("closed=%v complete=%v, want a closed, incomplete tape", small.Closed(), small.Complete())
	}
	if small.Bytes() > full.Bytes()/2 {
		t.Errorf("tape holds %d bytes, over its limit of %d", small.Bytes(), full.Bytes()/2)
	}
	lines := small.count.Lines.Load()
	if lines == 0 {
		t.Fatal("the small tape kept no lines")
	}
	requireSameRun(t, "replaying a closed tape", runTaped(p, cfg, small), want)
	if got := small.count.Lines.Load(); got != lines {
		t.Errorf("a closed tape recorded %d more lines", got-lines)
	}
	if small.count.StepsReplayed.Load() == 0 {
		t.Error("a closed tape replayed nothing")
	}
}

// TestTapeNoGeometryPublishesNothing: streamlines that shed their
// geometry on every send are not lines.
func TestTapeNoGeometryPublishesNothing(t *testing.T) {
	p := testProblem(40)
	cfg := testConfig(StaticAlloc, 4)
	cfg.NoGeometry = true
	want := runTaped(p, cfg, nil)
	if want.res.Summary.MsgsSent == 0 {
		t.Fatal("static sent nothing — the case is vacuous")
	}
	tape := newTape(p)
	requireSameRun(t, "NoGeometry with a tape", runTaped(p, cfg, tape), want)
	if tape.Complete() {
		t.Error("a NoGeometry run completed the tape")
	}
	requireSameRun(t, "NoGeometry on the partial tape", runTaped(p, cfg, tape), want)
}

// TestTapeSegmentOverrunFailsRun: a line with fewer segments than the
// run asks for is a broken tape, reported, not integrated around.
func TestTapeSegmentOverrunFailsRun(t *testing.T) {
	p := testProblem(8)
	tape := newTape(p)
	cfg := testConfig(LoadOnDemand, 2)
	runTaped(p, cfg, tape)
	ln := tape.line(3)
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
