package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/seeds"
	"repro/internal/trace"
)

// injectedProblem returns testProblem with one seed per release time,
// released at those times.
func injectedProblem(release []float64) Problem {
	p := testProblem(len(release))
	p.Release = release
	return p
}

// TestInjectionAlgorithmEquivalence pins the central injection
// invariant: a staggered release reshapes when work happens, never the
// geometry of any particle's path. Every algorithm, at several processor
// counts and under several schedules, must produce curves bit-identical
// to the all-at-t0 reference run.
func TestInjectionAlgorithmEquivalence(t *testing.T) {
	base := testProblem(40)
	cfgRef := testConfig(StaticAlloc, 2)
	cfgRef.CollectTraces = true
	ref := mustRun(t, base, cfgRef)
	refDigest := trace.CanonicalDigest(ref.Streamlines)

	schedules := []struct {
		name    string
		release []float64
	}{
		{"stagger", seeds.Stagger(40, 0, 0.3)},
		{"burst5", seeds.Bursts(40, 0, 0.3, 5)},
		{"rate", seeds.Rate(40, 0, 0.3, 500)},
	}
	for _, sched := range schedules {
		p := injectedProblem(sched.release)
		for _, alg := range Algorithms() {
			for _, procs := range []int{2, 5} {
				cfg := testConfig(alg, procs)
				cfg.CollectTraces = true
				res := mustRun(t, p, cfg)
				if got := trace.CanonicalDigest(res.Streamlines); got != refDigest {
					t.Errorf("%s/%s/%d: geometry digest %s differs from t0 reference %s",
						sched.name, alg, procs, got[:16], refDigest[:16])
				}
			}
		}
	}
}

// TestInjectionAllSeedsComplete checks conservation and the injection
// counters across every algorithm: all seeds complete, stalls are
// recorded when a schedule actually starves processors, and the active
// peak never exceeds the seed count.
func TestInjectionAllSeedsComplete(t *testing.T) {
	p := injectedProblem(seeds.Bursts(40, 0, 0.5, 4))
	for _, alg := range Algorithms() {
		res := mustRun(t, p, testConfig(alg, 4))
		s := res.Summary
		if s.StreamlinesCompleted != 40 {
			t.Errorf("%s: completed %d of 40", alg, s.StreamlinesCompleted)
		}
		if s.ActivePeak <= 0 || s.ActivePeak > 40 {
			t.Errorf("%s: ActivePeak = %d, want in (0, 40]", alg, s.ActivePeak)
		}
		if s.ReleaseStalls <= 0 || s.ReleaseStallTime <= 0 {
			t.Errorf("%s: stalls=%d stallTime=%g, want both positive under a 0.5s window",
				alg, s.ReleaseStalls, s.ReleaseStallTime)
		}
		if s.WallClock < 0.375 {
			t.Errorf("%s: wall %g ended before the last burst wave at 0.375", alg, s.WallClock)
		}
	}
}

// TestInjectionShrinksActivePeak checks the defining load-shape effect:
// spreading releases over a window bounds the simultaneous working
// population far below the all-at-t0 peak.
func TestInjectionShrinksActivePeak(t *testing.T) {
	t0 := mustRun(t, testProblem(40), testConfig(LoadOnDemand, 1))
	if got := t0.Summary.ActivePeak; got != 40 {
		t.Fatalf("t0 ActivePeak = %d, want 40 (every seed adopted at once)", got)
	}
	if t0.Summary.ReleaseStalls != 0 || t0.Summary.ReleaseStallTime != 0 {
		t.Fatalf("t0 run recorded release stalls: %d/%g", t0.Summary.ReleaseStalls, t0.Summary.ReleaseStallTime)
	}
	// A window several times the t0 wall clock forces long starvation
	// gaps between releases, so only a few particles are ever in flight.
	window := 5 * t0.Summary.WallClock
	spread := mustRun(t, injectedProblem(seeds.Stagger(40, 0, window)), testConfig(LoadOnDemand, 1))
	if got := spread.Summary.ActivePeak; got >= 40/2 {
		t.Errorf("staggered ActivePeak = %d, want well below 40", got)
	}
	if spread.Summary.ReleaseStalls == 0 {
		t.Error("staggered run recorded no release stalls")
	}
	if spread.Summary.WallClock < window {
		t.Errorf("wall %g ended before the last release at %g", spread.Summary.WallClock, window)
	}
}

// TestInjectionValidation rejects malformed release vectors.
func TestInjectionValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Problem)
		wantErr string
	}{
		{"short vector", func(p *Problem) { p.Release = []float64{0} }, "release times"},
		{"negative", func(p *Problem) { p.Release[3] = -1 }, "invalid release"},
		{"NaN", func(p *Problem) { p.Release[0] = math.NaN() }, "invalid release"},
		{"Inf", func(p *Problem) { p.Release[7] = math.Inf(1) }, "invalid release"},
	}
	for _, tc := range cases {
		p := injectedProblem(seeds.Stagger(10, 0, 1))
		tc.mutate(&p)
		_, err := Run(p, testConfig(LoadOnDemand, 2))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestHybridMastersShareAcrossInjectionSkew drives the master-to-master
// seed-sharing path with a release skew: the seeds of the second
// master's half of the block range release late, so its slaves starve,
// it requests spares from its peer, and the peer — holding a surplus of
// released seeds — shares a batch. The run must complete every seed
// with both groups doing real work.
func TestHybridMastersShareAcrossInjectionSkew(t *testing.T) {
	p := testProblem(60)
	// Release each seed late only in the upper half of the block range
	// (the second master's pool in the contiguous split): its group has
	// nothing to do at t0 except what sharing brings over.
	d := p.Provider.Decomp()
	p.Release = make([]float64, len(p.Seeds))
	late := 0
	for i, s := range p.Seeds {
		b, _ := d.Locate(s)
		if int(b) >= d.NumBlocks()/2 {
			p.Release[i] = 0.4
			late++
		}
	}
	if late == 0 || late == len(p.Seeds) {
		t.Fatalf("degenerate skew: %d of %d seeds late", late, len(p.Seeds))
	}

	cfg := testConfig(HybridMS, 6)
	cfg.Hybrid = HybridParams{N: 4, NO: 80, NL: 8, W: 2} // 2 masters, 4 slaves
	res := mustRun(t, p, cfg)
	if got := res.Summary.StreamlinesCompleted; got != 60 {
		t.Fatalf("completed %d of 60", got)
	}
	if res.Summary.ReleaseStalls == 0 {
		t.Error("skewed release recorded no master release stalls")
	}
	for _, ps := range res.PerProc[2:] { // endpoints 2..5 are the slaves
		if ps.Steps == 0 {
			t.Errorf("slave proc %d did no integration work", ps.Proc)
		}
	}
}

// TestPoolParkActivationOrdering pins the pool's park/release mechanics:
// future seeds are invisible to the pool until their time, activation
// follows deterministic (Release, ID) order under release-time ties, and
// the parked population never counts toward the active peak.
func TestPoolParkActivationOrdering(t *testing.T) {
	p := testProblem(4)
	cfg := testConfig(LoadOnDemand, 1)
	withWorker(t, p, cfg, func(r *runState, w *worker) {
		d := p.Provider.Decomp()
		pl := newPool(r, w)
		// Adopt out of release order, with a tie at 0.2 between IDs 3
		// and 1 and one immediately-released seed.
		mk := func(id int, release float64) *trace.Streamline {
			return trace.NewAt(id, d.Bounds(9).Center(), 9, release)
		}
		pl.adopt(mk(3, 0.2))
		pl.adopt(mk(0, 0.5))
		pl.adopt(mk(1, 0.2))
		pl.adopt(mk(2, 0))
		if pl.active != 4 {
			t.Fatalf("active = %d, want 4 (parked seeds are owned)", pl.active)
		}
		if got := len(pl.pending.get(9)); got != 1 {
			t.Fatalf("released-now count = %d, want 1 (only ID 2)", got)
		}
		if w.stats.ActivePeak != 1 {
			t.Fatalf("ActivePeak = %d, want 1 before any release", w.stats.ActivePeak)
		}
		if next, ok := pl.parked.next(); !ok || next != 0.2 {
			t.Fatalf("nextRelease = %v/%v, want 0.2", next, ok)
		}

		// releaseReady before the deadline must move nothing.
		pl.releaseReady()
		if got := len(pl.pending.get(9)); got != 1 {
			t.Fatalf("early releaseReady moved seeds: pending=%d", got)
		}

		// Advance past the tie: both 0.2-releases activate, ID order.
		w.proc.Sleep(0.3)
		pl.releaseReady()
		q := pl.pending.get(9)
		if len(q) != 3 {
			t.Fatalf("after t=0.3: pending = %d, want 3", len(q))
		}
		if q[1].ID != 1 || q[2].ID != 3 {
			t.Errorf("tie releases out of ID order: got %d then %d, want 1 then 3", q[1].ID, q[2].ID)
		}
		if w.stats.ActivePeak != 3 {
			t.Errorf("ActivePeak = %d, want 3 (ID 0 still parked)", w.stats.ActivePeak)
		}
		if next, ok := pl.parked.next(); !ok || next != 0.5 {
			t.Fatalf("nextRelease after tie = %v/%v, want 0.5", next, ok)
		}

		// The stall helper must advance the clock to the release and
		// count exactly one starvation stall.
		if _, got := w.stallForRelease(0.5); got {
			t.Error("stallForRelease returned a message on a silent fabric")
		}
		if now := w.proc.Now(); now < 0.5 {
			t.Errorf("clock %g did not reach the release deadline", now)
		}
		if w.stats.ReleaseStalls != 1 || w.stats.ReleaseStallTime <= 0 {
			t.Errorf("stall counters = %d/%g, want 1 stall with positive time",
				w.stats.ReleaseStalls, w.stats.ReleaseStallTime)
		}
		pl.releaseReady()
		if len(pl.parked.items) != 0 || len(pl.pending.get(9)) != 4 {
			t.Errorf("final state: parked=%d pending=%d, want 0/4", len(pl.parked.items), len(pl.pending.get(9)))
		}
		if w.stats.ActivePeak != 4 {
			t.Errorf("final ActivePeak = %d, want 4", w.stats.ActivePeak)
		}
	})
}
