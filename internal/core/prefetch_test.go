package core

import (
	"fmt"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/trace"
)

// withPrefetch returns cfg with the given prefetch policy at depth 2 and
// a shared disk, so the async path exercises I/O-server queueing too.
func withPrefetch(cfg Config, policy prefetch.Policy) Config {
	cfg.DiskServers = 4
	cfg.Prefetch = prefetch.Config{Policy: policy, Depth: 2}
	return cfg
}

// samePoints fails the test unless both runs produced bit-identical
// geometry.
func samePoints(t *testing.T, label string, got, want []*trace.Streamline) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d streamlines vs %d", label, len(got), len(want))
	}
	for i, sl := range got {
		ref := want[i]
		if sl.ID != ref.ID || sl.Status != ref.Status || len(sl.Points) != len(ref.Points) {
			t.Fatalf("%s: streamline %d diverged (id %d/%d, status %v/%v, %d/%d points)",
				label, i, sl.ID, ref.ID, sl.Status, ref.Status, len(sl.Points), len(ref.Points))
		}
		for j := range sl.Points {
			if sl.Points[j] != ref.Points[j] {
				t.Fatalf("%s: streamline %d point %d differs: %v vs %v",
					label, sl.ID, j, sl.Points[j], ref.Points[j])
			}
		}
	}
}

// TestPrefetchKeepsGeometryIdentical is the subsystem's safety property:
// prefetching may change timings and residency, never results. Every
// algorithm, steady and unsteady, must produce bit-identical geometry
// with prefetching off and fully on.
func TestPrefetchKeepsGeometryIdentical(t *testing.T) {
	for _, workload := range []struct {
		name string
		prob Problem
	}{
		{"steady", testProblem(40)},
		{"unsteady", testUnsteadyProblem(40)},
	} {
		for _, alg := range Algorithms() {
			label := fmt.Sprintf("%s/%s", workload.name, alg)
			base := testConfig(alg, 5)
			base.CollectTraces = true
			ref := mustRun(t, workload.prob, withPrefetch(base, prefetch.Off))
			for _, policy := range []prefetch.Policy{prefetch.Neighbor, prefetch.Temporal, prefetch.Both} {
				res := mustRun(t, workload.prob, withPrefetch(base, policy))
				samePoints(t, fmt.Sprintf("%s/%s", label, policy), res.Streamlines, ref.Streamlines)
			}
		}
	}
}

// TestPrefetchHidesIO checks the subsystem's purpose: with the neighbor
// predictor on, Load On Demand stalls less on I/O, reports nonzero
// hidden time, and lands prefetch hits.
func TestPrefetchHidesIO(t *testing.T) {
	p := testProblem(60)
	off := mustRun(t, p, withPrefetch(testConfig(LoadOnDemand, 4), prefetch.Off))
	on := mustRun(t, p, withPrefetch(testConfig(LoadOnDemand, 4), prefetch.Neighbor))

	if off.Summary.PrefetchIssued != 0 || off.Summary.IOHiddenTime != 0 {
		t.Fatalf("prefetch off still prefetched: %d issued, %.3fs hidden",
			off.Summary.PrefetchIssued, off.Summary.IOHiddenTime)
	}
	s := on.Summary
	if s.PrefetchIssued == 0 || s.PrefetchHits == 0 {
		t.Fatalf("neighbor policy idle: issued=%d hits=%d", s.PrefetchIssued, s.PrefetchHits)
	}
	if s.IOHiddenTime <= 0 {
		t.Errorf("no I/O hidden (%.4fs)", s.IOHiddenTime)
	}
	if s.TotalIO >= off.Summary.TotalIO {
		t.Errorf("I/O stall time did not drop: %.4fs with prefetch vs %.4fs without",
			s.TotalIO, off.Summary.TotalIO)
	}
}

// TestPrefetchTemporalUnsteady checks the ROADMAP's "load epoch e+1
// while computing in e": the temporal predictor must engage on a
// time-sliced run and cut epoch-boundary stalls.
func TestPrefetchTemporalUnsteady(t *testing.T) {
	p := testUnsteadyProblem(40)
	off := mustRun(t, p, withPrefetch(testConfig(LoadOnDemand, 4), prefetch.Off))
	on := mustRun(t, p, withPrefetch(testConfig(LoadOnDemand, 4), prefetch.Temporal))

	s := on.Summary
	if s.PrefetchIssued == 0 || s.PrefetchHits == 0 {
		t.Fatalf("temporal policy idle on an unsteady run: issued=%d hits=%d",
			s.PrefetchIssued, s.PrefetchHits)
	}
	if s.IOHiddenTime <= 0 {
		t.Errorf("no I/O hidden (%.4fs)", s.IOHiddenTime)
	}
	if s.TotalIO >= off.Summary.TotalIO {
		t.Errorf("epoch-boundary stalls did not drop: %.4fs with prefetch vs %.4fs without",
			s.TotalIO, off.Summary.TotalIO)
	}

	// On a steady run the temporal predictor has nothing to predict; only
	// the policy-independent load-queue lookahead may issue reads.
	steady := mustRun(t, testProblem(40), withPrefetch(testConfig(LoadOnDemand, 4), prefetch.Temporal))
	if hits := steady.Summary.PrefetchHits; hits > 0 && steady.Summary.IOHiddenTime < 0 {
		t.Errorf("impossible accounting: %d hits, negative hidden time", hits)
	}
}

// TestPrefetchCounterInvariants pins the accounting identity: every hit
// and every waste consumes a distinct issued read, and hidden time is
// never negative.
func TestPrefetchCounterInvariants(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, prob := range []Problem{testProblem(50), testUnsteadyProblem(30)} {
			cfg := withPrefetch(testConfig(alg, 4), prefetch.Both)
			res := mustRun(t, prob, cfg)
			s := res.Summary
			if s.PrefetchHits+s.PrefetchWasted > s.PrefetchIssued {
				t.Errorf("%s: hits %d + wasted %d exceed issued %d",
					alg, s.PrefetchHits, s.PrefetchWasted, s.PrefetchIssued)
			}
			if s.IOHiddenTime < 0 {
				t.Errorf("%s: negative hidden time %.4f", alg, s.IOHiddenTime)
			}
			if s.TotalIOQueue > s.TotalIO {
				t.Errorf("%s: queue wait %.4f exceeds total I/O %.4f", alg, s.TotalIOQueue, s.TotalIO)
			}
		}
	}
}

// TestPrefetchValidation rejects malformed prefetch configurations.
func TestPrefetchValidation(t *testing.T) {
	p := testProblem(10)
	cfg := testConfig(LoadOnDemand, 2)
	cfg.Prefetch = prefetch.Config{Policy: "sideways"}
	if _, err := Run(p, cfg); err == nil {
		t.Error("unknown prefetch policy accepted")
	}
	cfg.Prefetch = prefetch.Config{Policy: prefetch.Neighbor, Depth: -1}
	if _, err := Run(p, cfg); err == nil {
		t.Error("negative prefetch depth accepted")
	}
}

// TestTryPrefetchRespectsBudget pins the speculation guard: a prefetch
// is refused unless, beyond its own buffer, one further block of
// headroom remains under the memory budget.
func TestTryPrefetchRespectsBudget(t *testing.T) {
	p := testProblem(4)
	bb := p.Provider.Decomp().BlockBytes()
	cfg := testConfig(LoadOnDemand, 1)
	cfg.MemoryBudget = 3 * bb
	withWorker(t, p, cfg, func(r *runState, w *worker) {
		w.cache.SetPrefetchLimit(4)
		if !w.tryPrefetch(1) {
			t.Error("prefetch refused with the whole budget free")
		}
		w.cache.Get(1) // resident: one block used, two free
		if !w.tryPrefetch(2) {
			t.Error("prefetch refused with exactly its buffer plus one block of reserve free")
		}
		w.cache.Get(2) // two blocks used, one free: no reserve left
		if w.tryPrefetch(3) {
			t.Error("prefetch accepted without a block of reserve")
		}
	})
}
