package seeds

import (
	"math"
	"testing"
)

// Fuzz harnesses for the injection-schedule invariants (DESIGN.md §9).
// The seed corpus below runs as ordinary deterministic tests on every
// `go test` (and therefore in CI);
// `go test -fuzz=FuzzScheduleInvariants ./internal/seeds` explores
// further.

// fuzzSchedule picks a schedule function from a selector byte over a
// fuzz-chosen window.
func fuzzSchedule(sel uint8, t0, t1 float64, waves int, perSec float64) schedule {
	switch sel % 3 {
	case 1:
		return stagger(t0, t1)
	case 2:
		return bursts(t0, t1, waves)
	default:
		return rate(t0, t1, perSec)
	}
}

// clampWindow maps an arbitrary fuzz float into a sane non-negative
// window bound.
func clampWindow(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Min(math.Abs(v), 1e6)
}

// FuzzScheduleInvariants checks, for arbitrary parameters, that every
// schedule conserves the seed count, releases monotonically, stays
// inside its window (collapsed to t0 when inverted), and replays
// bit-identically.
func FuzzScheduleInvariants(f *testing.F) {
	f.Add(uint8(0), 0.0, 1.0, 4, 10.0, 16)
	f.Add(uint8(1), 0.0, 2.5, 1, 0.5, 101)
	f.Add(uint8(2), 1.0, 9.0, 7, 3.0, 23)
	f.Add(uint8(3), 0.5, 0.5, 0, 1e9, 1)
	f.Add(uint8(2), 3.0, 1.0, 300, -2.0, 0)
	f.Add(uint8(3), 0.0, 1e5, 12, 1e-9, 257)

	f.Fuzz(func(t *testing.T, sel uint8, t0, t1 float64, waves int, perSec float64, n int) {
		t0, t1 = clampWindow(t0), clampWindow(t1)
		if n < 0 || n > 4096 {
			t.Skip()
		}
		if waves < -1000 || waves > 1000 {
			t.Skip()
		}
		sched := fuzzSchedule(sel, t0, t1, waves, perSec)

		times := sched.times(n)
		if err := ValidateTimes(times, n, t0, max(t0, t1)); err != nil {
			t.Fatalf("%s: %v", sched.name, err)
		}
		replay := sched.times(n)
		for i := range times {
			if times[i] != replay[i] {
				t.Fatalf("%s: replay differs at %d: %v vs %v", sched.name, i, times[i], replay[i])
			}
		}
	})
}

// FuzzBurstWaveConservation checks the exact wave split: counts per
// distinct release time sum to n and no wave time repeats out of order.
func FuzzBurstWaveConservation(f *testing.F) {
	f.Add(0.0, 4.0, 3, 10)
	f.Add(0.0, 1.0, 8, 3)
	f.Add(2.0, 2.0, 5, 40)
	f.Add(0.0, 100.0, 1, 1)

	f.Fuzz(func(t *testing.T, t0, t1 float64, waves, n int) {
		t0, t1 = clampWindow(t0), clampWindow(t1)
		if n < 0 || n > 4096 || waves < -10 || waves > 500 {
			t.Skip()
		}
		times := Bursts(n, t0, t1, waves)
		if len(times) != n {
			t.Fatalf("conservation: %d times for %d seeds", len(times), n)
		}
		distinct := 0
		for i, tm := range times {
			if i == 0 || tm != times[i-1] {
				distinct++
			}
			if i > 0 && tm < times[i-1] {
				t.Fatalf("wave times regress at %d", i)
			}
		}
		maxWaves := waves
		if maxWaves < 1 {
			maxWaves = 1
		}
		if n > 0 && distinct > maxWaves {
			t.Fatalf("%d distinct release times exceed %d waves", distinct, maxWaves)
		}
	})
}
