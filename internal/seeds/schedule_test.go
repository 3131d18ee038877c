package seeds

import (
	"fmt"
	"math"
	"testing"
)

// schedule is one schedule function with its window and parameters
// bound, named for test messages.
type schedule struct {
	name  string
	times func(n int) []float64
}

func stagger(t0, t1 float64) schedule {
	return schedule{"stagger", func(n int) []float64 { return Stagger(n, t0, t1) }}
}

func bursts(t0, t1 float64, waves int) schedule {
	return schedule{fmt.Sprintf("bursts%d", waves), func(n int) []float64 { return Bursts(n, t0, t1, waves) }}
}

func rate(t0, t1, perSec float64) schedule {
	return schedule{fmt.Sprintf("rate%g", perSec), func(n int) []float64 { return Rate(n, t0, t1, perSec) }}
}

// scheduleCases enumerates instances of every schedule function over a
// shared window, for table-driven invariant checks.
func scheduleCases(t0, t1 float64) []schedule {
	return []schedule{
		stagger(t0, t1),
		bursts(t0, t1, 1),
		bursts(t0, t1, 4),
		bursts(t0, t1, 7),
		rate(t0, t1, 3.5),
		rate(t0, t1, 1e9),
	}
}

// TestScheduleInvariants checks every schedule function against the
// schedule contract at several seed counts, including the empty and
// single-seed edges.
func TestScheduleInvariants(t *testing.T) {
	for _, sched := range scheduleCases(0, 2.5) {
		for _, n := range []int{0, 1, 2, 3, 10, 101} {
			if err := ValidateTimes(sched.times(n), n, 0, 2.5); err != nil {
				t.Errorf("%s n=%d: %v", sched.name, n, err)
			}
		}
	}
}

// TestScheduleDeterminism checks bit-identical replays: the same
// (schedule parameters, seed count) must yield the same times, call
// after call — the property the campaign memoization and golden digests
// lean on.
func TestScheduleDeterminism(t *testing.T) {
	for _, sched := range scheduleCases(0.5, 4) {
		a := sched.times(257)
		b := sched.times(257)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: times differ at %d: %v vs %v", sched.name, i, a[i], b[i])
			}
		}
	}
}

// TestUniformStaggerSpansWindow checks the first seed releases at t0,
// the last exactly at t1, and spacing is even.
func TestUniformStaggerSpansWindow(t *testing.T) {
	times := Stagger(5, 1, 3)
	want := []float64{1, 1.5, 2, 2.5, 3}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	if one := Stagger(1, 1, 3); one[0] != 1 {
		t.Errorf("single seed released at %g, want t0", one[0])
	}
}

// TestBurstWavesConservation checks the exact per-wave split: wave
// counts sum to n, differ by at most one, and wave times sit one period
// apart starting at t0.
func TestBurstWavesConservation(t *testing.T) {
	const n, waves = 23, 4
	times := Bursts(n, 0, 8, waves)
	counts := map[float64]int{}
	for _, tm := range times {
		counts[tm]++
	}
	if len(counts) != waves {
		t.Fatalf("distinct wave times = %d, want %d", len(counts), waves)
	}
	total := 0
	for w := 0; w < waves; w++ {
		c := counts[float64(w)*2] // period = 8/4
		if c != 5 && c != 6 {
			t.Errorf("wave %d has %d seeds, want 5 or 6", w, c)
		}
		total += c
	}
	if total != n {
		t.Errorf("waves hold %d seeds, want %d (conservation)", total, n)
	}
	// Degenerate wave counts normalize rather than panic.
	if got := Bursts(3, 0, 8, 0); got[2] != 0 {
		t.Errorf("waves=0 not normalized to one t0 burst: %v", got)
	}
	// More waves than seeds: early waves carry one seed each.
	sparse := Bursts(3, 0, 8, 8)
	if sparse[0] != 0 || sparse[1] != 1 || sparse[2] != 2 {
		t.Errorf("3 seeds over 8 waves = %v, want one per leading wave", sparse)
	}
}

// TestRateLimitClamps checks the fixed-rate release and the clamp into
// the window.
func TestRateLimitClamps(t *testing.T) {
	times := Rate(8, 0, 2, 2)
	for i, want := range []float64{0, 0.5, 1, 1.5, 2, 2, 2, 2} {
		if times[i] != want {
			t.Fatalf("times = %v, want clamp at 2 after seed 4", times)
		}
	}
	// Non-positive and non-finite rates degrade to all-at-t0.
	for _, perSec := range []float64{0, -3, math.Inf(1), math.NaN()} {
		for _, tm := range Rate(4, 1, 5, perSec) {
			if tm != 1 {
				t.Fatalf("rate %g released at %g, want t0", perSec, tm)
			}
		}
	}
}

// TestScheduleDegenerateWindow checks that an inverted window collapses
// to the instant t0 instead of producing out-of-range times.
func TestScheduleDegenerateWindow(t *testing.T) {
	for _, sched := range []schedule{stagger(2, 1), bursts(2, 1, 3), rate(2, 1, 5)} {
		if err := ValidateTimes(sched.times(6), 6, 2, 2); err != nil {
			t.Errorf("%s: %v", sched.name, err)
		}
	}
}

// TestValidateTimesRejects covers the checker's own failure modes, which
// the fuzz harnesses rely on to detect invariant breaks.
func TestValidateTimesRejects(t *testing.T) {
	if err := ValidateTimes([]float64{0, 1}, 3, 0, 2); err == nil {
		t.Error("count mismatch accepted")
	}
	if err := ValidateTimes([]float64{0, 3}, 2, 0, 2); err == nil {
		t.Error("out-of-window time accepted")
	}
	if err := ValidateTimes([]float64{1, 0.5}, 2, 0, 2); err == nil {
		t.Error("non-monotone times accepted")
	}
	if err := ValidateTimes([]float64{0, math.NaN()}, 2, 0, 2); err == nil {
		t.Error("NaN accepted")
	}
}
