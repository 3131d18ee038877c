// Injection schedules: when each seed of a set is released into the
// computation (DESIGN.md §9).
//
// The paper studies a fixed particle population released all at once at
// t0; real in-situ and unsteady visualization injects particles
// continuously — streak-line rakes, bursty seeding, rate-limited
// emitters. A schedule assigns every seed a release time in *virtual
// machine seconds*: the moment the seed becomes known to the parallel
// computation. Release time is a scheduling quantity, not an
// integration-time one — a particle's trajectory after release is
// identical under every schedule (pinned by the golden digests); what a
// schedule reshapes is when the work exists, and therefore the
// load-balance, caching and communication story every algorithm in this
// repo exists to interrogate. Releasing every seed at t0, the paper's
// workload, is no schedule at all: a problem without release times.
//
// Stagger, Bursts and Rate each return the release time of n seeds,
// indexed by seed ID. Every one is deterministic — identical (n,
// parameters) produce bit-identical times — and for every n >= 0 returns
// exactly n times, monotone non-decreasing, inside [t0, t1]; an inverted
// window (t1 < t0) collapses to the instant t0. The property and fuzz
// tests pin all of it through ValidateTimes.
package seeds

import (
	"fmt"
	"math"
)

// Stagger spreads n seeds evenly over [t0, t1] — the continuous
// streak-line rake, the limit of infinitely many infinitesimal waves:
// seed i releases at t0 + (t1-t0)·i/(n-1), so the first seed releases at
// t0 and the last exactly at t1.
func Stagger(n int, t0, t1 float64) []float64 {
	if t1 < t0 {
		t1 = t0
	}
	out := make([]float64, max(n, 0))
	for i := range out {
		if n > 1 {
			// i/(n-1) is monotone and lands the last seed exactly on t1;
			// the multiply-then-divide form keeps it within [t0,t1] under
			// rounding because i <= n-1.
			out[i] = t0 + (t1-t0)*float64(i)/float64(n-1)
		} else {
			out[i] = t0
		}
	}
	return out
}

// Bursts splits n seeds into `waves` equal bursts — bursty in-situ
// seeding, where a simulation emits a rake every few timesteps. Wave w
// releases at t0 + w·(t1-t0)/waves: the first wave at t0, each later
// wave one period after it, all strictly inside [t0, t1]. Earlier waves
// take the remainder seeds, so counts are conserved exactly. waves < 1
// is normalized to a single t0 burst.
func Bursts(n int, t0, t1 float64, waves int) []float64 {
	if t1 < t0 {
		t1 = t0
	}
	if waves < 1 {
		waves = 1
	}
	out := make([]float64, max(n, 0))
	period := (t1 - t0) / float64(waves)
	at := 0
	for w := 0; w < waves && at < len(out); w++ {
		// Earlier waves absorb the remainder: ceil-split keeps the total
		// exactly n.
		count := (len(out) - at + (waves - w - 1)) / (waves - w)
		t := t0 + float64(w)*period
		for i := 0; i < count; i++ {
			out[at] = t
			at++
		}
	}
	return out
}

// Rate releases seeds at perSec seeds per second from t0 — a
// bandwidth-capped emitter. Deterministic (no Poisson draw): seed i
// releases exactly at t0 + i/perSec, clamped to t1, so a slow rate
// degrades gracefully into a final burst at t1 rather than overrunning
// the run. A non-positive or non-finite rate is normalized to an
// infinite one: every seed at t0.
func Rate(n int, t0, t1, perSec float64) []float64 {
	if t1 < t0 {
		t1 = t0
	}
	if perSec <= 0 || math.IsInf(perSec, 1) || math.IsNaN(perSec) {
		perSec = math.Inf(1)
	}
	out := make([]float64, max(n, 0))
	for i := range out {
		t := t0
		if !math.IsInf(perSec, 1) {
			t += float64(i) / perSec
		}
		out[i] = math.Min(t, t1)
	}
	return out
}

// ValidateTimes checks the schedule invariants on a produced time slice:
// exactly n entries, monotone non-decreasing, all within [t0, t1]. The
// property and fuzz tests run every schedule through it; campaign
// problem-building asserts it once per built problem.
func ValidateTimes(times []float64, n int, t0, t1 float64) error {
	if len(times) != n {
		return fmt.Errorf("seeds: schedule produced %d release times for %d seeds", len(times), n)
	}
	for i, t := range times {
		if math.IsNaN(t) || t < t0 || t > t1 {
			return fmt.Errorf("seeds: release time %d = %g outside window [%g, %g]", i, t, t0, t1)
		}
		if i > 0 && t < times[i-1] {
			return fmt.Errorf("seeds: release times not monotone at %d: %g < %g", i, t, times[i-1])
		}
	}
	return nil
}
