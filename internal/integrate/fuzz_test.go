package integrate

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/vec"
)

// Fuzz harnesses for the solver's step-acceptance invariants. The seed
// corpus below runs as ordinary deterministic tests on every `go test`
// (and therefore in CI); `go test -fuzz=FuzzDoPri5Step ./internal/integrate`
// explores further.

// fuzzField picks a finite analytic field from a selector byte.
func fuzzField(sel uint8) Evaluator {
	switch sel % 4 {
	case 0:
		return evalFunc(field.Rotation{Omega: 1.3}.Eval)
	case 1:
		return evalFunc(field.DefaultABC().Eval)
	case 2:
		return evalFunc(field.Saddle{}.Eval)
	default:
		return evalFunc(field.Uniform{V: vec.Of(0.4, -0.2, 0.1)}.Eval)
	}
}

// stepOnce takes one adaptive step from (p, 0): the advect loop with a
// one-step budget and no spatial bound.
func stepOnce(s *DoPri5, f Evaluator, p vec.V3) AdvectResult {
	inf := math.Inf(1)
	everywhere := vec.Box(vec.Of(-inf, -inf, -inf), vec.Of(inf, inf, inf))
	return AdvectWith(s, f, p, 0, AdvectLimits{Bounds: everywhere, MaxSteps: 1})
}

func clampRange(v, lo, hi float64) float64 {
	v = math.Abs(v)
	if !(v >= lo) || math.IsInf(v, 0) {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func FuzzDoPri5StepAcceptance(f *testing.F) {
	f.Add(1e-6, 0.05, 0.3, -0.4, 0.2, uint8(0))
	f.Add(1e-4, 0.0, 1.0, 1.0, 1.0, uint8(1))
	f.Add(1e-9, 0.001, -0.7, 0.1, 0.0, uint8(2))
	f.Add(1e-2, 0.5, 0.0, 0.0, 0.0, uint8(3))
	f.Add(1e-7, 0.02, 2.9, -2.9, 2.9, uint8(1))

	f.Fuzz(func(t *testing.T, tol, hmax, px, py, pz float64, sel uint8) {
		if !vec.Of(px, py, pz).IsFinite() {
			t.Skip()
		}
		opts := Options{
			Tol:  clampRange(tol, 1e-10, 1e-1),
			HMax: clampRange(hmax, 0, 1),
		}
		if opts.HMax == 0 {
			opts.HMax = 0 // no cap is a valid configuration
		}
		ev := fuzzField(sel)
		p := vec.Of(px, py, pz)

		s := NewDoPri5(opts)
		res := stepOnce(s, ev, p)
		if res.Reason == StopCritical {
			t.Skip() // the saddle's fixed point: no step to take
		}
		// Acceptance invariants: the step is accepted, time advances,
		// the position is finite, and the adapted step size respects
		// the configured bounds.
		if res.Steps != 1 || res.Reason != StopMaxSteps {
			t.Fatalf("finite field: %d steps, stopped on %v", res.Steps, res.Reason)
		}
		if !(res.T > 0) {
			t.Fatalf("time did not advance: T=%g", res.T)
		}
		if !res.P.IsFinite() {
			t.Fatalf("non-finite position %v", res.P)
		}
		if s.H < s.Opts.HMin {
			t.Fatalf("step size %g below HMin %g", s.H, s.Opts.HMin)
		}
		if s.Opts.HMax > 0 && s.H > s.Opts.HMax {
			t.Fatalf("step size %g above HMax %g", s.H, s.Opts.HMax)
		}
		if res.Evals <= 0 {
			t.Fatal("no field evaluations recorded")
		}

		// Determinism: an identical solver takes the identical step,
		// bit for bit — the property every handoff in core relies on.
		s2 := NewDoPri5(opts)
		res2 := stepOnce(s2, ev, p)
		if res2.P != res.P || res2.T != res.T || s2.H != s.H {
			t.Fatalf("same state, different step: %+v vs %+v", res, res2)
		}
	})
}

func FuzzAdvectLimits(f *testing.F) {
	f.Add(1e-6, 0.6, 0.3, -0.4, 0.2, 20, uint8(0))
	f.Add(1e-4, 1.5, 0.9, 0.9, -0.9, 5, uint8(1))
	f.Add(1e-8, 0.05, 0.0, 0.5, 0.0, 50, uint8(2))
	f.Add(1e-3, 2.0, -1.0, 1.0, 1.0, 1, uint8(3))

	f.Fuzz(func(t *testing.T, tol, maxTime, px, py, pz float64, maxSteps int, sel uint8) {
		if !vec.Of(px, py, pz).IsFinite() {
			t.Skip()
		}
		if maxSteps <= 0 || maxSteps > 500 {
			maxSteps = 50
		}
		opts := Options{Tol: clampRange(tol, 1e-10, 1e-1), HMax: 0.1}
		maxTime = clampRange(maxTime, 1e-3, 10)
		ev := fuzzField(sel)
		p := vec.Of(px, py, pz)
		bounds := vec.Box(vec.Of(-50, -50, -50), vec.Of(50, 50, 50))

		s := NewDoPri5(opts)
		res := AdvectWith(s, ev, p, 0, AdvectLimits{Bounds: bounds, MaxSteps: maxSteps, MaxTime: maxTime})
		if res.Steps > maxSteps {
			t.Fatalf("took %d steps, budget %d", res.Steps, maxSteps)
		}
		if res.T > maxTime+1e-9 {
			t.Fatalf("overran the time horizon: T=%g > %g", res.T, maxTime)
		}
		if len(res.Points) != res.Steps {
			t.Fatalf("geometry points %d != accepted steps %d", len(res.Points), res.Steps)
		}
		if !res.P.IsFinite() {
			t.Fatalf("non-finite final position %v", res.P)
		}
		if res.Reason == StopMaxTime && math.Abs(res.T-maxTime) > 1e-9 {
			t.Fatalf("StopMaxTime with T=%g, horizon %g — should land on the horizon", res.T, maxTime)
		}
	})
}
