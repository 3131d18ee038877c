// Package integrate provides the numerical ODE solver used to trace
// streamlines, dx/dt = v(x), and pathlines, dx/dt = v(x, t).
//
// The paper (Section 2.1) integrates with "a scheme of Runge-Kutta type
// with adaptive stepsize control as proposed by Dormand and Prince"; this
// package implements that Dormand–Prince 5(4) embedded pair with a
// standard step-size controller. It is written once, for the
// non-autonomous system the paper's Section 8 treats as the general
// case: one stage ladder (step) and one advect loop (AdvectTWith). The
// steady entry points hand the same loop a field that ignores t.
//
// The hot loop is written for the simulated campaigns, where field
// evaluation dominates the run time (DESIGN.md §12): the stages are
// unrolled against the tableau constants, the loop is generic over the
// evaluator so callers can instantiate it at a concrete field type (no
// interface dispatch), and the first-same-as-last (FSAL) property of the
// Dormand–Prince pair is exploited to evaluate the field six — not
// eight — times per accepted step. Every reused value is bit-for-bit the
// one a fresh evaluation would return, so the golden geometry digests
// cannot move.
package integrate

import (
	"math"

	"repro/internal/vec"
)

// Evaluator is the right-hand side of the autonomous ODE dx/dt = v(x):
// a vector field query.
type Evaluator interface {
	Eval(p vec.V3) vec.V3
}

// TimeEvaluator is the right-hand side of the non-autonomous ODE
// dx/dt = v(x, t) used for pathlines in time-varying fields (the paper's
// Section 8 extension). It is the one system the solver integrates; a
// streamline is the case whose field ignores t.
type TimeEvaluator interface {
	EvalAt(p vec.V3, t float64) vec.V3
}

// steady presents an Evaluator as the TimeEvaluator that ignores t, so
// Advect is AdvectT: the stage times are computed and dropped, and every
// stage value is the float the field returns for the position alone.
type steady[E Evaluator] struct{ e E }

// EvalAt implements TimeEvaluator.
func (s steady[E]) EvalAt(p vec.V3, _ float64) vec.V3 { return s.e.Eval(p) }

// Options controls adaptive integration.
type Options struct {
	// Tol is the per-step error tolerance (absolute, on position).
	Tol float64
	// HMin is the smallest allowed step; steps clamp here rather than
	// failing, so integration always progresses.
	HMin float64
	// HMax caps the step size; 0 means no cap.
	HMax float64
	// MinSpeed terminates integration when the local field magnitude
	// drops below it (critical-point sink, the paper's "vector field
	// complexity" criterion). 0 applies a small default.
	MinSpeed float64
}

// defaults fills unset options with production values.
func (o Options) defaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.HMin <= 0 {
		o.HMin = 1e-7
	}
	if o.MinSpeed <= 0 {
		o.MinSpeed = 1e-9
	}
	return o
}

// StopReason explains why an advection call returned.
type StopReason int

// Stop reasons, from the integrator's perspective. The engine layers its
// own semantics on top (OutOfBlock usually means "hand off to another
// block or processor").
const (
	StopNone       StopReason = iota // still going (internal use)
	StopOutOfBlock                   // left the supplied bounding box
	StopMaxSteps                     // hit the per-call step budget
	StopMaxTime                      // hit the integration-time budget
	StopCritical                     // field magnitude below MinSpeed
	StopError                        // field returned a non-finite value
)

// String implements fmt.Stringer.
func (s StopReason) String() string {
	switch s {
	case StopNone:
		return "none"
	case StopOutOfBlock:
		return "out-of-block"
	case StopMaxSteps:
		return "max-steps"
	case StopMaxTime:
		return "max-time"
	case StopCritical:
		return "critical-point"
	case StopError:
		return "error"
	default:
		return "unknown"
	}
}

// Dormand–Prince RK5(4) tableau (the DOPRI5 coefficients), as untyped
// constants so the unrolled stages below fold them into immediates. The
// sixth A row doubles as the 5th-order weights (FSAL); cB4* are the
// embedded 4th-order weights; cC* the stage time fractions.
const (
	cA10 = 1.0 / 5
	cA20 = 3.0 / 40
	cA21 = 9.0 / 40
	cA30 = 44.0 / 45
	cA31 = -56.0 / 15
	cA32 = 32.0 / 9
	cA40 = 19372.0 / 6561
	cA41 = -25360.0 / 2187
	cA42 = 64448.0 / 6561
	cA43 = -212.0 / 729
	cA50 = 9017.0 / 3168
	cA51 = -355.0 / 33
	cA52 = 46732.0 / 5247
	cA53 = 49.0 / 176
	cA54 = -5103.0 / 18656
	cA60 = 35.0 / 384
	cA62 = 500.0 / 1113
	cA63 = 125.0 / 192
	cA64 = -2187.0 / 6784
	cA65 = 11.0 / 84

	cB40 = 5179.0 / 57600
	cB42 = 7571.0 / 16695
	cB43 = 393.0 / 640
	cB44 = -92097.0 / 339200
	cB45 = 187.0 / 2100
	cB46 = 1.0 / 40

	cC1 = 1.0 / 5
	cC2 = 3.0 / 10
	cC3 = 4.0 / 5
	cC4 = 8.0 / 9
)

// DoPri5 is a Dormand–Prince 5(4) adaptive integrator. The zero value is
// not usable; construct with NewDoPri5. A DoPri5 carries per-streamline
// state (current step size) so it can be suspended when a streamline is
// handed to another processor and resumed bit-for-bit identically — the
// solver state is part of what the algorithms communicate.
type DoPri5 struct {
	Opts Options
	// H is the current step size (exported so solver state can be
	// serialized with a streamline, per the paper's §8 note that
	// communicating solver state suffices for many applications).
	H float64
}

// NewDoPri5 returns an integrator with the given options.
func NewDoPri5(opts Options) *DoPri5 {
	return &DoPri5{Opts: opts.defaults()}
}

// stepped is one accepted adaptive step.
type stepped struct {
	p     vec.V3  // new position
	t     float64 // new integration time
	evals int     // field evaluations consumed, rejected trials included
	k     vec.V3  // the field at (p, t) when fsal: the next step's first stage
	fsal  bool
}

// step is the adaptive-step core: it advances the non-autonomous system
// one accepted step from (p, t), evaluating each stage at its own time
// t + c_i·h, and leaves the next step size in s.H. It takes
// k0 = f.EvalAt(p, t) from the caller (not counted in evals) so the value
// can be shared with the caller's speed check and, via the FSAL property,
// with the previous accepted step's final stage. k0 does not depend on
// the trial step size, so rejected trials reuse it instead of
// re-evaluating. ok is false when the field returned a non-finite value.
//
// The sixth stage's sample point is accumulated with exactly the
// 5th-order weight sequence, so it IS the accepted position p5
// bit-for-bit; step therefore computes p5 once, evaluates the final stage
// at (p5, t+h) — exactly where the next step's k0 would be taken — and on
// acceptance returns that value as k with fsal set.
func step[E TimeEvaluator](s *DoPri5, f E, p vec.V3, t float64, k0 vec.V3) (res stepped, ok bool) {
	o := s.Opts
	evals := 0
	for try := 0; try < 64; try++ {
		h := s.H
		q := p.Add(k0.Scale(h * cA10))
		k1 := f.EvalAt(q, t+cC1*h)
		evals++
		if !k1.IsFinite() {
			return stepped{evals: evals}, false
		}
		q = p.Add(k0.Scale(h * cA20)).Add(k1.Scale(h * cA21))
		k2 := f.EvalAt(q, t+cC2*h)
		evals++
		if !k2.IsFinite() {
			return stepped{evals: evals}, false
		}
		q = p.Add(k0.Scale(h * cA30)).Add(k1.Scale(h * cA31)).Add(k2.Scale(h * cA32))
		k3 := f.EvalAt(q, t+cC3*h)
		evals++
		if !k3.IsFinite() {
			return stepped{evals: evals}, false
		}
		q = p.Add(k0.Scale(h * cA40)).Add(k1.Scale(h * cA41)).Add(k2.Scale(h * cA42)).Add(k3.Scale(h * cA43))
		k4 := f.EvalAt(q, t+cC4*h)
		evals++
		if !k4.IsFinite() {
			return stepped{evals: evals}, false
		}
		q = p.Add(k0.Scale(h * cA50)).Add(k1.Scale(h * cA51)).Add(k2.Scale(h * cA52)).Add(k3.Scale(h * cA53)).Add(k4.Scale(h * cA54))
		k5 := f.EvalAt(q, t+h)
		evals++
		if !k5.IsFinite() {
			return stepped{evals: evals}, false
		}
		p5 := p.Add(k0.Scale(h * cA60)).Add(k2.Scale(h * cA62)).Add(k3.Scale(h * cA63)).Add(k4.Scale(h * cA64)).Add(k5.Scale(h * cA65))
		k6 := f.EvalAt(p5, t+h)
		evals++
		if !k6.IsFinite() {
			return stepped{evals: evals}, false
		}
		p4 := p.Add(k0.Scale(h * cB40)).Add(k2.Scale(h * cB42)).Add(k3.Scale(h * cB43)).Add(k4.Scale(h * cB44)).Add(k5.Scale(h * cB45)).Add(k6.Scale(h * cB46))
		errEst := p5.Dist(p4)
		if errEst <= o.Tol || h <= o.HMin {
			// Accept; grow the step for next time (classic 0.9 safety,
			// order-5 exponent).
			s.H = nextStep(h, errEst, o)
			return stepped{p: p5, t: t + h, evals: evals, k: k6, fsal: true}, true
		}
		// Reject: shrink and retry.
		s.H = nextStep(h, errEst, o)
		if s.H >= h { // ensure progress on pathological error estimates
			s.H = h / 2
		}
		if s.H < o.HMin {
			s.H = o.HMin
		}
	}
	// Tolerance unreachable: accept a minimal Euler step (from k0, the
	// already-evaluated field at p) rather than spinning.
	s.H = o.HMin
	return stepped{p: p.Add(k0.Scale(s.H)), t: t + s.H, evals: evals}, true
}

func nextStep(h, errEst float64, o Options) float64 {
	// Fast path for the common cruising regime: the step is pinned at
	// HMax and the error is comfortably inside tolerance, so the growth
	// factor is certainly ≥ 1 (shrinking would need errEst > 0.59·Tol)
	// and the HMax clamp hands back h unchanged — no Pow required. The
	// 4× margin keeps the shortcut far from the factor≈1 rounding
	// boundary, so it can never disagree with the exact computation.
	if o.HMax > 0 && h == o.HMax && h >= o.HMin && errEst*4 < o.Tol {
		return h
	}
	var factor float64
	if errEst == 0 {
		factor = 5
	} else {
		factor = 0.9 * math.Pow(o.Tol/errEst, 0.2)
		if factor > 5 {
			factor = 5
		}
		if factor < 0.1 {
			factor = 0.1
		}
	}
	h *= factor
	if o.HMax > 0 && h > o.HMax {
		h = o.HMax
	}
	if h < o.HMin {
		h = o.HMin
	}
	return h
}

// initialStepFrom picks a starting step from the local field value (the
// caller's already-computed evaluation at the start point) so the first
// step moves a small fraction of a unit length.
func (s *DoPri5) initialStepFrom(v0 vec.V3) float64 {
	v := v0.Norm()
	if v < 1e-12 {
		return 1e-3
	}
	h := 0.01 / v
	if s.Opts.HMax > 0 && h > s.Opts.HMax {
		h = s.Opts.HMax
	}
	if h < s.Opts.HMin {
		h = s.Opts.HMin
	}
	return h
}

// AdvectLimits bounds one Advect call.
type AdvectLimits struct {
	Bounds   vec.AABB // stop when the position leaves this box
	MaxSteps int      // stop after this many accepted steps (0 = unlimited)
	MaxTime  float64  // stop at this integration time (0 = unlimited)
	// Buf, when non-nil, is a reusable backing array for the result's
	// Points: geometry is collected into Buf[:0] instead of a fresh
	// allocation. The caller owns the aliasing — copy the points out
	// before reusing the buffer.
	Buf []vec.V3
}

// AdvectResult reports an Advect call.
type AdvectResult struct {
	P      vec.V3     // final position
	T      float64    // final integration time
	Steps  int        // accepted steps taken
	Evals  int        // field evaluations consumed
	Reason StopReason // why advection stopped
	Points []vec.V3   // positions after each accepted step (geometry)
}

// Advect integrates the autonomous system from (p, t) until a limit is
// reached, collecting the intermediate geometry. The caller owns domain
// semantics: typically Bounds is the current block's box, so
// StopOutOfBlock signals a block transition.
func (s *DoPri5) Advect(f Evaluator, p vec.V3, t float64, lim AdvectLimits) AdvectResult {
	return AdvectTWith(s, steady[Evaluator]{f}, p, t, lim)
}

// AdvectWith is Advect generic over the evaluator type; see AdvectTWith.
func AdvectWith[E Evaluator](s *DoPri5, f E, p vec.V3, t float64, lim AdvectLimits) AdvectResult {
	return AdvectTWith(s, steady[E]{f}, p, t, lim)
}

// AdvectT integrates the non-autonomous system from (p, t) under the same
// limits as Advect; MaxTime is the absolute time horizon.
func (s *DoPri5) AdvectT(f TimeEvaluator, p vec.V3, t float64, lim AdvectLimits) AdvectResult {
	return AdvectTWith(s, f, p, t, lim)
}

// AdvectTWith is the advect loop, generic over the evaluator type:
// instantiated at a concrete field type it runs the whole inner loop
// without interface dispatch. The per-iteration speed check doubles as
// the step's first stage, and after an accepted step the FSAL value is
// carried into the next iteration, for six field evaluations per accepted
// step in steady state. All reused values are bit-identical to the ones
// a fresh evaluation would return.
func AdvectTWith[E TimeEvaluator](s *DoPri5, f E, p vec.V3, t float64, lim AdvectLimits) AdvectResult {
	res := AdvectResult{P: p, T: t, Points: lim.Buf[:0]}
	var v vec.V3 // field at (res.P, res.T): fresh, or the last step's FSAL stage
	haveV := false
	for {
		if lim.MaxSteps > 0 && res.Steps >= lim.MaxSteps {
			res.Reason = StopMaxSteps
			return res
		}
		if lim.MaxTime > 0 && res.T >= lim.MaxTime {
			res.Reason = StopMaxTime
			return res
		}
		if !haveV {
			v = f.EvalAt(res.P, res.T)
			res.Evals++ // the speed check below
		}
		if v.Norm() < s.Opts.MinSpeed {
			res.Reason = StopCritical
			return res
		}
		if !v.IsFinite() {
			res.Reason = StopError
			return res
		}
		if s.H == 0 {
			// A fresh solver picks its initial step before the horizon
			// clamp, so even the very first step is clamped.
			s.H = s.initialStepFrom(v)
		}
		if lim.MaxTime > 0 {
			// Land exactly on the time horizon: flow-map analyses (FTLE)
			// need neighboring trajectories to stop at identical times,
			// and epoch-bounded pathline advection must not overshoot
			// into the next time slab.
			if remain := lim.MaxTime - res.T; s.H > remain {
				s.H = remain
			}
		}
		st, ok := step(s, f, res.P, res.T, v)
		res.Evals += st.evals
		if !ok {
			res.Reason = StopError
			return res
		}
		res.P = st.p
		res.T = st.t
		res.Steps++
		res.Points = append(res.Points, st.p)
		if !lim.Bounds.Contains(res.P) {
			res.Reason = StopOutOfBlock
			return res
		}
		v, haveV = st.k, st.fsal
	}
}
