package integrate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/vec"
)

var bigBox = vec.Box(vec.Of(-100, -100, -100), vec.Of(100, 100, 100))

// evalFunc adapts a plain function to the Evaluator interface.
type evalFunc func(p vec.V3) vec.V3

func (f evalFunc) Eval(p vec.V3) vec.V3 { return f(p) }

// timeEvalFunc adapts a function to TimeEvaluator.
type timeEvalFunc func(p vec.V3, t float64) vec.V3

func (f timeEvalFunc) EvalAt(p vec.V3, t float64) vec.V3 { return f(p, t) }

// rk4 is a classical fixed-step fourth-order Runge–Kutta integrator, the
// convergence tests' baseline.
type rk4 struct{ H float64 }

func (r rk4) Step(f Evaluator, p vec.V3, t float64) (vec.V3, float64) {
	h := r.H
	k1 := f.Eval(p)
	k2 := f.Eval(p.Add(k1.Scale(h / 2)))
	k3 := f.Eval(p.Add(k2.Scale(h / 2)))
	k4 := f.Eval(p.Add(k3.Scale(h)))
	inc := k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6)
	return p.Add(inc), t + h
}

// euler is the first-order explicit Euler integrator, the other baseline.
type euler struct{ H float64 }

func (e euler) Step(f Evaluator, p vec.V3, t float64) (vec.V3, float64) {
	return p.Add(f.Eval(p).Scale(e.H)), t + e.H
}

// advectFor integrates until time T with no spatial bound.
func advectFor(s *DoPri5, f Evaluator, p0 vec.V3, T float64) AdvectResult {
	return s.Advect(f, p0, 0, AdvectLimits{Bounds: bigBox, MaxTime: T})
}

func TestDoPri5UniformFieldExact(t *testing.T) {
	f := field.Uniform{V: vec.Of(1, 2, 3), Box: bigBox}
	s := NewDoPri5(Options{Tol: 1e-8, HMax: 0.1})
	res := advectFor(s, f, vec.Of(0, 0, 0), 1)
	// Constant fields are integrated exactly; final time may slightly
	// overshoot T (stopping happens after the step crosses it), so compare
	// against the actual final time.
	want := vec.Of(1, 2, 3).Scale(res.T)
	if res.P.Dist(want) > 1e-9 {
		t.Errorf("P = %v at t=%g, want %v", res.P, res.T, want)
	}
	if res.Reason != StopMaxTime {
		t.Errorf("Reason = %v", res.Reason)
	}
}

func TestDoPri5RotationAccuracy(t *testing.T) {
	f := field.Rotation{Omega: 1, Box: bigBox}
	s := NewDoPri5(Options{Tol: 1e-9, HMax: 0.05})
	p0 := vec.Of(1, 0, 0)
	res := advectFor(s, f, p0, 2*math.Pi)
	want := f.Exact(p0, res.T)
	if d := res.P.Dist(want); d > 1e-6 {
		t.Errorf("after one revolution, error = %g", d)
	}
	// The radius is conserved by the exact flow.
	if r := res.P.Norm(); math.Abs(r-1) > 1e-6 {
		t.Errorf("radius drifted to %g", r)
	}
}

func TestDoPri5SaddleAccuracy(t *testing.T) {
	f := field.Saddle{Box: bigBox}
	s := NewDoPri5(Options{Tol: 1e-10, HMax: 0.05})
	p0 := vec.Of(0.5, 2, 0.25)
	res := advectFor(s, f, p0, 1.5)
	want := f.Exact(p0, res.T)
	if d := res.P.Dist(want); d > 1e-6 {
		t.Errorf("saddle error = %g (P=%v want %v)", d, res.P, want)
	}
}

func TestDoPri5ToleranceControlsError(t *testing.T) {
	f := field.Rotation{Omega: 1, Box: bigBox}
	p0 := vec.Of(1, 0, 0)
	errAt := func(tol float64) float64 {
		s := NewDoPri5(Options{Tol: tol})
		res := advectFor(s, f, p0, math.Pi)
		return res.P.Dist(f.Exact(p0, res.T))
	}
	loose := errAt(1e-4)
	tight := errAt(1e-9)
	if tight >= loose {
		t.Errorf("tightening tolerance did not reduce error: %g vs %g", tight, loose)
	}
	if tight > 1e-5 {
		t.Errorf("tight-tolerance error too large: %g", tight)
	}
}

func TestDoPri5AdaptiveUsesFewerStepsThanFixed(t *testing.T) {
	// On a smooth field the adaptive solver should take large steps where
	// it can: far fewer steps than a fixed step sized for the same
	// accuracy.
	f := field.Rotation{Omega: 1, Box: bigBox}
	s := NewDoPri5(Options{Tol: 1e-6})
	res := advectFor(s, f, vec.Of(1, 0, 0), 2*math.Pi)
	if res.Steps > 400 {
		t.Errorf("adaptive solver took %d steps for one revolution", res.Steps)
	}
	if res.Steps < 5 {
		t.Errorf("suspiciously few steps: %d", res.Steps)
	}
}

func TestDoPri5StopOutOfBlock(t *testing.T) {
	f := field.Uniform{V: vec.Of(1, 0, 0), Box: bigBox}
	s := NewDoPri5(Options{HMax: 0.01})
	blk := vec.Box(vec.Of(0, 0, 0), vec.Of(0.5, 1, 1))
	res := s.Advect(f, vec.Of(0.1, 0.5, 0.5), 0, AdvectLimits{Bounds: blk})
	if res.Reason != StopOutOfBlock {
		t.Fatalf("Reason = %v", res.Reason)
	}
	if res.P.X < 0.5 {
		t.Errorf("stopped inside the block at %v", res.P)
	}
	if res.P.X > 0.6 {
		t.Errorf("overshot block boundary badly: %v", res.P)
	}
}

func TestDoPri5StopMaxSteps(t *testing.T) {
	f := field.Rotation{Omega: 1, Box: bigBox}
	s := NewDoPri5(Options{})
	res := s.Advect(f, vec.Of(1, 0, 0), 0, AdvectLimits{Bounds: bigBox, MaxSteps: 7})
	if res.Reason != StopMaxSteps || res.Steps != 7 {
		t.Errorf("Reason=%v Steps=%d", res.Reason, res.Steps)
	}
	if len(res.Points) != 7 {
		t.Errorf("geometry has %d points, want 7", len(res.Points))
	}
}

func TestDoPri5StopCritical(t *testing.T) {
	// The saddle's stable manifold runs into the origin: seeding on the
	// y axis decays toward zero speed.
	f := field.Saddle{Box: bigBox}
	s := NewDoPri5(Options{MinSpeed: 1e-4, HMax: 0.5})
	res := s.Advect(f, vec.Of(0, 1, 0), 0, AdvectLimits{Bounds: bigBox, MaxSteps: 100000})
	if res.Reason != StopCritical {
		t.Fatalf("Reason = %v (P=%v)", res.Reason, res.P)
	}
	if res.P.Norm() > 1e-3 {
		t.Errorf("stopped far from critical point: %v", res.P)
	}
}

func TestDoPri5NonFiniteField(t *testing.T) {
	evil := evalFunc(func(p vec.V3) vec.V3 {
		if p.X > 0.5 {
			return vec.Of(math.NaN(), 0, 0)
		}
		return vec.Of(1, 0, 0)
	})
	s := NewDoPri5(Options{HMax: 0.05})
	res := s.Advect(evil, vec.Of(0, 0, 0), 0, AdvectLimits{Bounds: bigBox, MaxSteps: 1000})
	if res.Reason != StopError {
		t.Fatalf("Reason = %v", res.Reason)
	}
}

func TestDoPri5ResumeMatchesContinuous(t *testing.T) {
	// Suspending a solver mid-run (as happens when a streamline migrates
	// between processors) and resuming with the same state must produce
	// the same trajectory as running straight through.
	f := field.DefaultABC()
	p0 := vec.Of(1, 1, 1)

	whole := NewDoPri5(Options{Tol: 1e-7})
	resWhole := whole.Advect(f, p0, 0, AdvectLimits{Bounds: bigBox, MaxSteps: 200})

	s1 := NewDoPri5(Options{Tol: 1e-7})
	r1 := s1.Advect(f, p0, 0, AdvectLimits{Bounds: bigBox, MaxSteps: 120})
	s2 := NewDoPri5(Options{Tol: 1e-7})
	s2.H = s1.H // hand the solver state over
	r2 := s2.Advect(f, r1.P, r1.T, AdvectLimits{Bounds: bigBox, MaxSteps: 80})

	if d := r2.P.Dist(resWhole.P); d > 1e-12 {
		t.Errorf("resumed trajectory diverged by %g", d)
	}
	if math.Abs(r2.T-resWhole.T) > 1e-12 {
		t.Errorf("resumed time diverged: %g vs %g", r2.T, resWhole.T)
	}
}

func TestDoPri5GeometryContinuity(t *testing.T) {
	f := field.DefaultABC()
	s := NewDoPri5(Options{Tol: 1e-6})
	res := s.Advect(f, vec.Of(2, 2, 2), 0, AdvectLimits{Bounds: bigBox, MaxSteps: 300})
	prev := vec.Of(2, 2, 2)
	for i, p := range res.Points {
		if step := p.Dist(prev); step > 1.0 {
			t.Fatalf("geometry jump of %g at point %d", step, i)
		}
		prev = p
	}
}

func TestRK4FourthOrderConvergence(t *testing.T) {
	f := field.Rotation{Omega: 1, Box: bigBox}
	p0 := vec.Of(1, 0, 0)
	T := 1.0
	errAt := func(h float64) float64 {
		r := rk4{H: h}
		p, tm := p0, 0.0
		for tm < T-h/2 {
			p, tm = r.Step(f, p, tm)
		}
		return p.Dist(f.Exact(p0, tm))
	}
	e1 := errAt(0.1)
	e2 := errAt(0.05)
	order := math.Log2(e1 / e2)
	if order < 3.5 || order > 4.5 {
		t.Errorf("RK4 observed order %g (errors %g, %g)", order, e1, e2)
	}
}

func TestEulerFirstOrderConvergence(t *testing.T) {
	f := field.Rotation{Omega: 1, Box: bigBox}
	p0 := vec.Of(1, 0, 0)
	T := 1.0
	errAt := func(h float64) float64 {
		e := euler{H: h}
		p, tm := p0, 0.0
		for tm < T-h/2 {
			p, tm = e.Step(f, p, tm)
		}
		return p.Dist(f.Exact(p0, tm))
	}
	e1 := errAt(0.01)
	e2 := errAt(0.005)
	order := math.Log2(e1 / e2)
	if order < 0.7 || order > 1.3 {
		t.Errorf("Euler observed order %g (errors %g, %g)", order, e1, e2)
	}
}

func TestDoPri5BeatsEulerAtEqualWork(t *testing.T) {
	f := field.Rotation{Omega: 1, Box: bigBox}
	p0 := vec.Of(1, 0, 0)
	s := NewDoPri5(Options{Tol: 1e-8})
	res := advectFor(s, f, p0, math.Pi)
	dpErr := res.P.Dist(f.Exact(p0, res.T))
	// Give Euler the same number of field evaluations.
	h := math.Pi / float64(res.Evals)
	e := euler{H: h}
	p, tm := p0, 0.0
	for tm < math.Pi-h/2 {
		p, tm = e.Step(f, p, tm)
	}
	eulErr := p.Dist(f.Exact(p0, tm))
	if dpErr >= eulErr {
		t.Errorf("DoPri5 (%g) not better than Euler (%g) at equal work", dpErr, eulErr)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.defaults()
	if o.Tol <= 0 || o.HMin <= 0 || o.MinSpeed <= 0 {
		t.Errorf("Defaults left zero values: %+v", o)
	}
	// Explicit values survive.
	o = Options{Tol: 1e-3, HMin: 1e-4, MinSpeed: 1e-5}.defaults()
	if o.Tol != 1e-3 || o.HMin != 1e-4 || o.MinSpeed != 1e-5 {
		t.Errorf("Defaults clobbered explicit values: %+v", o)
	}
}

func TestStopReasonStrings(t *testing.T) {
	reasons := []StopReason{StopNone, StopOutOfBlock, StopMaxSteps, StopMaxTime, StopCritical, StopError, StopReason(99)}
	for _, r := range reasons {
		if r.String() == "" {
			t.Errorf("empty string for reason %d", int(r))
		}
	}
}

func TestPropEnergyConservationOnRotation(t *testing.T) {
	// Rotation preserves distance from the z axis; the adaptive solver
	// must track that within tolerance from random starts.
	f := field.Rotation{Omega: 2, Box: bigBox}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 50; i++ {
		p0 := vec.Of(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*2-1)
		r0 := math.Hypot(p0.X, p0.Y)
		if r0 < 0.1 {
			continue
		}
		s := NewDoPri5(Options{Tol: 1e-8})
		res := advectFor(s, f, p0, 3)
		r1 := math.Hypot(res.P.X, res.P.Y)
		if math.Abs(r1-r0) > 1e-4 {
			t.Fatalf("radius drift %g from %v", math.Abs(r1-r0), p0)
		}
	}
}

// TestAdvectTStopsOnLimits covers the non-autonomous loop's stop
// conditions: the absolute MaxTime horizon (with the final step clamped
// to land exactly on it) and the out-of-bounds exit.
func TestAdvectTStopsOnLimits(t *testing.T) {
	uniform := timeEvalFunc(func(vec.V3, float64) vec.V3 { return vec.Of(1, 0, 0) })
	s := NewDoPri5(Options{Tol: 1e-8, HMax: 0.1})
	res := s.AdvectT(uniform, vec.Of(0, 0, 0), 0, AdvectLimits{Bounds: bigBox, MaxTime: 1})
	if res.Reason != StopMaxTime || res.T != 1 {
		t.Errorf("reason %v at t=%g, want StopMaxTime at exactly 1", res.Reason, res.T)
	}

	s = NewDoPri5(Options{Tol: 1e-8, HMax: 0.1})
	tiny := vec.Box(vec.Of(-1, -1, -1), vec.Of(0.05, 1, 1))
	res = s.AdvectT(uniform, vec.Of(0, 0, 0), 0, AdvectLimits{Bounds: tiny, MaxSteps: 100})
	if res.Reason != StopOutOfBlock {
		t.Errorf("reason %v, want StopOutOfBlock", res.Reason)
	}
}

// TestAdvectTNonFiniteField covers the non-autonomous error exits: a
// field that goes NaN mid-trajectory must stop with StopError both at
// the first sample and inside a step.
func TestAdvectTNonFiniteField(t *testing.T) {
	evil := timeEvalFunc(func(p vec.V3, _ float64) vec.V3 {
		if p.X > 0.5 {
			return vec.Of(math.NaN(), 0, 0)
		}
		return vec.Of(1, 0, 0)
	})
	s := NewDoPri5(Options{Tol: 1e-8, HMax: 0.1})
	res := s.AdvectT(evil, vec.Of(0, 0, 0), 0, AdvectLimits{Bounds: bigBox, MaxSteps: 1000})
	if res.Reason != StopError {
		t.Errorf("reason %v, want StopError", res.Reason)
	}

	s = NewDoPri5(Options{Tol: 1e-8, HMax: 0.1})
	res = s.AdvectT(evil, vec.Of(1, 0, 0), 0, AdvectLimits{Bounds: bigBox, MaxSteps: 10})
	if res.Reason != StopError || res.Steps != 0 {
		t.Errorf("NaN seed: reason %v after %d steps, want immediate StopError", res.Reason, res.Steps)
	}
}

// TestAdvectTMinSpeed covers the critical-point exit of the
// non-autonomous loop.
func TestAdvectTMinSpeed(t *testing.T) {
	still := timeEvalFunc(func(vec.V3, float64) vec.V3 { return vec.Of(1e-15, 0, 0) })
	s := NewDoPri5(Options{Tol: 1e-8, HMax: 0.1, MinSpeed: 1e-9})
	res := s.AdvectT(still, vec.Of(0, 0, 0), 0, AdvectLimits{Bounds: bigBox, MaxSteps: 10})
	if res.Reason != StopCritical {
		t.Errorf("reason %v, want StopCritical", res.Reason)
	}
}

// TestAdvectTTimeDependentAccuracy verifies the non-autonomous solver
// samples stage times correctly: dx/dt = (t+0.5, 0, 0) has the exact
// solution x(T) = T²/2 + T/2, which a solver evaluating every stage at
// the step's start time would get wrong.
func TestAdvectTTimeDependentAccuracy(t *testing.T) {
	rhs := timeEvalFunc(func(_ vec.V3, t float64) vec.V3 { return vec.Of(t+0.5, 0, 0) })
	s := NewDoPri5(Options{Tol: 1e-9, HMax: 0.1})
	res := s.AdvectT(rhs, vec.Of(0, 0, 0), 0, AdvectLimits{Bounds: bigBox, MaxTime: 2})
	if want := 3.0; math.Abs(res.P.X-want) > 1e-7 { // T²/2 + T/2 at T=2
		t.Errorf("x(2) = %g, want %g", res.P.X, want)
	}
	if math.Abs(res.T-2) > 1e-12 {
		t.Errorf("landed at t=%g, want exactly 2", res.T)
	}
}
