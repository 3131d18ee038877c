package integrate

import (
	"testing"

	"repro/internal/field"
	"repro/internal/vec"
)

// TestAdvectAllocFreeWithBuffer is the allocation regression gate for the
// advect inner loop: with a caller-supplied geometry buffer (the way
// core's workers call it), a steady-state advection must not allocate at
// all — every step runs on the stack plus the reused buffer. It holds at
// a concrete field type and at the two interface instantiations the
// campaign runs: an Evaluator for a steady segment, a TimeEvaluator for
// an unsteady one.
func TestAdvectAllocFreeWithBuffer(t *testing.T) {
	thermal := field.DefaultThermalHydraulics()
	var steadyField Evaluator = thermal
	var unsteadyField TimeEvaluator = field.DefaultSwitchingThermal()
	seed := vec.Of(0.05, 0.43, 0.56)
	for _, tc := range []struct {
		name   string
		advect func(*DoPri5, AdvectLimits) AdvectResult
	}{
		{"concrete", func(s *DoPri5, lim AdvectLimits) AdvectResult { return AdvectWith(s, thermal, seed, 0, lim) }},
		{"Evaluator", func(s *DoPri5, lim AdvectLimits) AdvectResult { return AdvectWith(s, steadyField, seed, 0, lim) }},
		{"TimeEvaluator", func(s *DoPri5, lim AdvectLimits) AdvectResult {
			lim.MaxTime = 2.5
			return AdvectTWith(s, unsteadyField, seed, 0.1, lim)
		}},
	} {
		s := NewDoPri5(Options{Tol: 1e-6, HMax: 0.01})
		lim := AdvectLimits{Bounds: thermal.Bounds(), MaxSteps: 64}
		run := func() {
			s.H = 0
			res := tc.advect(s, lim)
			if res.Steps == 0 {
				t.Fatalf("%s: advection made no progress", tc.name)
			}
			lim.Buf = res.Points[:0]
		}
		run() // size the buffer once
		if n := testing.AllocsPerRun(50, run); n > 0 {
			t.Errorf("%s: advect allocates %.2f times per call with a reused buffer, want 0", tc.name, n)
		}
	}
}

// TestStepAllocFree gates a single step the same way: a fresh solver's
// first adaptive step — initial step size, six stages, the controller —
// through the generic instantiation must not allocate.
func TestStepAllocFree(t *testing.T) {
	f := field.DefaultSupernova()
	s := NewDoPri5(Options{Tol: 1e-6, HMax: 0.01})
	lim := AdvectLimits{Bounds: f.Bounds(), MaxSteps: 1, Buf: make([]vec.V3, 0, 1)}
	p := vec.Of(0.3, 0.1, 0.05)
	run := func() {
		s.H = 0
		if res := AdvectWith(s, f, p, 0, lim); res.Steps != 1 {
			t.Fatalf("took %d steps, stopped on %v", res.Steps, res.Reason)
		}
	}
	run()
	if n := testing.AllocsPerRun(50, run); n > 0 {
		t.Errorf("one step allocates %.2f times, want 0", n)
	}
}
