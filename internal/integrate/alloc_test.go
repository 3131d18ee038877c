package integrate

import (
	"testing"

	"repro/internal/field"
	"repro/internal/vec"
)

// TestAdvectAllocFreeWithBuffer is the allocation regression gate for the
// advect inner loop: with a caller-supplied geometry buffer (the way
// core's workers call it), a steady-state advection must not allocate at
// all — every step runs on the stack plus the reused buffer.
func TestAdvectAllocFreeWithBuffer(t *testing.T) {
	f := field.DefaultThermalHydraulics()
	s := NewDoPri5(Options{Tol: 1e-6, HMax: 0.01})
	lim := AdvectLimits{Bounds: f.Bounds(), MaxSteps: 64}
	var buf []vec.V3
	seed := vec.Of(0.05, 0.43, 0.56)
	run := func() {
		s.H = 0
		lim.Buf = buf
		res := AdvectWith(s, f, seed, 0, lim)
		if res.Steps == 0 {
			t.Fatal("advection made no progress")
		}
		buf = res.Points[:0]
	}
	run() // size the buffer once
	if n := testing.AllocsPerRun(50, run); n > 0 {
		t.Errorf("AdvectWith allocates %.2f times per call with a reused buffer, want 0", n)
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
