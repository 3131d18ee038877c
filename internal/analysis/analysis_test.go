package analysis

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/integrate"
	"repro/internal/trace"
	"repro/internal/vec"
)

func lineOf(id int, pts ...vec.V3) *trace.Streamline {
	sl := trace.New(id, pts[0], 0)
	sl.Append(pts[1:])
	return sl
}

func TestPuncturesStraightLine(t *testing.T) {
	// A straight segment crossing the z=0 plane once.
	sl := lineOf(7, vec.Of(0, 0, -1), vec.Of(0, 0, 1))
	pl := Plane{Point: vec.Of(0, 0, 0), Normal: vec.Of(0, 0, 1)}
	ps := Punctures([]*trace.Streamline{sl}, pl)
	if len(ps) != 1 {
		t.Fatalf("punctures = %d, want 1", len(ps))
	}
	if ps[0].P.Dist(vec.Of(0, 0, 0)) > 1e-12 {
		t.Errorf("crossing at %v", ps[0].P)
	}
	if !ps[0].Forward || ps[0].StreamlineID != 7 {
		t.Errorf("puncture = %+v", ps[0])
	}
}

func TestPuncturesDirection(t *testing.T) {
	// Down-going crossing is backward.
	sl := lineOf(0, vec.Of(0, 0, 1), vec.Of(0, 0, -1))
	pl := Plane{Point: vec.Of(0, 0, 0), Normal: vec.Of(0, 0, 1)}
	ps := Punctures([]*trace.Streamline{sl}, pl)
	if len(ps) != 1 || ps[0].Forward {
		t.Fatalf("punctures = %+v", ps)
	}
}

func TestPuncturesNoCrossing(t *testing.T) {
	sl := lineOf(0, vec.Of(0, 0, 1), vec.Of(1, 0, 2), vec.Of(2, 0, 0.5))
	pl := Plane{Point: vec.Of(0, 0, 0), Normal: vec.Of(0, 0, 1)}
	if ps := Punctures([]*trace.Streamline{sl}, pl); len(ps) != 0 {
		t.Errorf("punctures = %+v", ps)
	}
}

func TestPuncturesRotationCircle(t *testing.T) {
	// A circular streamline in the rotation field crosses the y=0
	// half-plane's full plane twice per revolution.
	f := field.Rotation{Omega: 1}
	s := integrate.NewDoPri5(integrate.Options{Tol: 1e-8, HMax: 0.05})
	res := s.Advect(f, vec.Of(1, 0, 0), 0, integrate.AdvectLimits{
		Bounds:  vec.Box(vec.Of(-2, -2, -2), vec.Of(2, 2, 2)),
		MaxTime: 4 * math.Pi, // two revolutions
	})
	sl := trace.New(0, vec.Of(1, 0, 0), 0)
	sl.Append(res.Points)
	pl := Plane{Point: vec.Of(0, 0, 0), Normal: vec.Of(0, 1, 0)}
	ps := Punctures([]*trace.Streamline{sl}, pl)
	if len(ps) != 4 {
		t.Fatalf("punctures = %d, want 4 (2 per revolution)", len(ps))
	}
	for _, p := range ps {
		// Crossings of the unit circle through y=0 happen at x = ±1.
		if math.Abs(math.Abs(p.P.X)-1) > 1e-3 {
			t.Errorf("crossing at %v, want |x|=1", p.P)
		}
	}
}

func TestTokamakPuncturesStayInTorus(t *testing.T) {
	// Field-line punctures of a poloidal section must fall inside the
	// plasma cross-section: the invariant-torus structure of the field.
	tok := field.DefaultTokamak()
	s := integrate.NewDoPri5(integrate.Options{Tol: 1e-7, HMax: 0.02})
	start := vec.Of(tok.MajorRadius+0.1, 0, 0)
	res := s.Advect(tok, start, 0, integrate.AdvectLimits{
		Bounds:   tok.Bounds(),
		MaxSteps: 20000,
	})
	sl := trace.New(0, start, 0)
	sl.Append(res.Points)
	pl := Plane{Point: vec.Of(0, 0, 0), Normal: vec.Of(0, 1, 0)}
	ps := Punctures([]*trace.Streamline{sl}, pl)
	if len(ps) < 4 {
		t.Fatalf("only %d punctures; line did not wind", len(ps))
	}
	for _, p := range ps {
		if !tok.InsideTorus(p.P) {
			t.Errorf("puncture %v escaped the torus", p.P)
		}
	}
}

func TestFTLEUniformFieldIsZero(t *testing.T) {
	// A uniform field has zero separation: FTLE ~ 0 everywhere.
	f := field.Uniform{V: vec.Of(1, 0, 0), Box: vec.Box(vec.Of(-10, -10, -10), vec.Of(10, 10, 10))}
	box := vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1))
	ftle := FTLE(f, box, 3, 3, 3, FTLEOptions{T: 1, IntOpts: integrate.Options{Tol: 1e-8}})
	for i, v := range ftle.Values {
		if math.IsNaN(v) || math.Abs(v) > 1e-3 {
			t.Fatalf("FTLE[%d] = %g, want ~0", i, v)
		}
	}
}

func TestFTLESaddleMatchesTheory(t *testing.T) {
	// The saddle v = (x, -y, 0) separates exponentially at rate 1:
	// FTLE = 1 everywhere, independent of T.
	f := field.Saddle{Box: vec.Box(vec.Of(-100, -100, -100), vec.Of(100, 100, 100))}
	box := vec.Box(vec.Of(-0.5, -0.5, -0.1), vec.Of(0.5, 0.5, 0.1))
	ftle := FTLE(f, box, 3, 3, 2, FTLEOptions{T: 2, H: 1e-4, IntOpts: integrate.Options{Tol: 1e-9}})
	for i, v := range ftle.Values {
		if math.Abs(v-1) > 0.05 {
			t.Fatalf("FTLE[%d] = %g, want 1 (saddle stretching rate)", i, v)
		}
	}
	lo, hi := ftle.MinMax()
	if lo < 0.9 || hi > 1.1 {
		t.Errorf("range [%g, %g], want ~[1,1]", lo, hi)
	}
}

func TestFTLERotationIsNonChaotic(t *testing.T) {
	// Rigid rotation preserves distances: FTLE ~ 0.
	f := field.Rotation{Omega: 2, Box: vec.Box(vec.Of(-10, -10, -10), vec.Of(10, 10, 10))}
	box := vec.Box(vec.Of(0.2, 0.2, -0.1), vec.Of(0.8, 0.8, 0.1))
	ftle := FTLE(f, box, 3, 3, 1, FTLEOptions{T: 3, H: 1e-4, IntOpts: integrate.Options{Tol: 1e-9}})
	for i, v := range ftle.Values {
		if math.Abs(v) > 0.02 {
			t.Fatalf("FTLE[%d] = %g, want ~0 for rigid rotation", i, v)
		}
	}
}

func TestFTLEFieldIndexing(t *testing.T) {
	f := &FTLEField{NX: 2, NY: 3, NZ: 2, Values: make([]float64, 12)}
	f.Values[(1*3+2)*2+1] = 42 // (i=1, j=2, k=1)
	if f.At(1, 2, 1) != 42 {
		t.Error("At indexing wrong")
	}
}
