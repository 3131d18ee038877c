package field

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func TestUniform(t *testing.T) {
	u := Uniform{V: vec.Of(1, 2, 3), Box: vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1))}
	if got := u.Eval(vec.Of(0.3, 0.9, 0.1)); got != vec.Of(1, 2, 3) {
		t.Errorf("Eval = %v", got)
	}
	if u.Bounds() != u.Box {
		t.Error("Bounds mismatch")
	}
}

func TestLinear(t *testing.T) {
	l := Linear{A: vec.Of(2, 3, -1), B: vec.Of(1, 0, 5)}
	got := l.Eval(vec.Of(1, 1, 1))
	want := vec.Of(3, 3, 4)
	if got != want {
		t.Errorf("Eval = %v, want %v", got, want)
	}
}

func TestRotationTangential(t *testing.T) {
	r := Rotation{Omega: 2}
	p := vec.Of(1, 0, 0)
	v := r.Eval(p)
	if v != vec.Of(0, 2, 0) {
		t.Errorf("Eval = %v", v)
	}
	// Velocity is always perpendicular to the radius in the XY plane.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := vec.Of(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
		v := r.Eval(p)
		radial := vec.Of(p.X, p.Y, 0)
		if math.Abs(v.Dot(radial)) > 1e-12 {
			t.Fatalf("rotation not tangential at %v", p)
		}
	}
}

func TestRotationExact(t *testing.T) {
	r := Rotation{Omega: 1}
	p0 := vec.Of(1, 0, 0.5)
	got := r.Exact(p0, math.Pi/2)
	want := vec.Of(0, 1, 0.5)
	if got.Dist(want) > 1e-12 {
		t.Errorf("Exact = %v, want %v", got, want)
	}
	// Full revolution returns to start.
	if d := r.Exact(p0, 2*math.Pi).Dist(p0); d > 1e-12 {
		t.Errorf("full revolution drift %g", d)
	}
}

func TestSaddleExact(t *testing.T) {
	s := Saddle{}
	p0 := vec.Of(0.1, 2, 1)
	got := s.Exact(p0, 1)
	want := vec.Of(0.1*math.E, 2/math.E, 1)
	if got.Dist(want) > 1e-12 {
		t.Errorf("Exact = %v, want %v", got, want)
	}
}

// divergence numerically estimates div v at p via central differences.
func divergence(f Field, p vec.V3, h float64) float64 {
	dx := (f.Eval(p.Add(vec.Of(h, 0, 0))).X - f.Eval(p.Sub(vec.Of(h, 0, 0))).X) / (2 * h)
	dy := (f.Eval(p.Add(vec.Of(0, h, 0))).Y - f.Eval(p.Sub(vec.Of(0, h, 0))).Y) / (2 * h)
	dz := (f.Eval(p.Add(vec.Of(0, 0, h))).Z - f.Eval(p.Sub(vec.Of(0, 0, h))).Z) / (2 * h)
	return dx + dy + dz
}

func TestABCDivergenceFree(t *testing.T) {
	f := DefaultABC()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		p := vec.Of(rng.Float64()*6, rng.Float64()*6, rng.Float64()*6)
		if d := divergence(f, p, 1e-5); math.Abs(d) > 1e-6 {
			t.Fatalf("ABC divergence %g at %v", d, p)
		}
	}
}

func TestScaled(t *testing.T) {
	base := Uniform{V: vec.Of(1, 0, 0), Box: vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1))}
	s := Scaled{F: base, S: 3}
	if got := s.Eval(vec.V3{}); got != vec.Of(3, 0, 0) {
		t.Errorf("Scaled Eval = %v", got)
	}
	if s.Bounds() != base.Box {
		t.Error("Scaled Bounds mismatch")
	}
	if s.Name() != "uniform" {
		t.Errorf("Scaled Name = %q", s.Name())
	}
}

func TestSupernovaStructure(t *testing.T) {
	s := DefaultSupernova()
	b := s.Bounds()
	if !b.Contains(vec.Of(0, 0, 0)) {
		t.Fatal("bounds must contain the core")
	}
	// Field is finite everywhere in the domain, including the origin.
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		p := b.Min.Lerp(b.Max, rng.Float64())
		p.Y = b.Min.Y + rng.Float64()*b.Size().Y
		p.Z = b.Min.Z + rng.Float64()*b.Size().Z
		if v := s.Eval(p); !v.IsFinite() {
			t.Fatalf("non-finite field at %v: %v", p, v)
		}
	}
	if v := s.Eval(vec.V3{}); !v.IsFinite() {
		t.Fatalf("non-finite at origin: %v", v)
	}

	// Near the core rotation dominates: velocity mostly tangential.
	p := vec.Of(s.CoreRadius, 0, 0)
	v := s.Eval(p)
	if math.Abs(v.Y) < math.Abs(v.X) {
		t.Errorf("expected tangential dominance at core edge, got %v", v)
	}

	// Mid-shell has a meaningful radial (expansion) component.
	p = vec.Of(0.45, 0, 0)
	v = s.Eval(p)
	if v.X <= 0 {
		t.Errorf("expected outward expansion at %v, got %v", p, v)
	}
}

func TestTokamakConfinement(t *testing.T) {
	tok := DefaultTokamak()
	if !tok.InsideTorus(vec.Of(tok.MajorRadius, 0, 0)) {
		t.Fatal("magnetic axis must be inside torus")
	}
	if tok.InsideTorus(vec.Of(0, 0, 0)) {
		t.Fatal("origin must be outside torus")
	}
	// On the magnetic axis the field is purely toroidal (up to the small
	// chaos term).
	p := vec.Of(tok.MajorRadius, 0, 0)
	v := tok.Eval(p)
	if math.Abs(v.Y) < 0.5*tok.B0 {
		t.Errorf("toroidal component too small on axis: %v", v)
	}
	// Field never vanishes inside the torus (lines keep moving).
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		theta := rng.Float64() * 2 * math.Pi
		phi := rng.Float64() * 2 * math.Pi
		rr := rng.Float64() * tok.MinorRadius * 0.95
		rho := tok.MajorRadius + rr*math.Cos(theta)
		p := vec.Of(rho*math.Cos(phi), rho*math.Sin(phi), rr*math.Sin(theta))
		if v := tok.Eval(p); v.Norm() < 0.1 {
			t.Fatalf("field nearly vanishes at %v: %v", p, v)
		}
	}
	if v := tok.Eval(vec.Of(0, 0, 0.1)); !v.IsFinite() {
		t.Fatalf("non-finite on symmetry axis: %v", v)
	}
}

func TestTokamakToroidalCirculation(t *testing.T) {
	tok := DefaultTokamak()
	// At several toroidal angles, velocity keeps a consistent sign of
	// circulation (lines go around the torus, not back and forth).
	for i := 0; i < 16; i++ {
		phi := float64(i) / 16 * 2 * math.Pi
		p := vec.Of(tok.MajorRadius*math.Cos(phi), tok.MajorRadius*math.Sin(phi), 0)
		v := tok.Eval(p)
		ephi := vec.Of(-math.Sin(phi), math.Cos(phi), 0)
		if v.Dot(ephi) <= 0 {
			t.Fatalf("no forward toroidal circulation at phi=%g: %v", phi, v)
		}
	}
}

func TestThermalInletJet(t *testing.T) {
	th := DefaultThermalHydraulics()
	// Straight in front of inlet A the flow moves strongly in +x.
	p := th.InletA.Add(vec.Of(0.05, 0, 0))
	v := th.Eval(p)
	if v.X < 0.5 {
		t.Errorf("weak jet at inlet A: %v", v)
	}
	// Far from both inlets the jet contribution is negligible: speed well
	// below jet speed.
	far := vec.Of(0.9, 0.1, 0.1)
	if s := th.Eval(far).Norm(); s > th.JetSpeed {
		t.Errorf("excess speed far from inlets: %g", s)
	}
}

func TestThermalFiniteEverywhere(t *testing.T) {
	th := DefaultThermalHydraulics()
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 1000; i++ {
		p := vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
		if v := th.Eval(p); !v.IsFinite() {
			t.Fatalf("non-finite at %v: %v", p, v)
		}
	}
	// Outlet center itself must be finite (sink has a removable
	// singularity guard).
	if v := th.Eval(th.Outlet); !v.IsFinite() {
		t.Fatalf("non-finite at outlet: %v", v)
	}
}

func TestDatasetNames(t *testing.T) {
	cases := []struct {
		f    named
		want string
	}{
		{DefaultSupernova(), "supernova"},
		{DefaultTokamak(), "tokamak"},
		{DefaultThermalHydraulics(), "thermal"},
		{DefaultABC(), "abc"},
	}
	for _, c := range cases {
		if c.f.Name() != c.want {
			t.Errorf("Name = %q, want %q", c.f.Name(), c.want)
		}
	}
}

func TestBoundsNonEmpty(t *testing.T) {
	fields := []Field{
		DefaultSupernova(), DefaultTokamak(), DefaultThermalHydraulics(),
		DefaultABC(),
	}
	for _, f := range fields {
		if f.Bounds().Volume() <= 0 {
			t.Errorf("%T has empty bounds", f)
		}
	}
}
