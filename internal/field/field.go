// Package field defines the stationary vector fields that streamlines are
// computed in.
//
// The paper's evaluation uses three simulation datasets (a GenASiS
// supernova magnetic field, a NIMROD tokamak field, and a Nek5000 thermal
// hydraulics flow). Those datasets are not available, so this package
// provides analytic stand-ins with the same qualitative structure (see
// DESIGN.md §2), plus a set of elementary fields with known closed-form
// streamlines that the integrator and interpolation tests are validated
// against.
package field

import (
	"math"

	"repro/internal/vec"
)

// Field is a stationary vector field v(x) over a bounded domain.
//
// Implementations must be safe for concurrent use; all provided fields are
// pure functions of position.
type Field interface {
	// Eval returns the field value at p. Outside Bounds() the result is
	// implementation defined; callers are expected to stay inside.
	Eval(p vec.V3) vec.V3
	// Bounds returns the domain of definition.
	Bounds() vec.AABB
}

// named is implemented by fields that carry a human-readable name, used in
// reports and rendered figures.
type named interface {
	Name() string
}

// --- elementary fields (test substrates) ---

// Uniform is a constant field: v(x) = V everywhere.
type Uniform struct {
	V   vec.V3
	Box vec.AABB
}

// Eval implements Field.
func (u Uniform) Eval(vec.V3) vec.V3 { return u.V }

// Bounds implements Field.
func (u Uniform) Bounds() vec.AABB { return u.Box }

// Name implements named.
func (u Uniform) Name() string { return "uniform" }

// Linear is an affine field v(x) = A·x + B with diagonal A. Trilinear
// interpolation reproduces it exactly, which makes it the reference field
// for grid-sampling tests.
type Linear struct {
	A   vec.V3 // diagonal of the matrix
	B   vec.V3
	Box vec.AABB
}

// Eval implements Field.
func (l Linear) Eval(p vec.V3) vec.V3 { return l.A.Mul(p).Add(l.B) }

// Bounds implements Field.
func (l Linear) Bounds() vec.AABB { return l.Box }

// Name implements named.
func (l Linear) Name() string { return "linear" }

// Rotation is rigid rotation about the Z axis with angular velocity Omega:
// v(x) = Omega × x. Streamlines are circles; the exact solution is
// x(t) = R(Omega·t)·x0, which integrator convergence tests exploit.
type Rotation struct {
	Omega float64
	Box   vec.AABB
}

// Eval implements Field.
func (r Rotation) Eval(p vec.V3) vec.V3 {
	return vec.V3{X: -r.Omega * p.Y, Y: r.Omega * p.X, Z: 0}
}

// Bounds implements Field.
func (r Rotation) Bounds() vec.AABB { return r.Box }

// Name implements named.
func (r Rotation) Name() string { return "rotation" }

// Exact returns the closed-form streamline point after time t starting
// from p0.
func (r Rotation) Exact(p0 vec.V3, t float64) vec.V3 {
	c, s := math.Cos(r.Omega*t), math.Sin(r.Omega*t)
	return vec.V3{X: c*p0.X - s*p0.Y, Y: s*p0.X + c*p0.Y, Z: p0.Z}
}

// Saddle is the linear saddle v = (x, -y, 0); it has a critical point at
// the origin and exact solution x(t) = (x0·e^t, y0·e^(-t), z0).
type Saddle struct {
	Box vec.AABB
}

// Eval implements Field.
func (s Saddle) Eval(p vec.V3) vec.V3 { return vec.V3{X: p.X, Y: -p.Y, Z: 0} }

// Bounds implements Field.
func (s Saddle) Bounds() vec.AABB { return s.Box }

// Name implements named.
func (s Saddle) Name() string { return "saddle" }

// Exact returns the closed-form solution after time t from p0.
func (s Saddle) Exact(p0 vec.V3, t float64) vec.V3 {
	return vec.V3{X: p0.X * math.Exp(t), Y: p0.Y * math.Exp(-t), Z: p0.Z}
}

// ABC is the Arnold–Beltrami–Childress flow, a classic chaotic
// incompressible field used to stress integrators:
//
//	v = (A sin z + C cos y, B sin x + A cos z, C sin y + B cos x)
type ABC struct {
	A, B, C float64
	Box     vec.AABB
}

// Eval implements Field.
func (f ABC) Eval(p vec.V3) vec.V3 {
	return vec.V3{
		X: f.A*math.Sin(p.Z) + f.C*math.Cos(p.Y),
		Y: f.B*math.Sin(p.X) + f.A*math.Cos(p.Z),
		Z: f.C*math.Sin(p.Y) + f.B*math.Cos(p.X),
	}
}

// Bounds implements Field.
func (f ABC) Bounds() vec.AABB { return f.Box }

// Name implements named.
func (f ABC) Name() string { return "abc" }

// DefaultABC returns the standard A=1, B=sqrt(2/3), C=sqrt(1/3) ABC flow on
// a [0,2π]^3 box.
func DefaultABC() ABC {
	tau := 2 * math.Pi
	return ABC{
		A:   1,
		B:   math.Sqrt(2.0 / 3.0),
		C:   math.Sqrt(1.0 / 3.0),
		Box: vec.Box(vec.Of(0, 0, 0), vec.Of(tau, tau, tau)),
	}
}

// Scaled wraps a field and multiplies its output by S; it is used to match
// velocity magnitudes between datasets so integration step counts are
// comparable.
type Scaled struct {
	F Field
	S float64
}

// Eval implements Field.
func (s Scaled) Eval(p vec.V3) vec.V3 { return s.F.Eval(p).Scale(s.S) }

// Bounds implements Field.
func (s Scaled) Bounds() vec.AABB { return s.F.Bounds() }

// Name implements named.
func (s Scaled) Name() string {
	if n, ok := s.F.(named); ok {
		return n.Name()
	}
	return "scaled"
}
