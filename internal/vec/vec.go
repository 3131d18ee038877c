// Package vec provides the small dense linear-algebra primitives used
// throughout the streamline engine: 3-component vectors and axis-aligned
// bounding boxes.
//
// Everything is value-typed and allocation free; these types sit on the
// innermost loops of the integrator, so all methods are written to be
// trivially inlinable.
package vec

import (
	"fmt"
	"math"
)

// V3 is a point or direction in R^3.
type V3 struct {
	X, Y, Z float64
}

// Of builds a V3 from components.
func Of(x, y, z float64) V3 { return V3{x, y, z} }

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v V3) Scale(s float64) V3 { return V3{s * v.X, s * v.Y, s * v.Z} }

// Mul returns the component-wise product of v and w.
func (v V3) Mul(w V3) V3 { return V3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Dot returns the inner product of v and w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v V3) Cross(w V3) V3 {
	return V3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v V3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v V3) Norm2() float64 { return v.Dot(v) }

// Normalized returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v V3) Normalized() V3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Dist returns the Euclidean distance between v and w.
func (v V3) Dist(w V3) float64 { return v.Sub(w).Norm() }

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v V3) Lerp(w V3, t float64) V3 {
	return V3{
		v.X + t*(w.X-v.X),
		v.Y + t*(w.Y-v.Y),
		v.Z + t*(w.Z-v.Z),
	}
}

// Abs returns the component-wise absolute value.
func (v V3) Abs() V3 { return V3{math.Abs(v.X), math.Abs(v.Y), math.Abs(v.Z)} }

// IsFinite reports whether all components are finite numbers. It is
// called after every field evaluation on the integrator's hot path, so
// it is written branch free: x−x is exactly +0 for every finite x
// (including ±0 and subnormals) and NaN for ±Inf and NaN, so the sum of
// the three residuals is 0 iff all components are finite.
func (v V3) IsFinite() bool {
	d := (v.X - v.X) + (v.Y - v.Y) + (v.Z - v.Z)
	return d == d
}

// String implements fmt.Stringer.
func (v V3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// Min returns the component-wise minimum of a and b.
func Min(a, b V3) V3 {
	return V3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)}
}

// Max returns the component-wise maximum of a and b.
func Max(a, b V3) V3 {
	return V3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)}
}

// AABB is an axis-aligned bounding box described by its two extreme
// corners. A box with any Min component strictly greater than the matching
// Max component is empty.
type AABB struct {
	Min, Max V3
}

// Box builds an AABB from two corner points, normalizing the order.
func Box(a, b V3) AABB { return AABB{Min(a, b), Max(a, b)} }

// Contains reports whether p lies inside the box (inclusive bounds).
func (b AABB) Contains(p V3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Size returns the box edge lengths.
func (b AABB) Size() V3 { return b.Max.Sub(b.Min) }

// Center returns the box center.
func (b AABB) Center() V3 { return b.Min.Add(b.Max).Scale(0.5) }

// Volume returns the box volume; empty boxes report 0.
func (b AABB) Volume() float64 {
	s := b.Size()
	if s.X < 0 || s.Y < 0 || s.Z < 0 {
		return 0
	}
	return s.X * s.Y * s.Z
}

// Expand grows the box by d on every face.
func (b AABB) Expand(d float64) AABB {
	e := V3{d, d, d}
	return AABB{b.Min.Sub(e), b.Max.Add(e)}
}

// Union returns the smallest box containing both b and c.
func (b AABB) Union(c AABB) AABB { return AABB{Min(b.Min, c.Min), Max(b.Max, c.Max)} }

// Intersect returns the overlap of b and c (possibly empty).
func (b AABB) Intersect(c AABB) AABB { return AABB{Max(b.Min, c.Min), Min(b.Max, c.Max)} }

// IsEmpty reports whether the box has no interior.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Clamp returns p moved to the nearest point inside the box.
func (b AABB) Clamp(p V3) V3 {
	return V3{
		clamp(p.X, b.Min.X, b.Max.X),
		clamp(p.Y, b.Min.Y, b.Max.Y),
		clamp(p.Z, b.Min.Z, b.Max.Z),
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// String implements fmt.Stringer.
func (b AABB) String() string { return fmt.Sprintf("[%v .. %v]", b.Min, b.Max) }
