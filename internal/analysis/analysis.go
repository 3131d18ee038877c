// Package analysis implements the downstream analyses the paper motivates
// streamline computation with (Section 2.1): Poincaré puncture plots (the
// fusion community's standard view of field-line topology, called out in
// Section 8) and Lagrangian analysis via finite-time Lyapunov exponents
// (FTLE, the "many thousands to millions of streamlines" workload).
package analysis

import (
	"math"

	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/trace"
	"repro/internal/vec"
)

// Plane is an oriented plane through Point with unit Normal.
type Plane struct {
	Point  vec.V3
	Normal vec.V3
}

// signedDist returns the signed distance of p from the plane.
func (pl Plane) signedDist(p vec.V3) float64 {
	return p.Sub(pl.Point).Dot(pl.Normal)
}

// Puncture is one crossing of a streamline through a section plane.
type Puncture struct {
	StreamlineID int
	P            vec.V3 // crossing point (linear interpolation on the segment)
	Index        int    // geometry segment index of the crossing
	Forward      bool   // true when crossing along the plane normal
}

// Punctures computes the Poincaré puncture points of the streamlines
// through the section plane. Crossings are detected per geometry segment
// and located by linear interpolation; direction follows the sign change.
func Punctures(sls []*trace.Streamline, plane Plane) []Puncture {
	n := plane.Normal.Normalized()
	pl := Plane{Point: plane.Point, Normal: n}
	var out []Puncture
	for _, sl := range sls {
		prev := 0.0
		for i, p := range sl.Points {
			d := pl.signedDist(p)
			if i > 0 && d*prev < 0 {
				t := prev / (prev - d)
				out = append(out, Puncture{
					StreamlineID: sl.ID,
					P:            sl.Points[i-1].Lerp(p, t),
					Index:        i - 1,
					Forward:      d > 0,
				})
			}
			if d != 0 {
				prev = d
			}
		}
	}
	return out
}

// FTLEOptions configures a finite-time Lyapunov exponent computation.
type FTLEOptions struct {
	// T is the advection horizon (integration time).
	T float64
	// H is the finite-difference offset between neighboring particles.
	H float64
	// IntOpts configures the underlying solver.
	IntOpts integrate.Options
	// MaxSteps bounds each particle trajectory (0 = 10000).
	MaxSteps int
}

// FTLEField is a scalar field of FTLE values sampled on a regular grid.
type FTLEField struct {
	Bounds     vec.AABB
	NX, NY, NZ int
	Values     []float64 // x-fastest layout
}

// At returns the FTLE value at grid node (i, j, k).
func (f *FTLEField) At(i, j, k int) float64 {
	return f.Values[(k*f.NY+j)*f.NX+i]
}

// MinMax returns the value range, ignoring NaNs.
func (f *FTLEField) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range f.Values {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return
}

// flowMap advects a single particle for time T and returns its final
// position.
func flowMap(ev grid.Evaluator, p vec.V3, opts FTLEOptions) vec.V3 {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 10000
	}
	s := integrate.NewDoPri5(opts.IntOpts)
	res := s.Advect(ev, p, 0, integrate.AdvectLimits{
		Bounds:   vec.Box(vec.Of(-1e18, -1e18, -1e18), vec.Of(1e18, 1e18, 1e18)),
		MaxSteps: maxSteps,
		MaxTime:  opts.T,
	})
	return res.P
}

// FTLE computes the finite-time Lyapunov exponent on an nx×ny×nz sample
// grid over box: for each sample, six offset particles are advected for
// time T and the largest singular value of the flow-map gradient gives
// the exponential separation rate — ridges of this field are the
// Lagrangian coherent structures of Section 2.1.
func FTLE(ev grid.Evaluator, box vec.AABB, nx, ny, nz int, opts FTLEOptions) *FTLEField {
	if opts.T == 0 {
		opts.T = 1
	}
	if opts.H == 0 {
		opts.H = box.Size().MinComponent() / float64(maxInt3(nx, ny, nz)) / 2
	}
	f := &FTLEField{Bounds: box, NX: nx, NY: ny, NZ: nz, Values: make([]float64, nx*ny*nz)}
	size := box.Size()
	h := opts.H
	at := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				frac := func(idx, n int) float64 {
					if n == 1 {
						return 0.5
					}
					return float64(idx) / float64(n-1)
				}
				p := box.Min.Add(size.Mul(vec.Of(frac(i, nx), frac(j, ny), frac(k, nz))))
				// Flow-map gradient by central differences.
				var grad [3]vec.V3 // columns: d(flow)/dx, /dy, /dz
				offs := [3]vec.V3{{X: h}, {Y: h}, {Z: h}}
				for c, o := range offs {
					fp := flowMap(ev, p.Add(o), opts)
					fm := flowMap(ev, p.Sub(o), opts)
					grad[c] = fp.Sub(fm).Scale(1 / (2 * h))
				}
				// Cauchy–Green tensor C = J^T J; its largest eigenvalue
				// lambda gives FTLE = ln(sqrt(lambda)) / |T|.
				lambda := largestEigCauchyGreen(grad)
				if lambda <= 0 {
					f.Values[at] = math.NaN()
				} else {
					f.Values[at] = math.Log(math.Sqrt(lambda)) / math.Abs(opts.T)
				}
				at++
			}
		}
	}
	return f
}

// largestEigCauchyGreen computes the largest eigenvalue of J^T J where
// J's columns are the given gradient vectors, via power iteration (the
// matrix is symmetric positive semi-definite).
func largestEigCauchyGreen(cols [3]vec.V3) float64 {
	// C[i][j] = cols[i] . cols[j]
	var c [3][3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			c[i][j] = cols[i].Dot(cols[j])
		}
	}
	v := [3]float64{1, 0.7, 0.4}
	lambda := 0.0
	for iter := 0; iter < 100; iter++ {
		var w [3]float64
		for i := 0; i < 3; i++ {
			w[i] = c[i][0]*v[0] + c[i][1]*v[1] + c[i][2]*v[2]
		}
		n := math.Sqrt(w[0]*w[0] + w[1]*w[1] + w[2]*w[2])
		if n == 0 {
			return 0
		}
		next := n
		for i := 0; i < 3; i++ {
			v[i] = w[i] / n
		}
		if math.Abs(next-lambda) < 1e-12*math.Max(1, next) {
			return next
		}
		lambda = next
	}
	return lambda
}

func maxInt3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
