package field

import (
	"math"

	"repro/internal/vec"
)

// This file contains the analytic stand-ins for the three application
// datasets of the paper (Section 3.2). Each is designed to reproduce the
// *computational* character the paper attributes to the real data:
//
//   - Supernova: sparse seeds wander through most of the domain (shock
//     expansion), dense seeds near the core stay localized (rotation).
//   - Tokamak: streamlines wind around the torus indefinitely, repeatedly
//     revisiting the same ring of blocks; a chaotic perturbation makes
//     some lines slowly fill the whole torus.
//   - ThermalHydraulics: twin inlet jets, a big recirculation zone and an
//     outlet; dense inlet seeding keeps all work in a few blocks.

// Supernova models the magnetic field around a collapsing stellar core: a
// differentially rotating core, radial expansion behind the supernova
// shock front, and solenoidal turbulence in between.
//
// Domain: [-1,1]^3, core at the origin.
type Supernova struct {
	CoreRadius  float64 // radius of the proto-neutron star region
	ShockRadius float64 // radius of the shock front
	RotStrength float64 // peak rotational speed
	ExpStrength float64 // peak radial expansion speed
	TurbAmp     float64 // turbulence amplitude
}

// DefaultSupernova returns the configuration used by the scaling studies.
func DefaultSupernova() Supernova {
	return Supernova{
		CoreRadius:  0.12,
		ShockRadius: 0.75,
		RotStrength: 1.0,
		ExpStrength: 0.6,
		TurbAmp:     0.25,
	}
}

// Bounds implements Field.
func (s Supernova) Bounds() vec.AABB {
	return vec.Box(vec.Of(-1, -1, -1), vec.Of(1, 1, 1))
}

// Name implements named.
func (s Supernova) Name() string { return "supernova" }

// Eval implements Field.
func (s Supernova) Eval(p vec.V3) vec.V3 {
	r := p.Norm()
	// Differential rotation about the z axis, strongest at the core
	// boundary and decaying slowly outward (1/r), so field lines seeded
	// near the core orbit it for many revolutions — the localization the
	// paper attributes to attracting structures (Section 3.1).
	rotMag := s.RotStrength
	switch {
	case r < s.CoreRadius:
		rotMag *= r / s.CoreRadius
	default:
		rotMag *= s.CoreRadius / r
	}
	rot := vec.V3{X: -p.Y, Y: p.X, Z: 0}
	if n := math.Hypot(p.X, p.Y); n > 1e-12 {
		rot = rot.Scale(rotMag / n)
	} else {
		rot = vec.V3{}
	}

	// Radial expansion ramping up (quadratically) toward the shock front
	// and dying beyond it, so field lines seeded mid-domain sweep
	// outward through many blocks while the core region stays rotation
	// dominated.
	expMag := 0.0
	if r > 2*s.CoreRadius {
		x := (r - 2*s.CoreRadius) / (s.ShockRadius - 2*s.CoreRadius)
		if x > 1 {
			x = math.Max(0, 2-x) // decays past the shock
		} else {
			x = x * x
		}
		expMag = s.ExpStrength * x
	}
	var rad vec.V3
	if r > 1e-12 {
		rad = p.Scale(expMag / r)
	}

	// Solenoidal turbulence: a few ABC-like modes, divergence free by
	// construction, active in the shell between core and shock.
	k1, k2 := 4.1, 6.3
	s1z, c1z := math.Sincos(k1 * p.Z)
	s2x, c2x := math.Sincos(k2 * p.X)
	turb := vec.V3{
		X: s1z + math.Cos(k2*p.Y),
		Y: s2x + c1z,
		Z: math.Sin(k1*p.Y) + c2x,
	}.Scale(s.TurbAmp * envelope(r, 3*s.CoreRadius, s.ShockRadius))

	return rot.Add(rad).Add(turb)
}

// envelope is a smooth bump that is ~1 between inner and outer and fades
// to 0 outside that shell.
func envelope(r, inner, outer float64) float64 {
	if r <= 0 {
		return 0
	}
	mid := (inner + outer) / 2
	half := (outer - inner) / 2
	x := (r - mid) / (half * 1.2)
	return math.Exp(-x * x)
}

// Tokamak models the magnetic field of a magnetically confined fusion
// device: a dominant toroidal component plus a poloidal winding, so field
// lines are helices that traverse the torus-shaped domain repeatedly. A
// small symmetry-breaking perturbation makes a fraction of the lines
// chaotic, slowly filling the whole torus (the paper calls this out as the
// interesting property of the NIMROD dataset).
//
// Domain: [-1,1] x [-1,1] x [-0.4,0.4]; torus centered on the z axis.
type Tokamak struct {
	MajorRadius float64 // distance from the z axis to the torus center line
	MinorRadius float64 // radius of the plasma cross-section
	B0          float64 // toroidal field strength at the magnetic axis
	Q           float64 // winding: poloidal turns per toroidal transit
	ChaosAmp    float64 // amplitude of the symmetry-breaking perturbation
}

// DefaultTokamak returns the configuration used by the scaling studies.
func DefaultTokamak() Tokamak {
	return Tokamak{
		MajorRadius: 0.6,
		MinorRadius: 0.28,
		B0:          1.0,
		Q:           0.35,
		ChaosAmp:    0.04,
	}
}

// Bounds implements Field.
func (t Tokamak) Bounds() vec.AABB {
	return vec.Box(vec.Of(-1, -1, -0.4), vec.Of(1, 1, 0.4))
}

// Name implements named.
func (t Tokamak) Name() string { return "tokamak" }

// Eval implements Field.
func (t Tokamak) Eval(p vec.V3) vec.V3 {
	rho := math.Hypot(p.X, p.Y)
	if rho < 1e-9 {
		// On the axis of symmetry the toroidal direction is undefined;
		// return a small vertical push so integration never stalls.
		return vec.V3{Z: t.B0 * 0.01}
	}
	// Unit toroidal direction.
	ephi := vec.V3{X: -p.Y / rho, Y: p.X / rho}
	// Poloidal plane coordinates relative to the magnetic axis.
	u := rho - t.MajorRadius
	w := p.Z
	// 1/R falloff of the toroidal field.
	btor := t.B0 * t.MajorRadius / rho
	// Poloidal rotation around the magnetic axis confines lines to nested
	// tori; the rate grows with minor radius (sheared q profile).
	rmin2 := u*u + w*w
	shear := 1 + 1.5*rmin2/(t.MinorRadius*t.MinorRadius)
	bpolU := -w * t.Q * shear
	bpolW := u * t.Q * shear
	// Map the poloidal (d rho, dz) components back to Cartesian.
	erho := vec.V3{X: p.X / rho, Y: p.Y / rho}
	v := ephi.Scale(btor).
		Add(erho.Scale(bpolU)).
		Add(vec.V3{Z: bpolW})
	// Symmetry-breaking island perturbation (drives the chaotic lines).
	if t.ChaosAmp != 0 {
		phi := math.Atan2(p.Y, p.X)
		s2p, c2p := math.Sincos(2 * phi)
		pert := t.ChaosAmp * s2p * math.Cos(3*math.Atan2(w, u))
		v = v.Add(erho.Scale(pert)).Add(vec.V3{Z: t.ChaosAmp * c2p})
	}
	return v
}

// InsideTorus reports whether p lies within the plasma cross-section; seed
// generators use it to place seeds in the confined region.
func (t Tokamak) InsideTorus(p vec.V3) bool {
	rho := math.Hypot(p.X, p.Y)
	u := rho - t.MajorRadius
	return u*u+p.Z*p.Z < t.MinorRadius*t.MinorRadius
}

// ThermalHydraulics models the twin-inlet mixing box of the Nek5000 case
// study: two jets enter through one wall, a large recirculation zone mixes
// them, and the flow leaves through an outlet in the upper corner.
//
// Domain: the unit box [0,1]^3. Inlets are on the x=0 wall, the outlet is
// near (1, 0.9, 0.9).
type ThermalHydraulics struct {
	InletA, InletB vec.V3  // inlet centers on the x=0 wall
	InletRadius    float64 // jet radius
	JetSpeed       float64 // peak inlet velocity
	Outlet         vec.V3  // outlet center
	RecircStrength float64 // strength of the box-scale recirculation
	TurbAmp        float64 // near-inlet turbulence amplitude
}

// DefaultThermalHydraulics returns the configuration used by the scaling
// studies; inlet A is the one the dense stream-surface seeding surrounds.
func DefaultThermalHydraulics() ThermalHydraulics {
	return ThermalHydraulics{
		// Inlet positions keep the dense seeding circle (radius 0.05,
		// see experiments.BuildProblem) inside a single block of both the
		// 4^3 and 8^3 decompositions — as in the paper, where the entire
		// 22,000-seed circle lands on one processor's block.
		InletA:         vec.Of(0, 0.43, 0.56),
		InletB:         vec.Of(0, 0.68, 0.56),
		InletRadius:    0.04,
		JetSpeed:       1.5,
		Outlet:         vec.Of(1, 0.9, 0.9),
		RecircStrength: 0.5,
		TurbAmp:        0.35,
	}
}

// Bounds implements Field.
func (t ThermalHydraulics) Bounds() vec.AABB {
	return vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1))
}

// Name implements named.
func (t ThermalHydraulics) Name() string { return "thermal" }

// Eval implements Field. Its helpers take pointer receivers, so an
// evaluation copies the struct once, not once per helper call.
func (t ThermalHydraulics) Eval(p vec.V3) vec.V3 {
	decay := t.jetDecay(p)
	return t.jet(p, t.InletA, decay).Add(t.jet(p, t.InletB, decay)).Add(t.ambient(p))
}

// ambient returns everything but the inlet jets — recirculation, outlet
// sink and near-inlet turbulence — so unsteady variants can re-weight
// the jets without duplicating the rest of the flow.
func (t *ThermalHydraulics) ambient(p vec.V3) vec.V3 {
	var v vec.V3

	// Box-scale recirculation: a vortex about an axis through the box
	// center, parallel to y, so fluid sweeps from the inlet wall along the
	// floor and back along the ceiling.
	c := vec.Of(0.5, 0.5, 0.5)
	d := p.Sub(c)
	recirc := vec.V3{X: d.Z, Z: -d.X}.Scale(t.RecircStrength)
	v = v.Add(recirc)

	// Outlet sink: draws flow toward the outlet corner within its basin.
	do := t.Outlet.Sub(p)
	r := do.Norm()
	if r > 1e-9 {
		sink := do.Scale(0.4 * math.Exp(-r*r/(2*0.3*0.3)) / r)
		v = v.Add(sink)
	}

	// Near-inlet turbulence (the paper's Figure 4 shows strong turbulence
	// in the flow leaving an inlet).
	ra := p.Sub(t.InletA).Norm()
	rb := p.Sub(t.InletB).Norm()
	near := math.Exp(-ra*ra/(2*0.2*0.2)) + math.Exp(-rb*rb/(2*0.2*0.2))
	if near > 1e-6 {
		k := 17.0
		sx, cx := math.Sincos(k * p.X)
		sy, cy := math.Sincos(k * p.Y)
		sz, cz := math.Sincos(k * p.Z)
		turb := vec.V3{
			X: sy * cz,
			Y: sz * cx,
			Z: sx * cy,
		}.Scale(t.TurbAmp * near)
		v = v.Add(turb)
	}
	return v
}

// jetDecay is the penetration-depth decay factor shared by both inlet
// jets — it depends only on p.X, so callers compute it once per
// evaluation and pass it to each jet.
func (t *ThermalHydraulics) jetDecay(p vec.V3) float64 {
	return math.Exp(-p.X / 0.6)
}

// jet returns the velocity contribution of one inlet jet: a Gaussian
// profile around the jet axis (+x from the inlet center), scaled by the
// shared penetration decay from jetDecay.
func (t *ThermalHydraulics) jet(p, inlet vec.V3, decay float64) vec.V3 {
	dy := p.Y - inlet.Y
	dz := p.Z - inlet.Z
	r2 := dy*dy + dz*dz
	sigma := t.InletRadius * (1 + 2*p.X) // the jet widens as it penetrates
	profile := math.Exp(-r2 / (2 * sigma * sigma))
	return vec.V3{X: t.JetSpeed * profile * decay}
}
