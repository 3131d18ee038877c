package field

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// unsteadyVariants lists the three time-varying dataset stand-ins.
func unsteadyVariants() []FieldT {
	return []FieldT{
		DefaultPulsingSupernova(),
		DefaultSawtoothTokamak(),
		DefaultSwitchingThermal(),
	}
}

func TestUnsteadyFieldsFiniteOverSpaceTime(t *testing.T) {
	for _, f := range unsteadyVariants() {
		name := f.(named).Name()
		b := f.Bounds()
		t0, t1 := f.TimeRange()
		if !(t1 > t0) {
			t.Errorf("%s: empty time range [%g, %g]", name, t0, t1)
		}
		n := 6
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				for k := 0; k <= n; k++ {
					p := vec.Of(
						b.Min.X+(b.Max.X-b.Min.X)*float64(i)/float64(n),
						b.Min.Y+(b.Max.Y-b.Min.Y)*float64(j)/float64(n),
						b.Min.Z+(b.Max.Z-b.Min.Z)*float64(k)/float64(n),
					)
					for s := 0; s <= 4; s++ {
						tm := t0 + (t1-t0)*float64(s)/4
						v := f.EvalAt(p, tm)
						if !v.IsFinite() {
							t.Fatalf("%s: non-finite value %v at %v t=%g", name, v, p, tm)
						}
						if v.Norm() > 100 {
							t.Fatalf("%s: implausible magnitude %g at %v t=%g", name, v.Norm(), p, tm)
						}
					}
				}
			}
		}
	}
}

func TestUnsteadyFieldsFrozenEvalMatchesT0(t *testing.T) {
	// The embedded Field interface must answer the field frozen at its
	// initial time, so FieldT values slot in wherever a Field is wanted.
	for _, f := range unsteadyVariants() {
		name := f.(named).Name()
		t0, _ := f.TimeRange()
		for _, p := range []vec.V3{
			f.Bounds().Center(),
			f.Bounds().Center().Add(vec.Of(0.1, -0.05, 0.08)),
		} {
			if got, want := f.Eval(p), f.EvalAt(p, t0); got != want {
				t.Errorf("%s: Eval(%v) = %v, EvalAt(t0) = %v", name, p, got, want)
			}
		}
	}
}

func TestUnsteadyFieldsActuallyVary(t *testing.T) {
	// Guard against a variant degenerating into its steady base: at some
	// probe point, mid-range time must differ from the initial time.
	for _, f := range unsteadyVariants() {
		name := f.(named).Name()
		t0, t1 := f.TimeRange()
		varies := false
		for _, p := range probePoints(f.Bounds()) {
			if f.EvalAt(p, t0).Dist(f.EvalAt(p, t0+(t1-t0)*0.37)) > 1e-9 {
				varies = true
				break
			}
		}
		if !varies {
			t.Errorf("%s: field does not vary in time", name)
		}
	}
}

func probePoints(b vec.AABB) []vec.V3 {
	c := b.Center()
	s := b.Size().Scale(0.25)
	return []vec.V3{
		c,
		c.Add(vec.Of(s.X, 0, 0)),
		c.Add(vec.Of(0, s.Y, s.Z)),
		c.Add(vec.Of(-s.X, s.Y, -s.Z)),
	}
}

func TestPulsingSupernovaPeriodicity(t *testing.T) {
	f := DefaultPulsingSupernova()
	p := vec.Of(0.4, 0.1, 0.2)
	if got, want := f.EvalAt(p, f.Period), f.EvalAt(p, 0); got.Dist(want) > 1e-12 {
		t.Errorf("one full period apart: %v vs %v", got, want)
	}
	// Half a period in, expansion surges: the radial component at a
	// mid-shell point must exceed the steady value.
	radial := func(v vec.V3, p vec.V3) float64 { return v.Dot(p) / p.Norm() }
	v0 := f.EvalAt(p, 0)
	vHalf := f.EvalAt(p, f.Period/4) // sin peaks at quarter period
	if radial(vHalf, p) <= radial(v0, p) {
		t.Errorf("expansion did not surge: radial %g -> %g", radial(v0, p), radial(vHalf, p))
	}
}

func TestSawtoothTokamakCrash(t *testing.T) {
	f := DefaultSawtoothTokamak()
	p := vec.Of(f.MajorRadius+0.1, 0, 0.05)
	// Just before a crash the winding is ramped; just after it resets.
	pre := f.EvalAt(p, 0.999*f.Period)
	post := f.EvalAt(p, 1.001*f.Period)
	base := f.EvalAt(p, 0)
	if pre.Dist(base) < 1e-9 {
		t.Error("ramp end indistinguishable from ramp start; no sawtooth")
	}
	if post.Dist(base) > 0.05*base.Norm() {
		t.Errorf("post-crash field did not reset: %v vs base %v", post, base)
	}
	if math.Abs(pre.Z) <= math.Abs(base.Z) {
		t.Errorf("poloidal winding did not grow over the ramp: |Bz| %g -> %g",
			math.Abs(base.Z), math.Abs(pre.Z))
	}
}

func TestSwitchingThermalAlternates(t *testing.T) {
	f := DefaultSwitchingThermal()
	// Probe just downstream of each inlet.
	pa := f.InletA.Add(vec.Of(0.05, 0, 0))
	pb := f.InletB.Add(vec.Of(0.05, 0, 0))
	// At t=0 inlet A carries the jet; half a period later inlet B does.
	if f.EvalAt(pa, 0).X <= f.EvalAt(pa, f.Period/2).X {
		t.Error("inlet A not strongest at t=0")
	}
	if f.EvalAt(pb, f.Period/2).X <= f.EvalAt(pb, 0).X {
		t.Error("inlet B not strongest at half period")
	}
	// Weights sum to one: the combined jet momentum at the two probes is
	// steadier than either probe alone.
	sum0 := f.EvalAt(pa, 0).X + f.EvalAt(pb, 0).X
	sumHalf := f.EvalAt(pa, f.Period/2).X + f.EvalAt(pb, f.Period/2).X
	if math.Abs(sum0-sumHalf) > 0.25*math.Abs(sum0) {
		t.Errorf("switching does not conserve injected momentum: %g vs %g", sum0, sumHalf)
	}
}
