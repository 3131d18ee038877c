package grid

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/vec"
)

// unsteadyDecomp returns a 2×2×2 spatial decomposition with 5 time
// slices (4 epochs) over [0, 2].
func unsteadyDecomp() Decomposition {
	d := NewDecomposition(vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1)), 2, 2, 2, 8)
	d.TimeSlices = 5
	d.T0, d.T1 = 0, 2
	return d
}

func TestSpaceTimeIDs(t *testing.T) {
	d := unsteadyDecomp()
	if !d.Unsteady() || d.Epochs() != 4 {
		t.Fatalf("Unsteady=%v Epochs=%d, want true/4", d.Unsteady(), d.Epochs())
	}
	if d.NumSpatialBlocks() != 8 || d.NumBlocks() != 32 {
		t.Fatalf("blocks: spatial=%d total=%d, want 8/32", d.NumSpatialBlocks(), d.NumBlocks())
	}
	seen := map[BlockID]bool{}
	for e := 0; e < d.Epochs(); e++ {
		for b := BlockID(0); int(b) < d.NumSpatialBlocks(); b++ {
			id := d.SpaceTimeID(b, e)
			if seen[id] {
				t.Fatalf("duplicate space-time id %d", id)
			}
			seen[id] = true
			if got := d.Spatial(id); got != b {
				t.Errorf("Spatial(%d) = %d, want %d", id, got, b)
			}
			if got := d.Epoch(id); got != e {
				t.Errorf("Epoch(%d) = %d, want %d", id, got, e)
			}
			if e == 0 && id != b {
				t.Errorf("SpaceTimeID(%d, 0) = %d, want identity", b, id)
			}
			// Spatial geometry must ignore the time component.
			if d.Bounds(id) != d.Bounds(b) {
				t.Errorf("Bounds(%d) differs from spatial block %d", id, b)
			}
		}
	}
	if len(seen) != d.NumBlocks() {
		t.Fatalf("space-time ids not dense: %d distinct, want %d", len(seen), d.NumBlocks())
	}
	// Steady decompositions are the identity case throughout.
	s := NewDecomposition(d.Domain, 2, 2, 2, 8)
	if s.Unsteady() || s.Epochs() != 1 || s.NumBlocks() != 8 {
		t.Errorf("steady: Unsteady=%v Epochs=%d NumBlocks=%d", s.Unsteady(), s.Epochs(), s.NumBlocks())
	}
	if s.Spatial(5) != 5 || s.Epoch(5) != 0 || s.SpaceTimeID(5, 0) != 5 {
		t.Error("steady space-time helpers are not the identity")
	}
}

func TestSliceTimeAndEpochOf(t *testing.T) {
	d := unsteadyDecomp()
	if d.sliceTime(0) != 0 || d.sliceTime(4) != 2 {
		t.Errorf("slice times: %g..%g, want 0..2", d.sliceTime(0), d.sliceTime(4))
	}
	if got := d.sliceTime(2); math.Abs(got-1) > 1e-12 {
		t.Errorf("SliceTime(2) = %g, want 1", got)
	}
	// Epoch bounds tile the time range: epoch e of any spatial block runs
	// from slice e to slice e+1.
	for e := 0; e < d.Epochs(); e++ {
		id := d.SpaceTimeID(3, e)
		if d.Epoch(id) != e {
			t.Errorf("Epoch(SpaceTimeID(3, %d)) = %d", e, d.Epoch(id))
		}
		t0, t1 := d.EpochBounds(id)
		if t0 != d.sliceTime(e) || t1 != d.sliceTime(e+1) {
			t.Errorf("epoch %d bounds [%g, %g]", e, t0, t1)
		}
	}
}

func TestUnsteadyBlockBytesDoubled(t *testing.T) {
	s := NewDecomposition(vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1)), 2, 2, 2, 8)
	u := s
	u.TimeSlices, u.T1 = 5, 2
	if u.BlockBytes() != 2*s.BlockBytes() {
		t.Errorf("unsteady block bytes %d, want 2× steady %d", u.BlockBytes(), s.BlockBytes())
	}
}

func TestUnsteadyValidate(t *testing.T) {
	d := unsteadyDecomp()
	if err := d.Validate(); err != nil {
		t.Fatalf("valid unsteady decomposition rejected: %v", err)
	}
	bad := d
	bad.TimeSlices = -1
	if bad.Validate() == nil {
		t.Error("negative time slices accepted")
	}
	bad = d
	bad.T1 = bad.T0
	if bad.Validate() == nil {
		t.Error("empty time range accepted")
	}
	// A single stored slice is a steady snapshot, not an error.
	one := d
	one.TimeSlices, one.T0, one.T1 = 1, 0, 0
	if err := one.Validate(); err != nil {
		t.Errorf("single-slice decomposition rejected: %v", err)
	}
}

// rampField is linear in both space and time, so trilinear spatial and
// linear temporal interpolation reproduce it exactly.
type rampField struct{ box vec.AABB }

func (r rampField) Eval(p vec.V3) vec.V3          { return r.EvalAt(p, 0) }
func (r rampField) Bounds() vec.AABB              { return r.box }
func (r rampField) TimeRange() (float64, float64) { return 0, 2 }
func (r rampField) EvalAt(p vec.V3, t float64) vec.V3 {
	return vec.Of(p.X+t, 2*p.Y-t, p.Z+0.5*t)
}

func TestSampledProviderTExactOnLinearField(t *testing.T) {
	d := unsteadyDecomp()
	prov := SampledProviderT{F: rampField{box: d.Domain}, D: d}
	for _, e := range []int{0, 2, 3} {
		id := d.SpaceTimeID(3, e)
		ev := prov.Block(id)
		tev, ok := ev.(EvaluatorT)
		if !ok {
			t.Fatal("sampled epoch is not an EvaluatorT")
		}
		t0, t1 := d.EpochBounds(id)
		for _, tm := range []float64{t0, (t0 + t1) / 2, t1} {
			p := d.Bounds(id).Center()
			got := tev.EvalAt(p, tm)
			want := rampField{}.EvalAt(p, tm)
			if got.Dist(want) > 1e-9 {
				t.Errorf("epoch %d t=%g: %v, want %v", e, tm, got, want)
			}
		}
		// Times outside the epoch clamp to its bounding slices.
		p := d.Bounds(id).Center()
		if got := tev.EvalAt(p, t0-5); got.Dist(rampField{}.EvalAt(p, t0)) > 1e-9 {
			t.Errorf("epoch %d: time below window did not clamp: %v", e, got)
		}
		if got := tev.EvalAt(p, t1+5); got.Dist(rampField{}.EvalAt(p, t1)) > 1e-9 {
			t.Errorf("epoch %d: time above window did not clamp: %v", e, got)
		}
	}
}

func TestAnalyticProviderTServesAllEpochs(t *testing.T) {
	d := unsteadyDecomp()
	f := field.DefaultPulsingSupernova()
	dd := NewDecomposition(f.Bounds(), 2, 2, 2, 8)
	dd.TimeSlices = d.TimeSlices
	_, dd.T1 = f.TimeRange()
	prov := AnalyticProviderT{F: f, D: dd}
	p := vec.Of(0.3, 0.2, 0.1)
	for e := 0; e < dd.Epochs(); e++ {
		ev := prov.Block(dd.SpaceTimeID(0, e))
		tev, ok := ev.(EvaluatorT)
		if !ok {
			t.Fatal("analytic unsteady evaluator is not an EvaluatorT")
		}
		tm := dd.sliceTime(e)
		if got, want := tev.EvalAt(p, tm), f.EvalAt(p, tm); got != want {
			t.Errorf("epoch %d: EvalAt = %v, want %v", e, got, want)
		}
	}
	// The frozen Eval answers at the field's initial time.
	if got, want := prov.Block(0).Eval(p), f.EvalAt(p, 0); got != want {
		t.Errorf("frozen Eval = %v, want %v", got, want)
	}
}

// TestProviderTDecompAndFrozenEval covers the provider plumbing the hot
// loops bypass since the devirtualization: both unsteady providers must
// echo their decomposition, and the analytic one serves the field itself,
// whose time-frozen Eval (the Evaluator-interface view of a FieldT) must
// answer at the field's T0.
func TestProviderTDecompAndFrozenEval(t *testing.T) {
	f := field.DefaultPulsingSupernova()
	d := unsteadyDecomp()

	ap := AnalyticProviderT{F: f, D: d}
	if ap.Decomp().TimeSlices != d.TimeSlices {
		t.Errorf("AnalyticProviderT.Decomp lost the decomposition")
	}
	sp := SampledProviderT{F: f, D: d}
	if sp.Decomp().TimeSlices != d.TimeSlices {
		t.Errorf("SampledProviderT.Decomp lost the decomposition")
	}

	ev, ok := ap.Block(0).(field.PulsingSupernova)
	if !ok {
		t.Fatalf("AnalyticProviderT.Block = %T, want the field itself", ap.Block(0))
	}
	t0, _ := f.TimeRange()
	p := vec.Of(0.3, 0.4, 0.5)
	if got, want := ev.Eval(p), f.EvalAt(p, t0); got != want {
		t.Errorf("frozen Eval = %v, want the field at t0: %v", got, want)
	}
	if got, want := ev.EvalAt(p, 0.7), f.EvalAt(p, 0.7); got != want {
		t.Errorf("EvalAt = %v, want %v", got, want)
	}
}
