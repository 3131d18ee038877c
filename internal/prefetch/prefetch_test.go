package prefetch

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/vec"
)

// testDecomp returns a 4×4×4 decomposition of the unit cube, optionally
// time-sliced into nt stored slices over [0, 1].
func testDecomp(nt int) grid.Decomposition {
	d := grid.NewDecomposition(vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1)), 4, 4, 4, 8)
	if nt > 1 {
		d.TimeSlices = nt
		d.T0, d.T1 = 0, 1
	}
	return d
}

// movingStreamline fabricates a streamline at p whose last step came
// from prev (so its direction of travel is p−prev), located in the block
// owning p at epoch 0.
func movingStreamline(d grid.Decomposition, prev, p vec.V3) *trace.Streamline {
	b, ok := d.Locate(p)
	if !ok {
		panic(fmt.Sprintf("point %v outside domain", p))
	}
	sl := trace.New(0, prev, b)
	sl.Append([]vec.V3{p})
	sl.Block = b
	return sl
}

func TestPolicyValidate(t *testing.T) {
	for _, p := range []Policy{Off, Neighbor, Temporal, Both, ""} {
		if err := p.Validate(); err != nil {
			t.Errorf("%q rejected: %v", p, err)
		}
	}
	if err := Policy("sideways").Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
	if Off.Enabled() || Policy("").Enabled() {
		t.Error("off/empty policies report enabled")
	}
	if !Neighbor.Spatial() || !Both.Spatial() || Temporal.Spatial() {
		t.Error("Spatial gating wrong")
	}
	if !Temporal.temporalOn() || !Both.temporalOn() || Neighbor.temporalOn() {
		t.Error("TemporalOn gating wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Policy: Neighbor, Depth: 3}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{Policy: "bogus"}).Validate(); err == nil {
		t.Error("bad policy accepted")
	}
	if err := (Config{Policy: Neighbor, Depth: -1}).Validate(); err == nil {
		t.Error("negative depth accepted")
	}
}

func TestNewGatesOnPolicy(t *testing.T) {
	d := testDecomp(1)
	if New(d, Config{Policy: Off}) != nil || New(d, Config{}) != nil {
		t.Error("disabled policies built a predictor")
	}
	p := New(d, Config{Policy: Neighbor, Depth: 0})
	if p == nil {
		t.Fatal("enabled policy built no predictor")
	}
	if p.Depth() != 1 {
		t.Errorf("default depth = %d, want 1", p.Depth())
	}
	if New(d, Config{Policy: Both, Depth: 4}).Depth() != 4 {
		t.Error("explicit depth not honored")
	}
}

// TestOnExitSpatial: a spatial crossing under the neighbor policy yields
// the demanded block first, then the ray continuation at higher depths.
func TestOnExitSpatial(t *testing.T) {
	d := testDecomp(1)
	// Travel in +x: from block (0,j,k) into block (1,j,k).
	sl := movingStreamline(d, vec.Of(0.24, 0.1, 0.1), vec.Of(0.26, 0.1, 0.1))
	prev := d.ID(0, 0, 0)
	if sl.Block != d.ID(1, 0, 0) {
		t.Fatalf("fixture: streamline in block %d, want %d", sl.Block, d.ID(1, 0, 0))
	}

	p1 := New(d, Config{Policy: Neighbor, Depth: 1})
	if got := fmt.Sprint(p1.OnExit(prev, sl)); got != fmt.Sprint([]grid.BlockID{d.ID(1, 0, 0)}) {
		t.Errorf("depth-1 OnExit = %v, want just the demanded block", got)
	}

	p3 := New(d, Config{Policy: Neighbor, Depth: 3})
	want := []grid.BlockID{d.ID(1, 0, 0), d.ID(2, 0, 0), d.ID(3, 0, 0)}
	if got := fmt.Sprint(p3.OnExit(prev, sl)); got != fmt.Sprint(want) {
		t.Errorf("depth-3 OnExit = %v, want ray continuation %v", got, want)
	}

	// The temporal policy must ignore a purely spatial crossing.
	pt := New(d, Config{Policy: Temporal, Depth: 2})
	if got := pt.OnExit(prev, sl); len(got) != 0 {
		t.Errorf("temporal policy predicted %v for a spatial crossing", got)
	}
}

// TestOnExitRayStopsAtDomain: the exit-ray march never predicts blocks
// outside the decomposition.
func TestOnExitRayStopsAtDomain(t *testing.T) {
	d := testDecomp(1)
	// Travel in +x from the second-to-last into the last block column.
	sl := movingStreamline(d, vec.Of(0.74, 0.1, 0.1), vec.Of(0.76, 0.1, 0.1))
	prev := d.ID(2, 0, 0)
	p := New(d, Config{Policy: Neighbor, Depth: 5})
	got := p.OnExit(prev, sl)
	if len(got) != 1 || got[0] != d.ID(3, 0, 0) {
		t.Errorf("OnExit at the domain edge = %v, want just block %d", got, d.ID(3, 0, 0))
	}
}

// TestOnExitTemporal: an epoch crossing under the temporal policy yields
// the demanded space-time block, then further epochs at higher depths,
// clamped at the last epoch.
func TestOnExitTemporal(t *testing.T) {
	d := testDecomp(5) // 4 epochs
	spatial := d.ID(1, 1, 1)
	sl := trace.New(0, vec.Of(0.3, 0.3, 0.3), d.SpaceTimeID(spatial, 1))
	prev := d.SpaceTimeID(spatial, 0)

	p1 := New(d, Config{Policy: Temporal, Depth: 1})
	if got := fmt.Sprint(p1.OnExit(prev, sl)); got != fmt.Sprint([]grid.BlockID{sl.Block}) {
		t.Errorf("depth-1 temporal OnExit = %v, want the demanded block", got)
	}

	p9 := New(d, Config{Policy: Temporal, Depth: 9})
	want := []grid.BlockID{sl.Block, d.SpaceTimeID(spatial, 2), d.SpaceTimeID(spatial, 3)}
	if got := fmt.Sprint(p9.OnExit(prev, sl)); got != fmt.Sprint(want) {
		t.Errorf("deep temporal OnExit = %v, want %v (clamped at the last epoch)", got, want)
	}

	// The neighbor policy must ignore a purely temporal crossing.
	pn := New(d, Config{Policy: Neighbor, Depth: 2})
	if got := pn.OnExit(prev, sl); len(got) != 0 {
		t.Errorf("neighbor policy predicted %v for an epoch crossing", got)
	}

	// Both engages on either kind of crossing.
	pb := New(d, Config{Policy: Both, Depth: 1})
	if got := pb.OnExit(prev, sl); len(got) != 1 || got[0] != sl.Block {
		t.Errorf("both policy on epoch crossing = %v", got)
	}
}

// TestOnExitEdgeCases: terminated streamlines, zero travel history and
// diagonal rays.
func TestOnExitEdgeCases(t *testing.T) {
	d := testDecomp(1)
	p := New(d, Config{Policy: Both, Depth: 3})

	// Out-of-domain (NoBlock) exits predict nothing.
	sl := movingStreamline(d, vec.Of(0.1, 0.1, 0.1), vec.Of(0.3, 0.1, 0.1))
	sl.Block = grid.NoBlock
	if got := p.OnExit(d.ID(0, 0, 0), sl); got != nil {
		t.Errorf("NoBlock exit predicted %v", got)
	}

	// A seed with no accepted step has no direction: the demanded block
	// is still returned, without a ray continuation.
	fresh := trace.New(1, vec.Of(0.3, 0.1, 0.1), d.ID(1, 0, 0))
	if got := p.OnExit(d.ID(0, 0, 0), fresh); len(got) != 1 || got[0] != d.ID(1, 0, 0) {
		t.Errorf("no-history exit = %v, want just the demanded block", got)
	}

	// A diagonal ray exits through the nearest face first: from
	// (0.26, 0.22) with direction (0.04, 0.02), the y=0.25 face is 1.5
	// ray-lengths away but the x=0.5 face 6, so the march goes up in y
	// before continuing in x.
	diag := movingStreamline(d, vec.Of(0.22, 0.2, 0.1), vec.Of(0.26, 0.22, 0.1))
	want := []grid.BlockID{d.ID(1, 0, 0), d.ID(1, 1, 0), d.ID(2, 1, 0)}
	if got := fmt.Sprint(p.OnExit(d.ID(0, 0, 0), diag)); got != fmt.Sprint(want) {
		t.Errorf("diagonal ray = %v, want %v", got, want)
	}
}

// TestOnExitSamePredictionIsDeterministic: identical inputs give
// identical predictions (the subsystem must not perturb determinism).
func TestOnExitSamePredictionIsDeterministic(t *testing.T) {
	d := testDecomp(4)
	p := New(d, Config{Policy: Both, Depth: 3})
	sl := movingStreamline(d, vec.Of(0.24, 0.6, 0.6), vec.Of(0.26, 0.61, 0.6))
	prev := d.ID(0, 2, 2)
	a := fmt.Sprint(p.OnExit(prev, sl))
	for i := 0; i < 5; i++ {
		if b := fmt.Sprint(p.OnExit(prev, sl)); b != a {
			t.Fatalf("prediction changed across calls: %s vs %s", a, b)
		}
	}
}
