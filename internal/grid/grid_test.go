package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/vec"
)

func unitDecomp(nx, ny, nz, cells int) Decomposition {
	return NewDecomposition(vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1)), nx, ny, nz, cells)
}

func TestValidate(t *testing.T) {
	good := unitDecomp(2, 2, 2, 8)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}
	bad := []Decomposition{
		{Domain: good.Domain, NX: 0, NY: 1, NZ: 1, CellsPerAxis: 4},
		{Domain: good.Domain, NX: 1, NY: 1, NZ: 1, CellsPerAxis: 0},
		{Domain: good.Domain, NX: 1, NY: 1, NZ: 1, CellsPerAxis: 4, Ghost: -1},
		{Domain: vec.AABB{}, NX: 1, NY: 1, NZ: 1, CellsPerAxis: 4},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid decomposition accepted", i)
		}
	}
}

func TestIDCoordsRoundTrip(t *testing.T) {
	d := unitDecomp(3, 4, 5, 2)
	seen := map[BlockID]bool{}
	for k := 0; k < d.NZ; k++ {
		for j := 0; j < d.NY; j++ {
			for i := 0; i < d.NX; i++ {
				id := d.ID(i, j, k)
				if seen[id] {
					t.Fatalf("duplicate id %d", id)
				}
				seen[id] = true
				gi, gj, gk := d.Coords(id)
				if gi != i || gj != j || gk != k {
					t.Fatalf("Coords(ID(%d,%d,%d)) = (%d,%d,%d)", i, j, k, gi, gj, gk)
				}
			}
		}
	}
	if len(seen) != d.NumBlocks() {
		t.Fatalf("ids not dense: %d distinct, want %d", len(seen), d.NumBlocks())
	}
}

func TestBoundsTiling(t *testing.T) {
	d := unitDecomp(2, 3, 2, 4)
	var total float64
	for id := BlockID(0); int(id) < d.NumBlocks(); id++ {
		total += d.Bounds(id).Volume()
	}
	if math.Abs(total-d.Domain.Volume()) > 1e-12 {
		t.Errorf("block volumes sum to %g, domain %g", total, d.Domain.Volume())
	}
}

func TestLocateOwnership(t *testing.T) {
	d := unitDecomp(4, 4, 4, 4)
	// Every in-domain point maps to exactly one block whose bounds contain
	// it.
	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 2000; n++ {
		p := vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
		id, ok := d.Locate(p)
		if !ok {
			t.Fatalf("in-domain point %v not located", p)
		}
		if !d.Bounds(id).Contains(p) {
			t.Fatalf("block %d bounds %v do not contain %v", id, d.Bounds(id), p)
		}
	}
}

func TestLocateEdgeCases(t *testing.T) {
	d := unitDecomp(2, 2, 2, 4)
	// Domain corners.
	if id, ok := d.Locate(vec.Of(0, 0, 0)); !ok || id != d.ID(0, 0, 0) {
		t.Errorf("origin -> (%d,%v)", id, ok)
	}
	if id, ok := d.Locate(vec.Of(1, 1, 1)); !ok || id != d.ID(1, 1, 1) {
		t.Errorf("max corner -> (%d,%v), want last block", id, ok)
	}
	// Interior face point belongs to the upper block.
	if id, ok := d.Locate(vec.Of(0.5, 0.25, 0.25)); !ok || id != d.ID(1, 0, 0) {
		t.Errorf("face point -> (%d,%v), want block (1,0,0)", id, ok)
	}
	// Outside.
	if _, ok := d.Locate(vec.Of(1.001, 0.5, 0.5)); ok {
		t.Error("outside point located")
	}
	if _, ok := d.Locate(vec.Of(-0.001, 0.5, 0.5)); ok {
		t.Error("outside point located")
	}
}

func TestNeighbors(t *testing.T) {
	d := unitDecomp(3, 3, 3, 2)
	center := d.ID(1, 1, 1)
	n := d.Neighbors(center)
	if len(n) != 6 {
		t.Fatalf("center neighbors = %d, want 6", len(n))
	}
	corner := d.ID(0, 0, 0)
	n = d.Neighbors(corner)
	if len(n) != 3 {
		t.Fatalf("corner neighbors = %d, want 3", len(n))
	}
	for _, nb := range n {
		if nb == corner {
			t.Error("block is its own neighbor")
		}
	}
}

func TestBlockBytes(t *testing.T) {
	d := unitDecomp(2, 2, 2, 100)
	d.Ghost = 0
	if got := d.BlockBytes(); got != 100*100*100*12 {
		t.Errorf("BlockBytes = %d", got)
	}
	d.Ghost = 1
	if got := d.BlockBytes(); got != 102*102*102*12 {
		t.Errorf("BlockBytes with ghost = %d", got)
	}
	d.BytesPerCell = 24
	if got := d.BlockBytes(); got != 102*102*102*24 {
		t.Errorf("BlockBytes with 24B cells = %d", got)
	}
}

func TestSampledBlockReproducesLinearField(t *testing.T) {
	// Trilinear interpolation is exact for affine fields.
	f := field.Linear{
		A:   vec.Of(2, -1, 0.5),
		B:   vec.Of(0.1, 0.2, 0.3),
		Box: vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1)),
	}
	d := unitDecomp(2, 2, 2, 5)
	rng := rand.New(rand.NewSource(29))
	for id := BlockID(0); int(id) < d.NumBlocks(); id++ {
		blk := SampleBlock(f, d, id)
		bounds := d.Bounds(id)
		for n := 0; n < 100; n++ {
			p := bounds.Min.Add(bounds.Size().Mul(vec.Of(rng.Float64(), rng.Float64(), rng.Float64())))
			got := blk.Eval(p)
			want := f.Eval(p)
			if got.Dist(want) > 1e-12 {
				t.Fatalf("block %d at %v: got %v want %v", id, p, got, want)
			}
		}
	}
}

func TestSampledBlockConvergesOnSmoothField(t *testing.T) {
	// Refining the sampling should reduce interpolation error roughly
	// quadratically for a smooth field.
	f := field.DefaultABC()
	errAt := func(cells int) float64 {
		d := NewDecomposition(f.Bounds(), 1, 1, 1, cells)
		blk := SampleBlock(f, d, 0)
		rng := rand.New(rand.NewSource(31))
		worst := 0.0
		for n := 0; n < 300; n++ {
			p := f.Bounds().Min.Add(f.Bounds().Size().Mul(vec.Of(rng.Float64(), rng.Float64(), rng.Float64())))
			if e := blk.Eval(p).Dist(f.Eval(p)); e > worst {
				worst = e
			}
		}
		return worst
	}
	coarse := errAt(8)
	fine := errAt(32)
	if fine >= coarse/4 {
		t.Errorf("interpolation not converging: err(8)=%g err(32)=%g", coarse, fine)
	}
}

func TestSampledBlockGhostContinuity(t *testing.T) {
	// Adjacent blocks must agree (to interpolation accuracy) at their
	// shared face because ghost nodes replicate neighbor data.
	f := field.DefaultABC()
	d := NewDecomposition(f.Bounds(), 2, 1, 1, 16)
	left := SampleBlock(f, d, d.ID(0, 0, 0))
	right := SampleBlock(f, d, d.ID(1, 0, 0))
	faceX := d.Bounds(d.ID(0, 0, 0)).Max.X
	rng := rand.New(rand.NewSource(37))
	for n := 0; n < 200; n++ {
		p := vec.Of(faceX,
			f.Bounds().Min.Y+rng.Float64()*f.Bounds().Size().Y,
			f.Bounds().Min.Z+rng.Float64()*f.Bounds().Size().Z)
		if dl := left.Eval(p).Dist(right.Eval(p)); dl > 1e-10 {
			t.Fatalf("face discontinuity %g at %v", dl, p)
		}
	}
}

func TestSampledBlockClampsOutside(t *testing.T) {
	f := field.Uniform{V: vec.Of(1, 2, 3), Box: vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1))}
	d := unitDecomp(1, 1, 1, 4)
	blk := SampleBlock(f, d, 0)
	// Far outside points clamp to the boundary value rather than exploding.
	if got := blk.Eval(vec.Of(5, 5, 5)); got.Dist(vec.Of(1, 2, 3)) > 1e-12 {
		t.Errorf("clamped Eval = %v", got)
	}
	if got := blk.Eval(vec.Of(-5, 0.5, 0.5)); got.Dist(vec.Of(1, 2, 3)) > 1e-12 {
		t.Errorf("clamped Eval = %v", got)
	}
}

func TestProviders(t *testing.T) {
	f := field.DefaultABC()
	d := NewDecomposition(f.Bounds(), 2, 2, 2, 8)
	ap := AnalyticProvider{F: f, D: d}
	sp := SampledProvider{F: f, D: d}
	if ap.Decomp().NumBlocks() != 8 || sp.Decomp().NumBlocks() != 8 {
		t.Fatal("provider decomp mismatch")
	}
	p := vec.Of(1, 2, 3)
	id, _ := d.Locate(p)
	if got := ap.Block(id).Eval(p); got.Dist(f.Eval(p)) > 1e-12 {
		t.Errorf("analytic provider mismatch: %v", got)
	}
	if got := sp.Block(id).Eval(p); got.Dist(f.Eval(p)) > 0.5 {
		t.Errorf("sampled provider too far off: %v vs %v", got, f.Eval(p))
	}
}

// --- property-based tests ---

func TestPropLocateRoundTrip(t *testing.T) {
	d := unitDecomp(5, 3, 4, 2)
	f := func(a, b, c float64) bool {
		frac := func(x float64) float64 { x = math.Abs(math.Mod(x, 1)); return x }
		p := vec.Of(frac(a), frac(b), frac(c))
		id, ok := d.Locate(p)
		return ok && d.Bounds(id).Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropNeighborsSymmetric(t *testing.T) {
	d := unitDecomp(4, 3, 2, 2)
	for id := BlockID(0); int(id) < d.NumBlocks(); id++ {
		for _, nb := range d.Neighbors(id) {
			found := false
			for _, back := range d.Neighbors(nb) {
				if back == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d -> %d", id, nb)
			}
		}
	}
}

func TestPropBlockCentersLocateToSelf(t *testing.T) {
	d := unitDecomp(6, 5, 4, 3)
	for id := BlockID(0); int(id) < d.NumBlocks(); id++ {
		c := d.Bounds(id).Center()
		got, ok := d.Locate(c)
		if !ok || got != id {
			t.Fatalf("center of block %d locates to %d (ok=%v)", id, got, ok)
		}
	}
}

// ghostBounds returns the block extent grown by the ghost layers, clipped
// to the domain: the region a provider's evaluator must cover.
func ghostBounds(d Decomposition, id BlockID) vec.AABB {
	b := d.Bounds(id)
	bs := d.BlockSize()
	cell := vec.Of(
		bs.X/float64(d.CellsPerAxis),
		bs.Y/float64(d.CellsPerAxis),
		bs.Z/float64(d.CellsPerAxis),
	)
	g := float64(d.Ghost)
	grown := vec.AABB{
		Min: b.Min.Sub(cell.Scale(g)),
		Max: b.Max.Add(cell.Scale(g)),
	}
	return grown.Intersect(d.Domain)
}

// TestGhostBoundsClippedToDomain covers the ghost-layer extent a sampled
// block has to span: interior faces grow by whole cells, boundary faces
// clip to the domain, and the block's samples cover all of it.
func TestGhostBoundsClippedToDomain(t *testing.T) {
	d := NewDecomposition(vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1)), 2, 2, 2, 8)
	corner := ghostBounds(d, 0) // block at the domain's min corner
	if corner.Min != d.Domain.Min {
		t.Errorf("corner ghost bounds min = %v, want clipped to domain min %v", corner.Min, d.Domain.Min)
	}
	plain := d.Bounds(0)
	if !(corner.Max.X > plain.Max.X && corner.Max.Y > plain.Max.Y && corner.Max.Z > plain.Max.Z) {
		t.Errorf("ghost bounds %v do not grow past the block bounds %v on the interior faces", corner, plain)
	}
	sampled := SampleBlock(field.DefaultSupernova(), d, 0).Bounds()
	if got := sampled.Intersect(corner); got != corner {
		t.Errorf("sampled extent %v does not cover the ghost bounds %v", sampled, corner)
	}
}

// TestSampledBlockID covers the sampled block's identity accessor.
func TestSampledBlockID(t *testing.T) {
	d := NewDecomposition(vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1)), 2, 2, 2, 4)
	b := SampleBlock(field.DefaultSupernova(), d, 3)
	if b.ID() != 3 {
		t.Errorf("ID = %d, want 3", b.ID())
	}
}
