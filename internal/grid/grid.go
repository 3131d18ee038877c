// Package grid implements the block-decomposed structured grids that the
// streamline algorithms operate on.
//
// Following the paper (Section 4), "the problem mesh is decomposed into a
// number of spatially disjoint blocks"; each block may carry ghost cells
// for connectivity. Blocks are the unit of I/O, caching, ownership and
// communication for all three parallelization strategies.
//
// Two block representations are provided:
//
//   - Sampled blocks materialize node-centered vector data over the block
//     extent (plus ghost nodes) and answer queries by trilinear
//     interpolation — the same data path a real dataset would use.
//   - Virtual blocks are the analytic field itself, served for every
//     block (a field.Field is an Evaluator), while still reporting the
//     byte size the materialized block would occupy. The scaling
//     studies use these so 512-block × 1M-cell configurations stay
//     runnable (see DESIGN.md §2).
package grid

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/vec"
)

// BlockID identifies one block of a decomposition; IDs are dense in
// [0, NumBlocks).
type BlockID int

// NoBlock is returned by lookups for points outside the domain.
const NoBlock BlockID = -1

// Decomposition describes how a rectangular domain is split into
// NX × NY × NZ spatially disjoint blocks, each carrying CellsPerAxis^3
// cells and Ghost ghost layers on every face.
type Decomposition struct {
	Domain       vec.AABB
	NX, NY, NZ   int
	CellsPerAxis int // cells per block along each axis
	Ghost        int // ghost layers per face
	BytesPerCell int // simulated storage footprint; 0 means 12 (3 × float32)

	// TimeSlices is the number of stored time slices NT; 0 or 1 means a
	// steady (single-snapshot) dataset. With NT slices the decomposition
	// has NT−1 epochs, each bounded by two adjacent slices; the unit of
	// I/O, caching, ownership and communication is then a space-time
	// block (see spacetime.go), following the paper's Section 4 model:
	// "Each block has a time step associated with it, thus two blocks
	// that occupy the same space at different times are considered
	// independent."
	TimeSlices int
	// T0, T1 bound the simulated time interval the slices cover
	// (required when TimeSlices > 1, ignored otherwise).
	T0, T1 float64
}

// NewDecomposition builds a decomposition of domain into nx × ny × nz
// blocks of cells^3 cells with one ghost layer.
func NewDecomposition(domain vec.AABB, nx, ny, nz, cells int) Decomposition {
	return Decomposition{
		Domain:       domain,
		NX:           nx,
		NY:           ny,
		NZ:           nz,
		CellsPerAxis: cells,
		Ghost:        1,
	}
}

// Validate reports a descriptive error if the decomposition is malformed.
func (d Decomposition) Validate() error {
	if d.NX <= 0 || d.NY <= 0 || d.NZ <= 0 {
		return fmt.Errorf("grid: non-positive block counts %dx%dx%d", d.NX, d.NY, d.NZ)
	}
	if d.CellsPerAxis <= 0 {
		return fmt.Errorf("grid: non-positive cells per axis %d", d.CellsPerAxis)
	}
	if d.Ghost < 0 {
		return fmt.Errorf("grid: negative ghost layers %d", d.Ghost)
	}
	if d.Domain.IsEmpty() || d.Domain.Volume() == 0 {
		return fmt.Errorf("grid: empty domain %v", d.Domain)
	}
	if d.TimeSlices < 0 {
		return fmt.Errorf("grid: negative time slices %d", d.TimeSlices)
	}
	if d.Unsteady() && !(d.T1 > d.T0) {
		return fmt.Errorf("grid: empty time range [%g, %g] with %d slices", d.T0, d.T1, d.TimeSlices)
	}
	return nil
}

// NumSpatialBlocks returns the number of spatially disjoint blocks,
// ignoring any time slicing.
func (d Decomposition) NumSpatialBlocks() int { return d.NX * d.NY * d.NZ }

// NumBlocks returns the total number of blocks — the unit the algorithms
// own, cache and communicate. For a steady decomposition this equals
// NumSpatialBlocks; for an unsteady one it is spatial blocks × epochs,
// because each epoch of each spatial block is an independent block.
func (d Decomposition) NumBlocks() int { return d.NumSpatialBlocks() * d.Epochs() }

// ID converts block coordinates to a BlockID. Coordinates must be in
// range. For unsteady decompositions the result identifies the epoch-0
// block; combine with SpaceTimeID for later epochs.
func (d Decomposition) ID(i, j, k int) BlockID {
	return BlockID((k*d.NY+j)*d.NX + i)
}

// Coords converts a BlockID back to spatial block coordinates (the time
// component, if any, is stripped first).
func (d Decomposition) Coords(id BlockID) (i, j, k int) {
	n := int(d.Spatial(id))
	i = n % d.NX
	j = (n / d.NX) % d.NY
	k = n / (d.NX * d.NY)
	return
}

// BlockSize returns the spatial extent of one block along each axis.
func (d Decomposition) BlockSize() vec.V3 {
	s := d.Domain.Size()
	return vec.Of(s.X/float64(d.NX), s.Y/float64(d.NY), s.Z/float64(d.NZ))
}

// Bounds returns the spatial extent of block id (without ghost region).
func (d Decomposition) Bounds(id BlockID) vec.AABB {
	i, j, k := d.Coords(id)
	bs := d.BlockSize()
	min := d.Domain.Min.Add(vec.Of(float64(i)*bs.X, float64(j)*bs.Y, float64(k)*bs.Z))
	return vec.AABB{Min: min, Max: min.Add(bs)}
}

// Locate returns the spatial (epoch-0) block that owns point p.
// Ownership is exclusive: a point on an interior face belongs to the
// higher-index block (lower faces are inclusive). Points on the domain's
// upper faces are owned by the last block along that axis; points outside
// return (NoBlock, false).
func (d Decomposition) Locate(p vec.V3) (BlockID, bool) {
	if !d.Domain.Contains(p) {
		return NoBlock, false
	}
	bs := d.BlockSize()
	rel := p.Sub(d.Domain.Min)
	i := clampIndex(int(rel.X/bs.X), d.NX)
	j := clampIndex(int(rel.Y/bs.Y), d.NY)
	k := clampIndex(int(rel.Z/bs.Z), d.NZ)
	return d.ID(i, j, k), true
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Neighbors returns the face-adjacent spatial neighbors of block id, in
// deterministic (-x, +x, -y, +y, -z, +z) order. The time component, if
// any, is stripped: neighbors are reported in epoch 0.
func (d Decomposition) Neighbors(id BlockID) []BlockID {
	i, j, k := d.Coords(id)
	out := make([]BlockID, 0, 6)
	if i > 0 {
		out = append(out, d.ID(i-1, j, k))
	}
	if i < d.NX-1 {
		out = append(out, d.ID(i+1, j, k))
	}
	if j > 0 {
		out = append(out, d.ID(i, j-1, k))
	}
	if j < d.NY-1 {
		out = append(out, d.ID(i, j+1, k))
	}
	if k > 0 {
		out = append(out, d.ID(i, j, k-1))
	}
	if k < d.NZ-1 {
		out = append(out, d.ID(i, j, k+1))
	}
	return out
}

// BlockBytes returns the simulated storage footprint of one block,
// including ghost layers. The default of 12 bytes per cell corresponds to
// a 3-component float32 vector, matching the paper's ~12 MB per 1M-cell
// block. For an unsteady decomposition a block is a space-time epoch,
// whose materialization holds the two time slices bounding it — twice
// the spatial bytes. This is the cache-pressure doubling the paper's
// Section 8 flags for pathlines ("many small reads that can often
// overwhelm the file system"); adjacent epochs sharing a slice are
// charged independently, per the Section 4 independent-block model.
func (d Decomposition) BlockBytes() int64 {
	bpc := d.BytesPerCell
	if bpc == 0 {
		bpc = 12
	}
	n := int64(d.CellsPerAxis + 2*d.Ghost)
	bytes := n * n * n * int64(bpc)
	if d.Unsteady() {
		bytes *= 2
	}
	return bytes
}

// Evaluator answers field queries over (at least) one block's extent.
type Evaluator interface {
	Eval(p vec.V3) vec.V3
}

// Provider produces an evaluator for a block. Providers are pure factories
// and safe for concurrent use; the store layer decides when a block is
// "loaded" and charges for it.
type Provider interface {
	// Block returns an evaluator valid over the ghost bounds of id.
	Block(id BlockID) Evaluator
	// Decomp returns the decomposition the provider serves.
	Decomp() Decomposition
}

// AnalyticProvider serves virtual blocks that evaluate an analytic field
// directly. Loading such a block costs simulated I/O time (per the
// decomposition's byte size) but no host memory, which keeps paper-sized
// configurations runnable. Given a field.FieldT and a time-sliced
// decomposition it serves space-time blocks: the field, an EvaluatorT,
// is valid at any time, so it answers every epoch of every spatial
// block (each load costing both bounding slices), and its time-frozen
// Eval answers at the field's T0.
type AnalyticProvider struct {
	F field.Field
	D Decomposition
}

// Block implements Provider: the field itself answers for every block.
func (a AnalyticProvider) Block(BlockID) Evaluator { return a.F }

// Decomp implements Provider.
func (a AnalyticProvider) Decomp() Decomposition { return a.D }

// SampledProvider materializes blocks by sampling a source field onto
// node-centered arrays, exactly as a dataset read from disk would be, and
// answers queries by trilinear interpolation.
type SampledProvider struct {
	F field.Field
	D Decomposition
}

// Block implements Provider.
func (s SampledProvider) Block(id BlockID) Evaluator { return SampleBlock(s.F, s.D, id) }

// Decomp implements Provider.
func (s SampledProvider) Decomp() Decomposition { return s.D }

// SampledBlock holds node-centered vector samples over one block (plus
// ghost nodes) and interpolates trilinearly.
type SampledBlock struct {
	id         BlockID
	origin     vec.V3
	spacing    vec.V3
	nx, ny, nz int       // node counts per axis
	data       []float64 // 3 values per node, x-fastest layout
}

// SampleBlock materializes block id of decomposition d from field f.
func SampleBlock(f field.Field, d Decomposition, id BlockID) *SampledBlock {
	core := d.Bounds(id)
	bs := d.BlockSize()
	cell := vec.Of(
		bs.X/float64(d.CellsPerAxis),
		bs.Y/float64(d.CellsPerAxis),
		bs.Z/float64(d.CellsPerAxis),
	)
	g := float64(d.Ghost)
	origin := core.Min.Sub(cell.Scale(g))
	nx := d.CellsPerAxis + 2*d.Ghost + 1
	ny, nz := nx, nx
	b := &SampledBlock{
		id:      id,
		origin:  origin,
		spacing: cell,
		nx:      nx, ny: ny, nz: nz,
		data: make([]float64, 3*nx*ny*nz),
	}
	idx := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				p := vec.Of(
					origin.X+float64(i)*cell.X,
					origin.Y+float64(j)*cell.Y,
					origin.Z+float64(k)*cell.Z,
				)
				v := f.Eval(p)
				b.data[idx] = v.X
				b.data[idx+1] = v.Y
				b.data[idx+2] = v.Z
				idx += 3
			}
		}
	}
	return b
}

// ID returns the block this sample covers.
func (b *SampledBlock) ID() BlockID { return b.id }

// Bounds returns the sampled extent (block plus ghost nodes).
func (b *SampledBlock) Bounds() vec.AABB {
	return vec.AABB{
		Min: b.origin,
		Max: b.origin.Add(vec.Of(
			float64(b.nx-1)*b.spacing.X,
			float64(b.ny-1)*b.spacing.Y,
			float64(b.nz-1)*b.spacing.Z,
		)),
	}
}

// node returns the sample at node (i,j,k).
func (b *SampledBlock) node(i, j, k int) vec.V3 {
	at := 3 * ((k*b.ny+j)*b.nx + i)
	return vec.V3{X: b.data[at], Y: b.data[at+1], Z: b.data[at+2]}
}

// Eval implements Evaluator by trilinear interpolation; points outside the
// sampled extent are clamped to it.
func (b *SampledBlock) Eval(p vec.V3) vec.V3 {
	fx := (p.X - b.origin.X) / b.spacing.X
	fy := (p.Y - b.origin.Y) / b.spacing.Y
	fz := (p.Z - b.origin.Z) / b.spacing.Z
	i, tx := cellOf(fx, b.nx)
	j, ty := cellOf(fy, b.ny)
	k, tz := cellOf(fz, b.nz)

	c000 := b.node(i, j, k)
	c100 := b.node(i+1, j, k)
	c010 := b.node(i, j+1, k)
	c110 := b.node(i+1, j+1, k)
	c001 := b.node(i, j, k+1)
	c101 := b.node(i+1, j, k+1)
	c011 := b.node(i, j+1, k+1)
	c111 := b.node(i+1, j+1, k+1)

	c00 := c000.Lerp(c100, tx)
	c10 := c010.Lerp(c110, tx)
	c01 := c001.Lerp(c101, tx)
	c11 := c011.Lerp(c111, tx)
	c0 := c00.Lerp(c10, ty)
	c1 := c01.Lerp(c11, ty)
	return c0.Lerp(c1, tz)
}

// cellOf converts a fractional node coordinate into a base node index and
// an interpolation weight, clamped so i+1 stays a valid node.
func cellOf(f float64, nodes int) (int, float64) {
	if math.IsNaN(f) || f < 0 {
		return 0, 0
	}
	i := int(f)
	if i >= nodes-1 {
		return nodes - 2, 1
	}
	return i, f - float64(i)
}
