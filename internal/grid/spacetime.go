package grid

import (
	"repro/internal/field"
	"repro/internal/vec"
)

// This file holds the time dimension of the block model — the paper's
// Section 4 extension that PR 3 promotes to a first-class workload (see
// DESIGN.md §7). A Decomposition with TimeSlices = NT > 1 covers the
// interval [T0, T1] with NT stored slices and NT−1 "epochs" (the windows
// between adjacent slices). The block set the algorithms operate on is
// the cross product spatial blocks × epochs, enumerated as
//
//	BlockID = epoch × NumSpatialBlocks + spatialID
//
// so that every existing consumer of dense BlockIDs — the static 1/n
// ownership split, the LRU cache keys, the block-sorted lists work waits
// in (the pool's, the slave's, the master's) — handles space-time blocks with
// no changes at all. A pathline crossing an epoch boundary is exactly a
// streamline crossing a block face: it triggers the same communication
// (Static), cache misses (Load On Demand / stealing) and master
// decisions (Hybrid) the steady algorithms already implement.

// Unsteady reports whether the decomposition is time-sliced.
func (d Decomposition) Unsteady() bool { return d.TimeSlices > 1 }

// Epochs returns the number of time epochs: the windows between adjacent
// stored slices. A steady decomposition has exactly one.
func (d Decomposition) Epochs() int {
	if !d.Unsteady() {
		return 1
	}
	return d.TimeSlices - 1
}

// Spatial strips the time component of a space-time BlockID, returning
// the spatial block it covers. Steady IDs pass through unchanged.
func (d Decomposition) Spatial(id BlockID) BlockID {
	if id < 0 {
		return id
	}
	return id % BlockID(d.NumSpatialBlocks())
}

// Epoch returns the time epoch a space-time BlockID belongs to (0 for
// steady decompositions).
func (d Decomposition) Epoch(id BlockID) int {
	if id < 0 {
		return 0
	}
	return int(id) / d.NumSpatialBlocks()
}

// SpaceTimeID combines a spatial block with an epoch into the dense
// space-time BlockID. SpaceTimeID(b, 0) == b for any decomposition.
func (d Decomposition) SpaceTimeID(spatial BlockID, epoch int) BlockID {
	return BlockID(epoch*d.NumSpatialBlocks()) + spatial
}

// sliceTime returns the simulation time of stored slice i; slice indices
// run 0..TimeSlices−1, and epoch e spans [sliceTime(e), sliceTime(e+1)].
func (d Decomposition) sliceTime(i int) float64 {
	if !d.Unsteady() {
		return d.T0
	}
	return d.T0 + (d.T1-d.T0)*float64(i)/float64(d.TimeSlices-1)
}

// EpochBounds returns the time window [t0, t1] of block id's epoch. For
// steady decompositions both ends are T0.
func (d Decomposition) EpochBounds(id BlockID) (t0, t1 float64) {
	e := d.Epoch(id)
	return d.sliceTime(e), d.sliceTime(e + 1)
}

// EvaluatorT answers time-dependent field queries over (at least) one
// space-time block's extent. Every evaluator an unsteady decomposition's
// provider serves must be one: the engine's shared advance loop hands
// the solver EvalAt instead of Eval when the problem is time-sliced,
// which is how all four algorithms trace pathlines through one code
// path. Every field.FieldT is an EvaluatorT.
type EvaluatorT interface {
	Evaluator
	// EvalAt returns the field value at position p and time t.
	EvalAt(p vec.V3, t float64) vec.V3
}

// AnalyticProviderT serves virtual space-time blocks that evaluate a
// time-varying analytic field directly — the unsteady counterpart of
// AnalyticProvider. Loading a block costs simulated I/O time for both
// bounding slices (the decomposition's doubled BlockBytes) but no host
// memory, which keeps paper-sized unsteady configurations runnable.
type AnalyticProviderT struct {
	F field.FieldT
	D Decomposition // must have TimeSlices > 1
}

// Block implements Provider: the field itself is valid at any time, so it
// serves every epoch of every spatial block. Its time-frozen Eval (the
// Evaluator view every FieldT carries) answers at the field's T0.
func (a AnalyticProviderT) Block(BlockID) Evaluator { return a.F }

// Decomp implements Provider.
func (a AnalyticProviderT) Decomp() Decomposition { return a.D }

// SampledProviderT materializes space-time blocks the way a real
// time-sliced dataset read would: the two stored slices bounding the
// block's epoch are sampled onto node arrays, and queries interpolate
// trilinearly in space and linearly in time between them.
type SampledProviderT struct {
	F field.FieldT
	D Decomposition // must have TimeSlices > 1
}

// Block implements Provider.
func (s SampledProviderT) Block(id BlockID) Evaluator {
	t0, t1 := s.D.EpochBounds(id)
	spatial := s.D.Spatial(id)
	return &SampledEpoch{
		lo: SampleBlock(frozenField{s.F, t0}, s.D, spatial),
		hi: SampleBlock(frozenField{s.F, t1}, s.D, spatial),
		t0: t0,
		t1: t1,
	}
}

// Decomp implements Provider.
func (s SampledProviderT) Decomp() Decomposition { return s.D }

// frozenField restricts a FieldT to one instant so the spatial sampling
// machinery can materialize a slice.
type frozenField struct {
	f  field.FieldT
	at float64
}

// Eval implements field.Field.
func (f frozenField) Eval(p vec.V3) vec.V3 { return f.f.EvalAt(p, f.at) }

// Bounds implements field.Field.
func (f frozenField) Bounds() vec.AABB { return f.f.Bounds() }

// SampledEpoch holds the two sampled time slices bounding one epoch of
// one spatial block and interpolates linearly in time between their
// trilinear spatial interpolations.
type SampledEpoch struct {
	lo, hi *SampledBlock
	t0, t1 float64
}

// Eval implements Evaluator, frozen at the epoch's start slice.
func (e *SampledEpoch) Eval(p vec.V3) vec.V3 { return e.lo.Eval(p) }

// EvalAt implements EvaluatorT; times outside the epoch clamp to its
// bounding slices.
func (e *SampledEpoch) EvalAt(p vec.V3, t float64) vec.V3 {
	if e.t1 <= e.t0 {
		return e.lo.Eval(p)
	}
	u := (t - e.t0) / (e.t1 - e.t0)
	if u <= 0 {
		return e.lo.Eval(p)
	}
	if u >= 1 {
		return e.hi.Eval(p)
	}
	return e.lo.Eval(p).Lerp(e.hi.Eval(p), u)
}
