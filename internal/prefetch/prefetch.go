// Package prefetch implements predictive block prefetching: deciding,
// while a processor is busy integrating, which blocks it will need next
// so their reads (store.Cache.Prefetch) can overlap computation instead
// of stalling the worker at the next cache miss.
//
// The paper's central cost trade-off is exactly this stall: Load On
// Demand pays a blocking read at every miss (Figure 6's I/O gap over
// Static Allocation), and its Section 8 outlook flags pathlines as "many
// small reads that can often overwhelm the file system". Two predictors
// attack the two miss sources:
//
//   - Neighbor (spatial): a streamline advancing through a block exits
//     through a face determined by its direction of travel; marching a
//     ray from its head along that direction through the decomposition
//     names the next block(s) it will enter.
//   - Temporal: a pathline integrating inside epoch e of a space-time
//     block deterministically needs (same spatial block, epoch e+1)
//     next — the ROADMAP's "load epoch e+1 while computing in e".
//
// Policies select which predictors run (off, neighbor, temporal, both);
// Depth bounds how far ahead each looks. Prediction is pure geometry —
// no field evaluations, so it never touches data that is not loaded —
// and purely advisory: wrong guesses cost wasted reads (counted by
// metrics.PrefetchWasted), never wrong results, which is why prefetching
// can change timings but must keep geometry bit-identical (pinned by the
// golden digests).
package prefetch

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/vec"
)

// Policy selects which predictors drive prefetching.
type Policy string

// The prefetch policies accepted by the -prefetch flag.
const (
	// Off disables prefetching entirely (the default; every read blocks).
	Off Policy = "off"
	// Neighbor predicts the next spatial block(s) from each streamline's
	// exit direction.
	Neighbor Policy = "neighbor"
	// Temporal predicts the next epoch(s) of each pathline's current
	// spatial block (unsteady decompositions only).
	Temporal Policy = "temporal"
	// Both runs the neighbor and temporal predictors together.
	Both Policy = "both"
)

// Validate reports a descriptive error for unknown policies. The empty
// string is accepted as Off so zero-valued configurations mean
// "no prefetching".
func (p Policy) Validate() error {
	switch p {
	case "", Off, Neighbor, Temporal, Both:
		return nil
	default:
		return fmt.Errorf("prefetch: unknown policy %q (valid: off, neighbor, temporal, both)", p)
	}
}

// Enabled reports whether the policy prefetches at all.
func (p Policy) Enabled() bool { return p == Neighbor || p == Temporal || p == Both }

// Spatial reports whether the neighbor predictor runs.
func (p Policy) Spatial() bool { return p == Neighbor || p == Both }

// temporalOn reports whether the temporal predictor runs.
func (p Policy) temporalOn() bool { return p == Temporal || p == Both }

// Config parameterizes the subsystem: which predictors run and how far
// ahead each looks.
type Config struct {
	Policy Policy
	// Depth is the lookahead per predictor: the neighbor predictor names
	// up to Depth blocks along the exit ray, the temporal predictor up to
	// Depth future epochs. 0 means 1.
	Depth int
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Depth < 0 {
		return fmt.Errorf("prefetch: negative depth %d", c.Depth)
	}
	return nil
}

func (c Config) depth() int {
	if c.Depth <= 0 {
		return 1
	}
	return c.Depth
}

// Predictor computes prefetch targets for streamlines over one
// decomposition. It is stateless and deterministic: the same streamline
// state yields the same predictions.
type Predictor struct {
	d   grid.Decomposition
	cfg Config
}

// New creates a predictor for decomposition d. It returns nil when the
// config's policy does not prefetch, so callers can gate hooks on a nil
// check alone.
func New(d grid.Decomposition, cfg Config) *Predictor {
	if !cfg.Policy.Enabled() {
		return nil
	}
	return &Predictor{d: d, cfg: cfg}
}

// Depth returns the configured per-predictor lookahead (at least 1).
func (p *Predictor) Depth() int { return p.cfg.depth() }

// PreloadEnabled reports whether Static Allocation's preload-order hook
// should stream owned blocks: the neighbor predictor covers spatial
// preload on any decomposition, while the temporal predictor only has
// meaning on a time-sliced one — there, ascending owned-ID order is
// epoch order, so streaming it is the pinned working set's "load epoch
// e+1" analogue. A temporal-only policy on a steady run is a no-op
// everywhere, including here.
func (p *Predictor) PreloadEnabled() bool {
	return p.cfg.Policy.Spatial() || (p.cfg.Policy.temporalOn() && p.d.Unsteady())
}

// direction returns the streamline's current direction of travel,
// estimated from its last accepted step; ok is false before any step has
// been taken (no travel history, nothing to extrapolate).
func direction(sl *trace.Streamline) (vec.V3, bool) {
	if sl.Verts < 2 {
		return vec.V3{}, false
	}
	dir := sl.P.Sub(sl.Prev)
	if dir.Norm2() == 0 {
		return vec.V3{}, false
	}
	return dir, true
}

// OnExit predicts the blocks to fetch for a streamline that has just
// left block prev for the (non-resident) block sl.Block: the demanded
// block itself, plus the continuation of the chain that led there, gated
// by the policy matching the kind of transition — a spatial crossing
// engages the neighbor predictor, an epoch crossing the temporal one.
func (p *Predictor) OnExit(prev grid.BlockID, sl *trace.Streamline) []grid.BlockID {
	if sl.Block < 0 {
		return nil
	}
	spatialMove := p.d.Spatial(prev) != p.d.Spatial(sl.Block)
	temporalMove := p.d.Epoch(prev) != p.d.Epoch(sl.Block)
	var out []grid.BlockID
	demanded := false
	// The predictors gate independently, so a crossing that is both
	// spatial and temporal engages both chains under the Both policy
	// (the engine's advance loop only ever moves one dimension per
	// transition, but OnExit does not rely on that).
	if spatialMove && p.cfg.Policy.Spatial() {
		demanded = true
		out = append(out, sl.Block)
		if dir, ok := direction(sl); ok {
			out = append(out, p.march(sl.Block, sl.P, dir, p.cfg.depth()-1)...)
		}
	}
	if temporalMove && p.cfg.Policy.temporalOn() {
		if !demanded {
			out = append(out, sl.Block)
		}
		out = append(out, p.nextEpochs(sl.Block, p.cfg.depth()-1)...)
	}
	return out
}

// nextEpochs returns up to n future epochs of id's spatial block, when
// the temporal predictor is on and the decomposition has them.
func (p *Predictor) nextEpochs(id grid.BlockID, n int) []grid.BlockID {
	if !p.cfg.Policy.temporalOn() || !p.d.Unsteady() {
		return nil
	}
	spatial := p.d.Spatial(id)
	epoch := p.d.Epoch(id)
	var out []grid.BlockID
	for e := epoch + 1; e <= epoch+n && e < p.d.Epochs(); e++ {
		out = append(out, p.d.SpaceTimeID(spatial, e))
	}
	return out
}

// march walks the exit ray: starting at point pos inside block id (time
// component preserved), it repeatedly finds the face through which a ray
// along dir leaves the current block's bounds and steps to the face-
// adjacent neighbor, collecting up to n blocks. The walk stops at the
// domain boundary or when the ray is degenerate.
func (p *Predictor) march(id grid.BlockID, pos, dir vec.V3, n int) []grid.BlockID {
	epoch := p.d.Epoch(id)
	i, j, k := p.d.Coords(id)
	var out []grid.BlockID
	for step := 0; step < n; step++ {
		b := p.d.Bounds(p.d.ID(i, j, k))
		axis, sign, t := exitFace(b, pos, dir)
		if axis < 0 {
			break
		}
		switch axis {
		case 0:
			i += sign
		case 1:
			j += sign
		case 2:
			k += sign
		}
		if i < 0 || i >= p.d.NX || j < 0 || j >= p.d.NY || k < 0 || k >= p.d.NZ {
			break
		}
		out = append(out, p.d.SpaceTimeID(p.d.ID(i, j, k), epoch))
		pos = pos.Add(dir.Scale(t))
	}
	return out
}

// exitFace returns the axis (0=x, 1=y, 2=z), direction sign (±1) and ray
// parameter of the face through which a ray from pos along dir first
// leaves bounds b. axis is -1 for a degenerate (zero or inward-stuck)
// ray.
func exitFace(b vec.AABB, pos, dir vec.V3) (axis, sign int, t float64) {
	axis, sign = -1, 0
	t = math.Inf(1)
	consider := func(a int, d, lo, hi, at float64) {
		if d == 0 {
			return
		}
		var tc float64
		var sc int
		if d > 0 {
			tc = (hi - at) / d
			sc = 1
		} else {
			tc = (lo - at) / d
			sc = -1
		}
		if tc < 0 {
			tc = 0 // already on (or just past) the face: exit immediately
		}
		if tc < t {
			axis, sign, t = a, sc, tc
		}
	}
	consider(0, dir.X, b.Min.X, b.Max.X, pos.X)
	consider(1, dir.Y, b.Min.Y, b.Max.Y, pos.Y)
	consider(2, dir.Z, b.Min.Z, b.Max.Z, pos.Z)
	return axis, sign, t
}
