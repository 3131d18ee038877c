// Package trace defines the streamline objects that flow through the
// parallel algorithms: current integration state (position, time, solver
// step size), accumulated geometry, and status.
//
// Streamlines are what Static Allocation and the Hybrid algorithm
// communicate between processors, so the package also provides a binary
// wire encoding and the byte-size model used by the communication-time
// metric. Two sizes matter (paper §8): the full record including geometry,
// and the compact "solver state only" form proposed as future work.
//
// The simulated machine needs a streamline's geometry only as a size, and
// the prefetch predictor only its last two points, so both are state of
// their own (Verts, Prev and P) that every Append maintains. The curve
// itself, Points, is output: a streamline created with a nil Points keeps
// none, and costs the host nothing per step.
package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/vec"
)

// Status describes a streamline's lifecycle.
type Status int

// Streamline lifecycle states.
const (
	Active      Status = iota // still integrating
	OutOfBounds               // left the global domain
	MaxedOut                  // reached the step or time budget
	AtCritical                // terminated at a critical point (zero velocity)
	Failed                    // field error
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case OutOfBounds:
		return "out-of-bounds"
	case MaxedOut:
		return "maxed-out"
	case AtCritical:
		return "critical"
	case Failed:
		return "failed"
	default:
		return "unknown"
	}
}

// Terminated reports whether the streamline is finished.
func (s Status) Terminated() bool { return s != Active }

// PointBytes is the simulated wire/memory footprint of one geometry
// vertex. Paper-era pipelines (VisIt's avtIntegralCurve) carry more than
// the bare position: double-precision position (24), integration time
// (8), a sampled scalar such as speed (8), plus per-point bookkeeping —
// 48 bytes in total.
const PointBytes = 48

// StateBytes is the simulated size of the solver state alone: id,
// position, time, step size, status, block (the paper §8's compact
// form). The release time of a staggered-injection seed rides in the
// same fixed-size record.
const StateBytes = 64

// Streamline is one integral curve in flight.
type Streamline struct {
	ID   int
	Seed vec.V3

	// Integration state.
	P     vec.V3  // current position
	T     float64 // integration time
	H     float64 // adaptive solver step size (carried across handoffs)
	Steps int     // accepted steps so far
	// Seg counts the block-exit segments integrated so far, one per
	// advance call: the cursor a segment tape (core.Tape) replays from.
	// A streamline restarted from its seed is a new Streamline, so its
	// cursor starts over at zero. Not part of the wire encoding.
	Seg int

	Status Status
	Block  grid.BlockID // block containing P (NoBlock when terminated out of bounds)

	// Release is the virtual machine time at which this seed is injected
	// into the computation (seeds.Schedule, DESIGN.md §9). Zero — the
	// paper's fixed population — means available from the start. Release
	// is a scheduling quantity only: it gates when algorithms may advance
	// the streamline, never the integration time T or the geometry.
	Release float64

	// Verts counts the vertices of the accumulated geometry, the seed
	// included: what the memory and wire sizes are computed from. Prev is
	// the position before the last accepted step, with P the two-point
	// tail a direction of travel is read from; it means nothing while
	// Verts < 2.
	Verts int
	Prev  vec.V3

	// Points is the accumulated geometry itself, starting with the seed —
	// len(Points) == Verts — or nil for a streamline that keeps no curve:
	// only a run that hands its curves out needs them.
	Points []vec.V3
}

// New creates an active streamline at seed, located in block, released
// at virtual time zero.
func New(id int, seed vec.V3, block grid.BlockID) *Streamline {
	return NewAt(id, seed, block, 0)
}

// NewAt creates an active streamline at seed, located in block, that an
// injection schedule releases at virtual machine time release.
func NewAt(id int, seed vec.V3, block grid.BlockID, release float64) *Streamline {
	return &Streamline{
		ID:      id,
		Seed:    seed,
		P:       seed,
		Block:   block,
		Release: release,
		Verts:   1,
		Points:  []vec.V3{seed},
	}
}

// Append extends the geometry with points (positions after each accepted
// step) and moves the head to the last one; a streamline that keeps no
// curve only counts them. Growth doubles the backing array: the runtime's
// append tapers to ~1.25× for large slices, which would make a long
// streamline recopy its whole geometry every few advance calls; doubling
// keeps total copying linear in the final size.
func (s *Streamline) Append(points []vec.V3) {
	n := len(points)
	if n == 0 {
		return
	}
	s.Prev = s.P
	if n > 1 {
		s.Prev = points[n-2]
	}
	s.P = points[n-1]
	s.Verts += n
	if s.Points == nil {
		return
	}
	if need := len(s.Points) + n; need > cap(s.Points) {
		newCap := 2 * cap(s.Points)
		if newCap < need {
			newCap = need
		}
		grown := make([]vec.V3, len(s.Points), newCap)
		copy(grown, s.Points)
		s.Points = grown
	}
	s.Points = append(s.Points, points...)
}

// WireBytes returns the simulated size of communicating this streamline.
// With geometry=false only the solver state is sent (paper §8).
func (s *Streamline) WireBytes(geometry bool) int64 {
	if !geometry {
		return StateBytes
	}
	return StateBytes + int64(s.Verts)*PointBytes
}

// MemoryBytes returns the simulated resident memory of this streamline on
// a processor (geometry dominates).
func (s *Streamline) MemoryBytes() int64 { return s.WireBytes(true) }

// ArcLength returns the polyline length of the geometry.
func (s *Streamline) ArcLength() float64 {
	total := 0.0
	for i := 1; i < len(s.Points); i++ {
		total += s.Points[i].Dist(s.Points[i-1])
	}
	return total
}

// String implements fmt.Stringer.
func (s *Streamline) String() string {
	return fmt.Sprintf("streamline %d: %s, %d pts, block %d, t=%.4g",
		s.ID, s.Status, s.Verts, s.Block, s.T)
}

// Marshal encodes the streamline (with geometry) to a compact binary
// form, suitable for spilling results to disk or checking wire sizes.
func (s *Streamline) Marshal() []byte {
	// One exact-size allocation, filled by direct offset writes — the
	// header is 11 words (see Unmarshal), each point 3.
	buf := make([]byte, (11+3*len(s.Points))*8)
	at := 0
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[at:], v)
		at += 8
	}
	put := func(f float64) { putU(math.Float64bits(f)) }
	putU(uint64(int64(s.ID)))
	put(s.Seed.X)
	put(s.Seed.Y)
	put(s.Seed.Z)
	put(s.T)
	put(s.H)
	put(s.Release)
	putU(uint64(int64(s.Steps)))
	putU(uint64(int64(s.Status)))
	putU(uint64(int64(s.Block)))
	putU(uint64(int64(len(s.Points))))
	for _, p := range s.Points {
		put(p.X)
		put(p.Y)
		put(p.Z)
	}
	return buf
}

// Unmarshal decodes a streamline encoded by Marshal.
func Unmarshal(data []byte) (*Streamline, error) {
	const word = 8
	need := 11 * word
	if len(data) < need {
		return nil, fmt.Errorf("trace: short buffer (%d bytes)", len(data))
	}
	at := 0
	getU := func() uint64 {
		v := binary.LittleEndian.Uint64(data[at:])
		at += word
		return v
	}
	getF := func() float64 { return math.Float64frombits(getU()) }
	s := &Streamline{}
	s.ID = int(int64(getU()))
	s.Seed = vec.Of(getF(), getF(), getF())
	s.T = getF()
	s.H = getF()
	s.Release = getF()
	s.Steps = int(int64(getU()))
	s.Status = Status(int64(getU()))
	s.Block = grid.BlockID(int64(getU()))
	// Compared by division: n*3*word overflows for a hostile count.
	n := int64(getU())
	if n < 0 || n > int64(len(data)-at)/(3*word) {
		return nil, fmt.Errorf("trace: corrupt point count %d", n)
	}
	s.Verts = int(n)
	s.Points = make([]vec.V3, n)
	for i := range s.Points {
		s.Points[i] = vec.Of(getF(), getF(), getF())
	}
	s.P = s.Seed
	if n > 0 {
		s.P = s.Points[n-1]
	}
	if n > 1 {
		s.Prev = s.Points[n-2]
	}
	return s, nil
}
