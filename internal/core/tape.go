package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/integrate"
	"repro/internal/trace"
	"repro/internal/vec"
)

// A Tape is the segment tape of one Problem (DESIGN.md §12, "Integrate
// once, simulate many"): the recorded outcome of every worker.advance
// call of every streamline, kept so that later runs of the same problem
// replay the integration instead of repeating it.
//
// A segment — one advance call — is a pure function of the problem:
// advance integrates from the streamline's own state (P, T, H, remaining
// step budget) to the exit of the block that holds P, with no scheduling
// quantum, and all three call sites bound it by Decomp().Bounds(sl.Block).
// So the k-th segment of streamline i is the same in every run of the
// problem, whatever the algorithm, processor count, prefetch policy,
// injection schedule or fault plan: exactly what the golden digests pin.
//
// The tape holds one line per seed: the streamline's whole geometry and
// one record per segment. A line is published atomically, once, when a
// run that integrated the streamline finishes it; from then on every run
// holding the tape replays that streamline. Published lines are never
// written again, so any number of runs may replay a tape at once.
// Recording is not concurrent: at most one run at a time may hold a tape
// that is neither Complete nor Closed (experiments.Campaign's admission
// rule), because the notes of unfinished streamlines are plain memory.
//
// A run whose config sets CollectTraces must not carry a tape (its
// Result would alias the lines), and a NoGeometry run publishes nothing
// (its streamlines drop their geometry on every send).
type Tape struct {
	lines []atomic.Pointer[tapeLine]
	// pending[i] is the recording run's notes on streamline i, one per
	// segment so far, handed to the line when the streamline completes.
	// A streamline restarted from its seed re-notes from segment 0.
	pending [][]tapeSeg
	// limit bounds Bytes: a publish that would pass it closes the tape.
	// estimate is Estimate's answer.
	limit, estimate int64
	bytes           atomic.Int64
	filled          atomic.Int64
	closed          atomic.Bool
	count           *TapeCounters
}

// TapeCounters accumulates, over every run of every tape that shares it,
// how much integration the tapes delivered and how much they saved.
type TapeCounters struct {
	Lines           atomic.Int64 // lines published
	StepsIntegrated atomic.Int64 // accepted steps integrated by runs holding a tape
	StepsReplayed   atomic.Int64 // accepted steps delivered from a line instead
}

// tapeLine is one streamline, start to finish.
type tapeLine struct {
	// pts[0] is the seed and pts[i] the position after accepted step i:
	// the finished streamline's own Points, handed over, not copied.
	pts  []vec.V3
	segs []tapeSeg
}

// tapeSeg is what one advance call left behind.
type tapeSeg struct {
	steps  int     // accepted steps so far, this segment included
	t, h   float64 // integration time and solver step size at exit
	reason integrate.StopReason
}

// NewTape returns an empty tape for p. Its Bytes never pass limit; its
// runs add to count, which tapes may share.
func NewTape(p *Problem, limit int64, count *TapeCounters) *Tape {
	seeds := len(p.Seeds)
	t := &Tape{
		lines:   make([]atomic.Pointer[tapeLine], seeds),
		pending: make([][]tapeSeg, seeds),
		limit:   limit,
		count:   count,
	}
	t.bytes.Store(int64(seeds) * int64(unsafe.Sizeof(t.lines[0])+unsafe.Sizeof(t.pending[0])))
	t.estimate = t.bytes.Load() + int64(seeds)*int64(p.maxSteps()+1)*int64(unsafe.Sizeof(vec.V3{}))
	return t
}

// Estimate returns about what the tape will hold once complete, for
// making room before it is recorded: every streamline at its full step
// budget. Streamlines that stop early make the tape smaller; records and
// spare capacity in the geometry arrays make it somewhat larger.
func (t *Tape) Estimate() int64 { return t.estimate }

// Complete reports whether every streamline's line is published: runs
// holding a complete tape integrate nothing.
func (t *Tape) Complete() bool { return t.filled.Load() == int64(len(t.lines)) }

// Closed reports whether the tape stopped recording because the next
// line would have passed its limit. A closed tape keeps replaying the
// lines it has.
func (t *Tape) Closed() bool { return t.closed.Load() }

// Bytes returns the host memory the tape holds.
func (t *Tape) Bytes() int64 { return t.bytes.Load() }

// line returns the published line of streamline id, or nil.
func (t *Tape) line(id int) *tapeLine { return t.lines[id].Load() }

// note records the segment sl just integrated, from sl's state at its
// end. sl.Seg is the segment's index, so a streamline restarted from its
// seed overwrites the notes of its lost first attempt.
func (t *Tape) note(sl *trace.Streamline, reason integrate.StopReason) {
	if t.closed.Load() {
		return
	}
	t.pending[sl.ID] = append(t.pending[sl.ID][:sl.Seg],
		tapeSeg{steps: sl.Steps, t: sl.T, h: sl.H, reason: reason})
}

// replay moves sl over its next segment as integrating it would have,
// and returns what the integrator would have returned (less the points:
// sl.Points becomes a view of the line, clipped to its own length so
// that an append reallocates instead of writing the tape's memory).
func (ln *tapeLine) replay(sl *trace.Streamline) integrate.AdvectResult {
	seg := ln.segs[sl.Seg]
	res := integrate.AdvectResult{P: ln.pts[seg.steps], T: seg.t, Steps: seg.steps - sl.Steps, Reason: seg.reason}
	sl.Points = ln.pts[: seg.steps+1 : seg.steps+1]
	sl.P, sl.T, sl.H, sl.Steps = res.P, seg.t, seg.h, seg.steps
	return res
}

// account adds one run's step counts to the tape's counters.
func (t *Tape) account(integrated, replayed int64) {
	t.count.StepsIntegrated.Add(integrated)
	t.count.StepsReplayed.Add(replayed)
}

// publish makes the finished streamline sl a line, unless it already is
// one (sl was replayed), its notes or geometry are not whole (a closed
// tape; NoGeometry truncation), or the line would pass the tape's limit.
func (t *Tape) publish(sl *trace.Streamline) {
	if t.closed.Load() || t.lines[sl.ID].Load() != nil {
		return
	}
	segs := t.pending[sl.ID]
	t.pending[sl.ID] = nil
	if len(segs) != sl.Seg || len(sl.Points) != sl.Steps+1 {
		return
	}
	ln := &tapeLine{pts: sl.Points, segs: segs}
	size := int64(unsafe.Sizeof(*ln)) +
		int64(cap(ln.pts))*int64(unsafe.Sizeof(vec.V3{})) +
		int64(cap(ln.segs))*int64(unsafe.Sizeof(tapeSeg{}))
	if t.bytes.Load()+size > t.limit {
		t.closed.Store(true)
		t.pending = nil
		return
	}
	t.bytes.Add(size)
	t.lines[sl.ID].Store(ln)
	t.filled.Add(1)
	t.count.Lines.Add(1)
}
