package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/integrate"
	"repro/internal/trace"
	"repro/internal/vec"
)

// A Tape is the segment tape of one Problem (DESIGN.md §12, "Integrate
// once, simulate many"): the recorded outcome of every worker.advance
// call of every streamline, kept so that runs of the same problem replay
// the integration instead of repeating it.
//
// A segment — one advance call — is a pure function of the problem:
// advance integrates from the streamline's own state (P, T, H, remaining
// step budget) to the exit of the block that holds P, with no scheduling
// quantum, and worker.segment bounds it by Decomp().Bounds(sl.Block)
// itself, so no caller can hand it other bounds.
// So the k-th segment of streamline i is the same in every run of the
// problem, whatever the algorithm, processor count, prefetch policy,
// injection schedule or fault plan: exactly what the golden digests pin.
//
// The tape holds one line per seed, one record per segment and no
// geometry: the simulated machine reads a streamline's curve only as a
// vertex count and a two-point tail (trace.Streamline), and a record
// carries both. A line is recorded whole — seed to termination, outside
// virtual time — by the first run that touches its streamline or one
// that helps (below), and never written again; every run holding the
// tape, that one included, replays it, unless the run keeps curves
// (CollectTraces), whose streamlines integrate and leave the tape alone. Any number of runs may hold a tape
// at once: they share the recording between them as their simulations
// reach the seeds. A run that needs a line another run is recording does
// not wait for it: it records the lowest line no run has claimed and then
// looks again, and it blocks only when every line left is being recorded.
// So two cells of a fresh problem do not form a convoy — the trailing one
// asleep on each line the leading one holds — each streamline is
// integrated once whatever the timing, and no run sleeps while a line is
// left unclaimed.
type Tape struct {
	lines  []tapeLine
	scan   atomic.Int64 // every line below it is done
	bytes  atomic.Int64
	filled atomic.Int64
	count  *TapeCounters
}

// TapeCounters accumulates, over every run of every tape that shares it,
// how much integration the tapes delivered and how much they saved.
type TapeCounters struct {
	Lines           atomic.Int64 // lines recorded
	StepsIntegrated atomic.Int64 // accepted steps integrated by runs holding a tape
	StepsReplayed   atomic.Int64 // accepted steps delivered from a line instead
}

// tapeLine is one streamline, start to finish. segs is written once,
// under mu, before done is set.
type tapeLine struct {
	mu   sync.Mutex
	done atomic.Bool
	segs []tapeSeg
}

// tapeSeg is what one advance call left behind: the streamline's state at
// the segment's exit.
type tapeSeg struct {
	steps   int     // accepted steps so far, this segment included
	t, h    float64 // integration time and solver step size
	p, prev vec.V3  // head, and the position one accepted step before it
	reason  integrate.StopReason
}

// NewTape returns an empty tape for p. Its runs add to count, which tapes
// may share.
func NewTape(p *Problem, count *TapeCounters) *Tape {
	t := &Tape{lines: make([]tapeLine, len(p.Seeds)), count: count}
	t.bytes.Store(int64(len(t.lines)) * int64(unsafe.Sizeof(t.lines[0])))
	return t
}

// Complete reports whether every streamline's line is recorded: runs
// holding a complete tape integrate nothing.
func (t *Tape) Complete() bool { return t.filled.Load() == int64(len(t.lines)) }

// Bytes returns the host memory the tape holds.
func (t *Tape) Bytes() int64 { return t.bytes.Load() }

// line returns the segments of streamline id, which w records first if
// no run has. While another run holds the line, w records unclaimed lines
// instead of waiting for it.
func (t *Tape) line(w *worker, id int) []tapeSeg {
	ln := &t.lines[id]
	for !ln.done.Load() {
		if ln.mu.TryLock() {
			t.fill(w, id)
		} else if !t.help(w) {
			ln.mu.Lock()
			t.fill(w, id)
		}
	}
	return ln.segs
}

// help records the lowest line no run has claimed, and reports false if
// there is none.
func (t *Tape) help(w *worker) bool {
	for i := t.scan.Load(); i < int64(len(t.lines)); i++ {
		if ln := &t.lines[i]; ln.done.Load() {
			t.scan.CompareAndSwap(i, i+1)
		} else if ln.mu.TryLock() {
			t.fill(w, int(i))
			return true
		}
	}
	return false
}

// fill records line id unless a run did while w took its lock, and
// releases the lock.
func (t *Tape) fill(w *worker, id int) {
	ln := &t.lines[id]
	if !ln.done.Load() {
		ln.segs = w.record(id)
		t.bytes.Add(int64(cap(ln.segs)) * int64(unsafe.Sizeof(tapeSeg{})))
		t.filled.Add(1)
		t.count.Lines.Add(1)
		ln.done.Store(true)
	}
	ln.mu.Unlock()
}

// replay moves sl over the segment as integrating it would have, and
// returns what the integrator would have returned, less the points. The
// vertex count advances by the segment's steps rather than to a recorded
// total: a NoGeometry run has shed vertices on the way.
func (seg *tapeSeg) replay(sl *trace.Streamline) integrate.AdvectResult {
	res := integrate.AdvectResult{P: seg.p, T: seg.t, Steps: seg.steps - sl.Steps, Reason: seg.reason}
	sl.Verts += res.Steps
	sl.P, sl.Prev, sl.T, sl.H, sl.Steps = seg.p, seg.prev, seg.t, seg.h, seg.steps
	return res
}

// account adds one run's step counts to the tape's counters.
func (t *Tape) account(integrated, replayed int64) {
	t.count.StepsIntegrated.Add(integrated)
	t.count.StepsReplayed.Add(replayed)
}
