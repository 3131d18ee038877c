// Segment tapes: integrate once, simulate many (DESIGN.md §12).
//
// Every cell of a problem — a dataset, a seeding, steady or unsteady —
// integrates the same streamlines through the same block-exit segments
// whatever its algorithm, processor count, prefetch policy, release
// schedule or fault plan (core.Tape explains why), so the campaign keeps
// one tape per memoized problem and hands it to every cell. core does
// the recording and the replaying — a line is recorded by whichever cell
// touches its streamline first, and a cell that finds its line being
// recorded records the tape's other lines instead of waiting, so cells
// that meet on a fresh problem share the integration with every core
// busy; this file decides only how long a tape lives. A tape holds segment
// records and no geometry — a few megabytes for the largest problem — so
// there is no bound to manage.

package experiments

import (
	"weak"

	"repro/internal/core"
)

// TapeStats is the campaign's tape ledger (slbench -json's "tape"
// block).
type TapeStats struct {
	// BytesPeak is the most host memory the tapes held together, read
	// each time a cell finished.
	BytesPeak int64 `json:"bytes_peak"`
	// Lines counts streamlines recorded, re-recordings included.
	Lines int64 `json:"lines"`
	// StepsIntegrated counts the accepted steps the campaign's cells
	// integrated (recording a line, or keeping their curves) and
	// StepsReplayed those its cells were delivered from a line.
	StepsIntegrated int64 `json:"steps_integrated"`
	StepsReplayed   int64 `json:"steps_replayed"`
	// Recordings counts tapes begun: one per problem — per (dataset,
	// seeding, steady/unsteady) the campaign ran — and one more each time
	// a tape dropped while idle is needed again.
	Recordings int64 `json:"recordings"`
	// DroppedIdle counts tapes the garbage collector took while the
	// campaign was idle.
	DroppedIdle int64 `json:"dropped_idle"`
}

// TapeStats returns the ledger so far.
func (c *Campaign) TapeStats() TapeStats {
	c.probMu.Lock()
	defer c.probMu.Unlock()
	for _, e := range c.problems {
		c.reviveTape(e)
	}
	st := c.tapeStats
	st.Lines = c.tapeCount.Lines.Load()
	st.StepsIntegrated = c.tapeCount.StepsIntegrated.Load()
	st.StepsReplayed = c.tapeCount.StepsReplayed.Load()
	return st
}

// problemTape is the tape state of one memoized problem, guarded by
// Campaign.probMu.
type problemTape struct {
	// tape is held strongly while any Run or RunKeys is in flight and
	// only through idle while none is, so that an idle campaign gives the
	// memory back at the next garbage collection and keeps it if work
	// arrives first.
	tape *core.Tape
	idle weak.Pointer[core.Tape]
}

// enter and leave bracket every stretch of work. The campaign is idle
// when none is in flight.
func (c *Campaign) enter() {
	c.probMu.Lock()
	defer c.probMu.Unlock()
	if c.active++; c.active == 1 {
		for _, e := range c.problems {
			c.reviveTape(e)
		}
	}
}

func (c *Campaign) leave() {
	c.probMu.Lock()
	defer c.probMu.Unlock()
	if c.active--; c.active == 0 {
		for _, e := range c.problems {
			if e.tape != nil {
				e.idle = weak.Make(e.tape)
				e.tape = nil
			}
		}
	}
}

// reviveTape settles what became of a tape e held through idle only:
// the collector took it, or it is still there and, if the campaign is
// busy again, held strongly once more.
func (c *Campaign) reviveTape(e *problemEntry) {
	var none weak.Pointer[core.Tape]
	if e.idle == none {
		return
	}
	t := e.idle.Value()
	if t == nil {
		c.tapeStats.DroppedIdle++
	}
	if t == nil || c.active > 0 {
		e.tape, e.idle = t, none
	}
}

// attachTape returns the tape a cell of problem e runs with, a new one
// if the problem has none.
func (c *Campaign) attachTape(e *problemEntry) *core.Tape {
	c.probMu.Lock()
	defer c.probMu.Unlock()
	if e.tape == nil {
		e.tape = core.NewTape(&e.prob, &c.tapeCount)
		c.tapeStats.Recordings++
	}
	return e.tape
}

// detachTape reads the tapes' size when a cell has run.
func (c *Campaign) detachTape() {
	c.probMu.Lock()
	defer c.probMu.Unlock()
	var total int64
	for _, held := range c.problems {
		if held.tape != nil {
			total += held.tape.Bytes()
		}
	}
	c.tapeStats.BytesPeak = max(c.tapeStats.BytesPeak, total)
}
