// Segment tapes: integrate once, simulate many (DESIGN.md §12).
//
// Every cell of a problem — whatever its algorithm, processor count,
// prefetch policy or fault plan — integrates the same streamlines
// through the same block-exit segments (core.Tape explains why), so the
// campaign keeps one tape per memoized problem and lets later cells
// replay it. core does the recording and the replaying; this file
// decides which cells get a tape, how long a tape lives and how much
// memory the tapes may hold. Each rule below was chosen by a
// measurement on the repository's benchmark, quoted in DESIGN.md §12.

package experiments

import (
	"weak"

	"repro/internal/core"
)

// tapeBudget bounds the host memory the campaign's tapes hold together,
// and so each of them alone. It is sized to the largest tape of the
// default-scale campaign — thermal/dense, 22,000 streamlines × 801
// points × 24 B ≈ 423 MB — so that every default-scale problem can be
// taped whole. To stay within it, tapes of other problems that no cell
// is using are evicted, least recently attached first — before a
// recording, to make room for its estimated size, and again after it. A
// tape that would pass the budget alone is closed: it keeps the lines it
// has and records no more. Tapes in use are never evicted, so cells of
// several large problems running at once can exceed the budget together
// until one of them finishes; the ledger's BytesPeak says if they did.
const tapeBudget = 512 << 20

// TapeStats is the campaign's tape ledger (slbench -json's "tape"
// block).
type TapeStats struct {
	// BytesPeak is the most host memory the tapes held together, read
	// each time a taped cell finished or a recording began.
	BytesPeak int64 `json:"bytes_peak"`
	// Lines counts streamlines recorded, re-recordings included.
	Lines int64 `json:"lines"`
	// StepsIntegrated and StepsReplayed split the accepted steps of the
	// cells that ran with a tape: integrated (and recorded) against
	// delivered from a line. Cells that ran without a tape — a problem's
	// first, CollectTraces and NoGeometry configurations — are in
	// neither.
	StepsIntegrated int64 `json:"steps_integrated"`
	StepsReplayed   int64 `json:"steps_replayed"`
	// Recordings counts cells that ran as a tape's recorder.
	Recordings int64 `json:"recordings"`
	// Evictions counts tapes dropped to stay within the budget,
	// DroppedIdle tapes the garbage collector took while the campaign
	// was idle.
	Evictions   int64 `json:"evictions"`
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
	// cells counts the cells admitted so far. The first runs untaped: a
	// problem asked for once must cost nothing.
	cells int
	// tape is held strongly while any Run or RunKeys is in flight and
	// only through idle while none is, so that an idle campaign gives the
	// memory back at the next garbage collection and keeps it if work
	// arrives first.
	tape *core.Tape
	idle weak.Pointer[core.Tape]
	// users counts the cells running with tape. recording is non-nil
	// while one of them is the tape's recorder — then the only one — and
	// is closed when that cell finishes.
	users     int
	recording chan struct{}
	// used orders the tapes by their last attachment.
	used uint64
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

// attachTape admits one cell of problem e and returns the tape it runs
// with, nil for none; a non-nil tape must be handed back to detachTape
// when the cell has run. The problem's first cell runs untaped. The
// second records; a cell that arrives while another records waits for it
// — the per-key singleflight one level down — so a streamline is
// integrated at most twice per campaign whatever the timing. A recorder
// that fails (the Figure 13 OOM) leaves its lines in place and the next
// cell records the rest.
func (c *Campaign) attachTape(e *problemEntry) *core.Tape {
	c.probMu.Lock()
	defer c.probMu.Unlock()
	if e.cells++; e.cells == 1 {
		return nil
	}
	for {
		if e.tape == nil {
			e.tape = core.NewTape(&e.prob, c.tapeLimit, &c.tapeCount)
		}
		if !e.tape.Complete() && !e.tape.Closed() {
			if wait := e.recording; wait != nil {
				c.probMu.Unlock()
				<-wait
				c.probMu.Lock()
				continue
			}
			e.recording = make(chan struct{})
			c.tapeStats.Recordings++
			// Make room now for what the recording will add, not when it
			// is found to have overrun the budget.
			c.trimTapes(e, e.tape.Estimate()-e.tape.Bytes())
		}
		e.users++
		c.tapeClock++
		e.used = c.tapeClock
		return e.tape
	}
}

func (c *Campaign) detachTape(e *problemEntry) {
	c.probMu.Lock()
	defer c.probMu.Unlock()
	e.users--
	if e.recording != nil {
		// While a tape records, its recorder is its only user.
		close(e.recording)
		e.recording = nil
	}
	c.trimTapes(e, 0)
}

// trimTapes evicts unused tapes of problems other than keep, least
// recently attached first, until the tapes, and room bytes more, fit the
// budget.
func (c *Campaign) trimTapes(keep *problemEntry, room int64) {
	var total int64
	for _, e := range c.problems {
		if e.tape != nil {
			total += e.tape.Bytes()
		}
	}
	c.tapeStats.BytesPeak = max(c.tapeStats.BytesPeak, total)
	for total+room > c.tapeLimit {
		var oldest *problemEntry
		for _, e := range c.problems {
			if e != keep && e.tape != nil && e.users == 0 && (oldest == nil || e.used < oldest.used) {
				oldest = e
			}
		}
		if oldest == nil {
			return
		}
		total -= oldest.tape.Bytes()
		oldest.tape = nil
		c.tapeStats.Evictions++
	}
}
