package core

import (
	"fmt"
	"slices"

	"repro/internal/grid"
	"repro/internal/trace"
)

// pool is the Load On Demand inner loop (paper Section 4.2), shared by
// the ondemand and stealing rows (poolWorker, stealing.go): streamlines
// whose current block is resident are workable; the rest wait in pending,
// piled by block, and a block is read from disk only when nothing is
// workable.
//
// Seeds whose injection schedule releases them in the future (DESIGN.md
// §9) wait in parked, invisible to every pool decision — they attract no
// block loads, no steals and no compute — until releaseReady moves them
// into circulation at their scheduled time.
type pool struct {
	r *runState
	w *worker

	pending  blocks[pile[*trace.Streamline]]
	workable []*trace.Streamline
	parked   releaseQueue[*trace.Streamline]
	active   int

	// inHand is the streamline popped from workable while its advance's
	// compute charge elapses — in neither list, so the fault-recovery
	// salvage must read it here if the processor dies mid-advance.
	inHand *trace.Streamline
}

func newPool(r *runState, w *worker) *pool {
	pl := &pool{r: r, w: w}
	pl.parked.key = slKey
	w.resident = pl.resident
	return pl
}

// resident lists every streamline the pool holds — pending, workable,
// parked, and the one in hand mid-advance — for the salvage.
func (pl *pool) resident() ([]*trace.Streamline, []seedRec) {
	var sls []*trace.Streamline
	for _, p := range pl.pending.all() {
		sls = append(sls, p...)
	}
	sls = append(append(sls, pl.workable...), pl.parked.items...)
	if pl.inHand != nil {
		sls = append(sls, pl.inHand)
	}
	return sls, nil
}

// place routes an active streamline to workable or pending depending on
// whether its block is resident.
func (pl *pool) place(sl *trace.Streamline) {
	if _, ok := pl.w.cache.TryGet(sl.Block); ok {
		pl.workable = append(pl.workable, sl)
	} else {
		push(&pl.pending, sl.Block, sl)
	}
}

// adopt takes ownership of a streamline (a fresh seed or a stolen or
// migrated arrival), accounting for its memory. A seed the injection
// schedule has not yet released is parked instead of placed; arrivals
// are always already released (work only migrates after it was advanced
// somewhere, which requires release).
func (pl *pool) adopt(sl *trace.Streamline) {
	pl.w.adoptStreamline(sl)
	pl.active++
	if sl.Release > pl.w.proc.Now() {
		pl.parked.push(sl)
		return
	}
	pl.activate(sl)
}

// activate puts a released streamline into circulation.
func (pl *pool) activate(sl *trace.Streamline) {
	pl.w.noteActivated(1)
	pl.place(sl)
}

// releaseReady moves every parked streamline whose release time has
// arrived into circulation.
func (pl *pool) releaseReady() { pl.parked.release(pl.w, pl.activate) }

// advanceOne integrates the most recent workable streamline through its
// current block, then re-places or completes it. It reports whether the
// streamline terminated; callers must bail out if the run failed (the
// memory check may trip).
func (pl *pool) advanceOne() (terminated bool) {
	sl := pl.workable[len(pl.workable)-1]
	pl.workable = pl.workable[:len(pl.workable)-1]

	ev, ok := pl.w.cache.TryGet(sl.Block)
	if !ok {
		// Evicted while it waited; back to pending.
		push(&pl.pending, sl.Block, sl)
		return false
	}
	prev := sl.Block
	pl.inHand = sl
	if sl.Steps >= pl.r.prob.maxSteps() {
		sl.Status = trace.MaxedOut
	} else {
		pl.w.advance(sl, ev)
	}
	if !pl.w.checkMemory("streamline geometry") {
		pl.inHand = nil
		return false
	}
	if !sl.Status.Terminated() && !pl.w.cache.Has(sl.Block) {
		// Exited into a block we don't hold: issue its read immediately —
		// by the time the pool drains back to it, part or all of the I/O
		// has already happened.
		pl.w.prefetchOnExit(prev, sl)
	}
	if sl.Status.Terminated() {
		pl.r.complete(pl.w, sl)
		pl.active--
		pl.inHand = nil
		return true
	}
	pl.place(sl)
	pl.inHand = nil
	return false
}

// loadBest reads the pending block that unblocks the most streamlines
// (the lowest of a tie) and makes its streamlines workable. Callers must
// bail out if the run failed.
func (pl *pool) loadBest() {
	best, _ := pl.pending.fullest()
	if best == grid.NoBlock {
		// All remaining streamlines vanished from pending: impossible
		// unless bookkeeping broke.
		pl.r.fail(fmt.Errorf("core: worker %s stuck with %d active streamlines",
			pl.w.proc.Name(), pl.active))
		return
	}
	pl.w.cache.Get(best)
	// Lookahead: the next most-wanted pending blocks will be demanded as
	// soon as best's streamlines drain, so start their reads now — after
	// the demand read, never before it (speculation must not claim the
	// server a demand read is about to need), overlapping the compute
	// this load just unblocked.
	if pl.r.pf != nil {
		pl.w.prefetchAll(pl.runnersUp(best, pl.r.pf.Depth()))
	}
	if !pl.w.checkMemory("block cache") {
		return
	}
	pl.workable = append(pl.workable, pl.pending.get(best)...)
	pl.pending.set(best, nil)
}

// runnersUp returns up to n pending blocks other than best, most-wanted
// first (the lowest of a tie) — the blocks loadBest would pick next.
func (pl *pool) runnersUp(best grid.BlockID, n int) []grid.BlockID {
	out := make([]grid.BlockID, 0, pl.pending.len())
	for b := range pl.pending.all() {
		if b != best {
			out = append(out, b)
		}
	}
	// Stable, so blocks of equal count keep their ascending walk order.
	slices.SortStableFunc(out, func(x, y grid.BlockID) int {
		return len(pl.pending.get(y)) - len(pl.pending.get(x))
	})
	return out[:min(n, len(out))]
}
