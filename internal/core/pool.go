package core

import (
	"fmt"
	"sort"

	"repro/internal/grid"
	"repro/internal/trace"
)

// pool is the Load On Demand inner loop (paper Section 4.2), shared by
// the ondemand and stealing rows (poolWorker, stealing.go): streamlines
// whose current block is resident are workable; the rest wait in pending
// keyed by block, and a block is read from disk only when nothing is
// workable.
//
// Seeds whose injection schedule releases them in the future (DESIGN.md
// §9) wait in parked, invisible to every pool decision — they attract no
// block loads, no steals and no compute — until releaseReady moves them
// into circulation at their scheduled time.
type pool struct {
	r *runState
	w *worker

	pending  map[grid.BlockID][]*trace.Streamline
	workable []*trace.Streamline
	parked   releaseQueue[*trace.Streamline]
	active   int

	// inHand is the streamline popped from workable while its advance's
	// compute charge elapses — in neither list, so the fault-recovery
	// salvage must read it here if the processor dies mid-advance.
	inHand *trace.Streamline
}

func newPool(r *runState, w *worker) *pool {
	pl := &pool{r: r, w: w, pending: make(map[grid.BlockID][]*trace.Streamline)}
	pl.parked.key = slKey
	w.resident = pl.resident
	return pl
}

// resident lists every streamline the pool holds — pending, workable,
// parked, and the one in hand mid-advance — for the salvage.
func (pl *pool) resident() ([]*trace.Streamline, []seedRec) {
	var sls []*trace.Streamline
	for _, b := range sortedBlocks(pl.pending) {
		sls = append(sls, pl.pending[b]...)
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
		pl.pending[sl.Block] = append(pl.pending[sl.Block], sl)
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
		pl.pending[sl.Block] = append(pl.pending[sl.Block], sl)
		return false
	}
	prev := sl.Block
	pl.inHand = sl
	if sl.Steps >= pl.r.prob.maxSteps() {
		sl.Status = trace.MaxedOut
	} else {
		pl.w.advance(sl, ev, pl.r.prob.Provider.Decomp().Bounds(sl.Block))
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
// (deterministic tie-break on block ID) and makes its streamlines
// workable. Callers must bail out if the run failed.
func (pl *pool) loadBest() {
	best := grid.NoBlock
	bestCount := 0
	for b, sls := range pl.pending {
		if len(sls) > bestCount || (len(sls) == bestCount && (best == grid.NoBlock || b < best)) {
			best, bestCount = b, len(sls)
		}
	}
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
	pl.workable = append(pl.workable, pl.pending[best]...)
	delete(pl.pending, best)
}

// runnersUp returns up to n pending blocks other than best, most-wanted
// first (deterministic tie-break on block ID) — the blocks loadBest
// would pick next.
func (pl *pool) runnersUp(best grid.BlockID, n int) []grid.BlockID {
	out := make([]grid.BlockID, 0, len(pl.pending))
	for b := range pl.pending {
		if b != best {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := len(pl.pending[out[i]]), len(pl.pending[out[j]])
		if ci != cj {
			return ci > cj
		}
		return out[i] < out[j]
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
