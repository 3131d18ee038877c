package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Static Allocation (paper Section 4.1): "we statically allocate blocks to
// processors such that the first of n processors is assigned the first 1/n
// of the blocks... Each streamline is integrated until it leaves the
// blocks owned by the processor. As each streamline moves between blocks,
// it is communicated to the processor that owns the block in which it
// currently resides. A globally communicated streamline count is
// maintained... Once the count goes to zero, all processors terminate."
//
// Processor 0 doubles as the count coordinator: workers report
// terminations to it and it broadcasts the global all-done signal.

// staticOwner computes the block→processor assignment: contiguous 1/n
// slices in block-ID order. Processor i owns blocks
// [i·B/n, (i+1)·B/n).
func staticOwner(numBlocks, procs int) func(grid.BlockID) int {
	return func(b grid.BlockID) int {
		if numBlocks == 0 {
			return 0
		}
		i := int(b) * procs / numBlocks
		// Integer-division inversion can land one slice off at the
		// boundaries; nudge into the owning slice.
		for i > 0 && int(b) < i*numBlocks/procs {
			i--
		}
		for i < procs-1 && int(b) >= (i+1)*numBlocks/procs {
			i++
		}
		return i
	}
}

// staticDied is Static Allocation's recovery row: the typed refusal.
// Block ownership dies with the processor and no survivor holds its
// assignment — the asymmetry the paper's Section 5 comparison makes
// measurable.
func (r *runState) staticDied(idx int, _ []comm.Envelope) {
	r.fail(&faults.UnrecoverableError{
		Algorithm: string(StaticAlloc),
		Proc:      idx,
		Time:      r.kernel.Now(),
		Reason:    "block ownership and resident streamlines die with the processor; no survivor holds its assignment",
	})
}

func (r *runState) buildStatic() {
	n := r.cfg.Procs
	d := r.prob.Provider.Decomp()
	owner := staticOwner(d.NumBlocks(), n)

	// Pre-route every seed to the owner of its block (initial seed
	// distribution; not charged as communication, matching the paper's
	// setup phase). Seeds with future release times are pre-routed too —
	// the owner parks them until the injection schedule activates them.
	initial := make([][]*trace.Streamline, n)
	for _, rec := range r.seedRecords() {
		o := owner(rec.block)
		initial[o] = append(initial[o], r.streamline(rec))
	}

	for i := 0; i < n; i++ {
		lo := i * d.NumBlocks() / n
		hi := (i + 1) * d.NumBlocks() / n
		// The pinned working set doubles as the prefetch preload order:
		// owned blocks are loaded exactly once each, so streaming the
		// next unloaded ones behind every cold demand hides the pinned
		// load sequence.
		owned := make([]grid.BlockID, 0, hi-lo)
		var w *worker
		proc := r.kernel.Spawn(fmt.Sprintf("static-%d", i), func(p *sim.Proc) {
			r.staticWorker(w, owner, initial[i], owned)
		})
		// Owned blocks stay resident for the whole run — that is what
		// makes Static Allocation's I/O ideal — so capacity equals the
		// owned count and every owned block is pinned.
		w = r.newWorker(proc, i, max(hi-lo, 1))
		for b := lo; b < hi; b++ {
			w.cache.Pin(grid.BlockID(b))
			owned = append(owned, grid.BlockID(b))
		}
	}
}

// staticWorker is the per-processor body of the Static Allocation
// algorithm; preload is the owned block set in pin (ascending ID) order,
// used by the prefetch hook.
func (r *runState) staticWorker(w *worker, owner func(grid.BlockID) int, initial []*trace.Streamline, preload []grid.BlockID) {
	defer func() { w.stats.EndTime = w.proc.Now() }()

	// Split the pre-routed seeds into the immediately workable queue (a
	// LIFO stack) and the parked future releases.
	queue := make([]*trace.Streamline, 0, len(initial))
	activate := func(sl *trace.Streamline) {
		w.noteActivated(1)
		queue = append(queue, sl)
	}
	future := releaseQueue[*trace.Streamline]{key: slKey}
	for _, sl := range initial {
		w.adoptStreamline(sl)
		if sl.Release > w.proc.Now() {
			future.push(sl)
		} else {
			activate(sl)
		}
	}
	if !w.checkMemory("initial streamlines") {
		return
	}

	me := w.end.Index()
	coordinator := me == 0
	// remaining is coordinator-only: streamlines not yet terminated
	// (Problem.Validate guarantees at least one).
	remaining := len(r.prob.Seeds)
	done := false

	// reportDone forwards termination counts to the coordinator; the
	// coordinator short-circuits its own reports locally.
	reportDone := func(count int) {
		if coordinator {
			remaining -= count
			if remaining == 0 {
				w.end.Broadcast(msgAllDone{})
				done = true
			}
			return
		}
		w.end.Send(0, msgDone{count: count})
	}

	handle := func(env comm.Envelope) bool {
		switch m := env.Payload.(type) {
		case msgStreamlines:
			// Migrated arrivals were advanced by their sender, so they are
			// always already released.
			for _, sl := range m.sls {
				w.adoptStreamline(sl)
				activate(sl)
			}
		case msgDone:
			if coordinator {
				reportDone(m.count)
			}
		case msgAllDone:
			done = true
		}
		return done
	}

	for !done {
		// Drain any pending messages first so incoming streamlines join
		// this round's queue.
		if w.drain(handle) || r.failed() {
			return
		}
		future.release(w, activate)

		if len(queue) == 0 {
			// Nothing to integrate: wait for streamlines or termination —
			// or, with owned seeds still parked on the injection schedule,
			// for their release.
			if env, got := w.recvOrRelease(future.next()); got {
				handle(env)
			}
			continue
		}

		sl := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		if sl.Steps >= r.prob.maxSteps() {
			sl.Status = trace.MaxedOut
		} else {
			cold := !w.cache.Has(sl.Block)
			ev := w.cache.Get(sl.Block) // owned blocks load once, stay pinned
			if cold {
				// A first touch of an owned block: stream the next
				// unloaded owned blocks in behind it — issued after the
				// demand read (speculation must not claim the server it
				// is about to need), overlapping the advance below.
				w.prefetchPreload(preload)
			}
			w.advance(sl, ev, r.prob.Provider.Decomp().Bounds(sl.Block))
		}
		if !w.checkMemory("streamline geometry") {
			return
		}

		if sl.Status.Terminated() {
			r.complete(w, sl)
			reportDone(1)
			continue
		}
		// Still active in a new block: keep it if we own it, otherwise
		// communicate it (geometry and all) to the owner.
		if o := owner(sl.Block); o == me {
			queue = append(queue, sl)
		} else {
			w.sendStreamlines(o, []*trace.Streamline{sl})
		}
	}
}
