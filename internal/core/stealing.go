package core

import (
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Work Stealing (DESIGN.md §6): the decentralized ablation of the paper's
// central claim. Every processor is a Load On Demand processor — the
// same poolWorker loop below over the same split and cache — but when
// its local pool runs dry it probes victims for batches of inactive
// streamlines instead of idling. There is no master and no
// global counter: termination is detected by a token circulating the
// processor ring, carrying every processor's monotone completion count.
//
// Protocol invariants:
//
//   - A streamline is resident on exactly one processor (or in flight in
//     exactly one steal reply), so summed completion counts can never
//     exceed the seed total and equality implies global termination.
//   - The token is passed only by idle processors; a busy processor holds
//     it until its pool drains, so the ring generates no traffic while
//     progress is being made elsewhere. Parked future seeds (staggered
//     injection, DESIGN.md §9) count as busy: a processor waiting on its
//     release schedule holds the token through the stall, which keeps the
//     completion-sum argument intact and prevents a zero-cost ring spin
//     at one virtual instant while the whole ring is starved.
//   - A hungry processor probes each live peer at most once, in a fresh
//     random order, then goes quiet until the token's next visit re-arms
//     it — probe traffic is bounded by token traffic, which is bounded
//     by idleness.

// --- work-stealing wire messages ---

// msgStealReq asks a victim for a batch of inactive streamlines; the
// sender is identified by the envelope.
type msgStealReq struct{}

// Bytes implements comm.Message.
func (msgStealReq) Bytes() int64 { return 16 }

// msgStealMiss is a victim's empty-handed reply (successful steals answer
// with msgStreamlines instead).
type msgStealMiss struct{}

// Bytes implements comm.Message.
func (msgStealMiss) Bytes() int64 { return 8 }

// msgToken is the termination token: counts[i] is the last completion
// count processor i wrote while holding it. regen marks a token the
// recovery layer rebuilt after the previous one died with its holder
// (counted as RingReforms by the receiver).
type msgToken struct {
	counts []int64
	regen  bool
}

// Bytes implements comm.Message.
func (m msgToken) Bytes() int64 { return 16 + int64(len(m.counts))*8 }

// --- construction ---

// buildPoolWorkers places work for the two pool rows: each processor
// gets a contiguous 1/n split of the block-grouped seeds ("grouped by
// block to enhance data locality", Section 4.2) and a private LRU block
// cache. The row's steal entry decides whether they also steal.
func (r *runState) buildPoolWorkers() {
	n := r.cfg.Procs
	recs := r.seedRecords()
	r.poolWorkers = make([]*poolWorker, n)

	for i := 0; i < n; i++ {
		mine := recs[i*len(recs)/n : (i+1)*len(recs)/n]
		var pw *poolWorker
		proc := r.kernel.Spawn(fmt.Sprintf("%s-%d", r.cfg.Algorithm, i), func(p *sim.Proc) {
			pw.run(mine)
		})
		pw = newPoolWorker(r, r.newWorker(proc, i, r.cfg.CacheBlocks), i, n)
	}
}

// poolWorker is the per-processor state of the Load On Demand and Work
// Stealing rows: one loop over one pool (pool.go). Load On Demand (paper
// Section 4.2) is the loop with nothing to steal — "Each processor
// integrates the streamlines assigned to it until streamline
// termination... loading a block from disk only when there is no more
// work to be done on the in-memory blocks... Each processor terminates
// independently when all of its streamlines have terminated" — and no
// communication at all.
type poolWorker struct {
	r  *runState
	w  *worker
	me int // endpoint index
	n  int // total processors

	pool *pool

	// completed counts terminations on this processor, monotonically; the
	// token aggregates these across the ring.
	completed int64
	done      bool

	// stealer is nil when the row's steal entry is off: no token, no
	// probes, none of their state.
	*stealer
}

// stealer is the steal-only part of a poolWorker. Every stealing
// processor is both thief and victim.
type stealer struct {
	holding bool    // this processor holds the token, until a pass's send completes
	counts  []int64 // the token's payload while held

	// Probe state for one hungry round.
	outstanding bool  // a probe is in flight, await its reply
	probeVictim int   // target of the outstanding probe
	probesLeft  int   // probes remaining before going quiet
	order       []int // victim order: a fresh permutation per round
	orderPos    int
	peers       []int
	rng         *rand.Rand
}

func newPoolWorker(r *runState, w *worker, me, n int) *poolWorker {
	pw := &poolWorker{r: r, w: w, me: me, n: n, pool: newPool(r, w)}
	r.poolWorkers[me] = pw
	if !r.alg.steal {
		return pw
	}
	pw.stealer = &stealer{rng: rand.New(rand.NewSource(int64(104729 + me)))}
	for p := 0; p < n; p++ {
		if p != me {
			pw.peers = append(pw.peers, p)
		}
	}
	if me == 0 {
		// The token starts on processor 0 — an arbitrary but fixed ring
		// position, not a coordinator: every processor treats it alike.
		pw.holding = true
		pw.counts = make([]int64, n)
	}
	pw.resetProbes()
	return pw
}

// --- main loop ---

func (pw *poolWorker) run(mine []seedRec) {
	defer func() { pw.w.stats.EndTime = pw.w.proc.Now() }()

	for _, rec := range mine {
		pw.pool.adopt(pw.r.streamline(rec))
	}
	if !pw.w.checkMemory("initial streamlines") {
		return
	}

	handle := pw.handle
	for !pw.done {
		// Stay responsive: drain requests and replies between every unit
		// of work so victims answer probes promptly.
		if pw.w.drain(handle) || pw.r.failed() {
			return
		}
		pw.pool.releaseReady()

		if len(pw.pool.workable) > 0 {
			if pw.pool.advanceOne() {
				pw.completed++
			}
			continue
		}
		if pw.pool.pending.len() > 0 {
			// No more work on loaded blocks: read the block that unblocks
			// the most streamlines.
			pw.pool.loadBest()
			continue
		}

		// Dry of released work.
		if pw.stealer != nil {
			// The token moves only when the pool is completely empty —
			// parked future seeds count as busy, so a processor waiting on
			// its injection schedule holds the token through the stall.
			// Passing while parked would let a zero-cost ring spin at one
			// virtual instant (every hop free, the release timer never
			// reached); holding instead keeps the sum argument intact,
			// since the holder's own completions are still missing. A
			// holder with no live peer to pass to keeps the token and
			// waits: adopted work may still be in flight to it.
			if pw.holding && pw.pool.active == 0 && pw.passToken() {
				continue
			}
			if !pw.outstanding && pw.probesLeft > 0 && pw.n > 1 {
				pw.probe()
				continue
			}
		}
		next, parked := pw.pool.parked.next()
		if !parked {
			if pw.pool.active > 0 {
				// Nothing resident anywhere: impossible unless bookkeeping
				// broke.
				pw.r.fail(fmt.Errorf("core: worker %s stuck with %d active streamlines",
					pw.w.proc.Name(), pw.pool.active))
				return
			}
			// Own split done. Without a fault plan that ends a Load On
			// Demand processor; under one it stays to adopt what a later
			// death may orphan, until the completion ledger is full.
			if pw.stealer == nil && (!pw.r.faultsOn || pw.r.completedTotal == len(pw.r.prob.Seeds)) {
				return
			}
		}
		// Quiet: wait for a reply, the token, adopted work, termination —
		// or this processor's next scheduled seed release.
		if env, got := pw.w.recvOrRelease(next, parked); got {
			handle(env)
		}
	}
}

// handle processes one message and reports whether the processor is done.
func (pw *poolWorker) handle(env comm.Envelope) bool {
	switch m := env.Payload.(type) {
	case msgStealReq:
		pw.reply(env.From)
	case msgStreamlines: // a successful steal reply
		for _, sl := range m.sls {
			pw.pool.adopt(sl)
		}
		pw.w.stats.StealHits++
		pw.w.proc.Trace().Mark(pw.me, obs.MarkStealHit, pw.w.proc.Now(), int64(env.From), int64(len(m.sls)))
		pw.outstanding = false
		pw.resetProbes()
		pw.w.checkMemory("stolen streamlines")
	case msgStealMiss:
		// The probe budget was spent when the probe was sent (probe());
		// a miss only frees the thief to try the next victim.
		pw.outstanding = false
	case msgToken:
		if m.regen {
			pw.w.stats.RingReforms++
		}
		pw.counts = m.counts
		pw.holding = true
		pw.resetProbes()
		pw.pool.releaseReady()
		if pw.pool.active == 0 {
			// Idle processors forward immediately; busy ones — parked
			// future seeds included — hold the token until their pool
			// drains (see the main loop for why parked work must hold).
			pw.passToken()
		}
	case msgAdopt:
		// A dead peer's streamlines, restarted from seed by the
		// recovery layer and re-homed here.
		for _, rec := range m.recs {
			pw.pool.adopt(pw.r.streamline(rec))
		}
		pw.w.stats.SeedsAdopted += int64(len(m.recs))
		pw.w.proc.Trace().Mark(pw.me, obs.MarkAdopt, pw.w.proc.Now(), int64(len(m.recs)), 0)
		if pw.stealer != nil {
			pw.resetProbes()
		}
		pw.w.checkMemory("adopted streamlines")
	case msgPeerDead:
		pw.dropPeer(m.ep)
	case msgAllDone:
		pw.done = true
	}
	return pw.done
}

// dropPeer prunes a dead peer from the probe set and cancels a probe
// outstanding against it (its reply will never come).
func (pw *poolWorker) dropPeer(peer int) {
	pw.peers = removeInt(pw.peers, peer)
	if pw.outstanding && pw.probeVictim == peer {
		pw.outstanding = false
	}
	pw.resetProbes()
}

// --- stealing ---

// resetProbes re-arms a full hungry round: one probe per live peer, in a
// fresh random permutation.
func (pw *poolWorker) resetProbes() {
	pw.probesLeft = len(pw.peers)
	pw.order = append(pw.order[:0], pw.peers...)
	pw.rng.Shuffle(len(pw.order), func(i, j int) {
		pw.order[i], pw.order[j] = pw.order[j], pw.order[i]
	})
	pw.orderPos = 0
}

// probe sends one steal request to the next victim of the current round.
func (pw *poolWorker) probe() {
	victim := pw.order[pw.orderPos%len(pw.order)]
	pw.orderPos++
	pw.probesLeft--
	pw.outstanding = true
	pw.probeVictim = victim
	pw.w.stats.StealAttempts++
	pw.w.proc.Trace().Mark(pw.me, obs.MarkStealProbe, pw.w.proc.Now(), int64(victim), 0)
	pw.w.end.Send(victim, msgStealReq{})
}

// reply answers a probe: hand over up to Batch inactive streamlines
// (keeping at least one if any remain), pending blocks first — the thief
// pays their I/O instead of us — then the oldest workable ones.
func (pw *poolWorker) reply(to int) {
	loot := pw.pickLoot()
	if len(loot) == 0 {
		pw.w.end.Send(to, msgStealMiss{})
		return
	}
	pw.pool.active -= len(loot)
	pw.w.sendStreamlines(to, loot)
}

// pickLoot selects and removes the streamlines a steal reply carries.
func (pw *poolWorker) pickLoot() []*trace.Streamline {
	pl := pw.pool
	target := pw.r.cfg.Steal.Batch
	if target > pl.active-1 {
		target = pl.active - 1
	}
	if target <= 0 {
		return nil
	}
	var loot []*trace.Streamline
	for b, sls := range pl.pending.all() {
		if len(loot) >= target {
			break
		}
		loot = append(loot, takeLast(&pl.pending, b, min(target-len(loot), len(sls)))...)
	}
	if take := target - len(loot); take > 0 && len(pl.workable) > 0 {
		if take > len(pl.workable) {
			take = len(pl.workable)
		}
		loot = append(loot, pl.workable[:take]...)
		pl.workable = append(pl.workable[:0], pl.workable[take:]...)
	}
	return loot
}

// --- termination ring ---

// passToken records this processor's completion count, declares global
// termination if every streamline is accounted for, and otherwise
// forwards the token to the next live processor in ring order. It
// reports whether the token left this holder: one with no live peer
// keeps it.
func (pw *poolWorker) passToken() bool {
	pw.counts[pw.me] = pw.completed
	// A dead processor can never write its own entry again, so fold the
	// ledger's record of its completions into the token — otherwise a
	// token written before the victim's last completions would circulate
	// with a stale entry and the sum could never reach the total. Counts
	// are monotone; overwriting is safe.
	pw.r.foldDeadCounts(pw.counts)
	var sum int64
	for _, c := range pw.counts {
		sum += c
	}
	if sum == int64(len(pw.r.prob.Seeds)) {
		pw.w.end.Broadcast(msgAllDone{})
		pw.done = true
		return true
	}
	if pw.n == 1 {
		// A lone processor passes the token only when dry, which means
		// everything completed; reaching here is a bookkeeping bug.
		pw.r.fail(fmt.Errorf("core: stealing token count %d of %d on a single processor", sum, len(pw.r.prob.Seeds)))
		return true
	}
	// The ring re-forms around dead peers; a stealing processor exits
	// only after all-done, so without a death this is (me+1) mod n. With
	// no live peer left the sum falls short only because the dead peers'
	// work is in flight to this holder as adoptions; keep the token until
	// it lands.
	next := pw.r.nextRunning(pw.me)
	if next < 0 {
		return false
	}
	pw.w.stats.TokensPassed++
	pw.w.proc.Trace().Mark(pw.me, obs.MarkTokenPass, pw.w.proc.Now(), int64(next), 0)
	pw.w.end.Send(next, msgToken{counts: pw.counts})
	// The token stays with this holder until the send completes, so a
	// death mid-post regenerates it (poolWorkerDied reads holding).
	pw.holding = false
	return true
}
