package core

// Fault recovery: what each algorithm does when a processor dies
// mid-run (DESIGN.md §11). The injection side is internal/faults; the
// death mechanics are internal/sim (Kernel.Fail, dead letters) and
// internal/comm (dead-peer sends). This file is the recovery service
// that a resilient runtime would provide, and the one place survivors
// learn of a loss: it runs at fault instants with a god's-eye view of
// the run, reads the state the roles already keep, and turns each loss
// into ordinary local envelopes (From == comm.LocalFrom) delivered one
// network latency later, modeling the machine's failure-detection
// delay. Run installs the route on every run: without a plan no
// processor fails, so none of it runs, and runState.faultsOn is read
// only where the protocols themselves differ under a plan.
//
// The invariant everything below defends is seed conservation: every
// streamline is resident on exactly one processor, in flight in exactly
// one message, or completed. A victim's unfinished streamlines restart
// from seed on a survivor — integration is deterministic from the seed
// with the full step budget, so the recomputed geometry is bit-identical
// to what the fault-free run produces (pinned by the golden digests).
//
// Nothing here dispatches on the algorithm: each row of the policies
// table (core.go) supplies its entry points — died (salvage and re-home
// on death), route (re-home salvaged or dead-lettered records) and
// ledgerFull — and one salvage routine gathers what a processor held,
// whatever its role (worker.resident).
//
//   - Load On Demand (poolWorkerDied, routeToSurvivors, releaseSurvivors):
//     the victim's pool is split round-robin over the survivors
//     (msgAdopt); workers outlive their own splits and exit on the
//     completion ledger instead of locally.
//   - Work Stealing (poolWorkerDied, routeToSuccessor): every survivor
//     hears of the death (msgPeerDead) and prunes the dead peer from
//     its probe set; the victim's pool moves to its ring successor, the
//     ring re-forms around the gap, and a token that died with the
//     victim is regenerated from the ledger (msgToken regen, counted as
//     RingReforms), or, once the ledger is full, replaced by all-done.
//   - Hybrid (hybridDied, routeToMaster): a dead slave's streamlines go
//     back to its master's pool and the master drops it from the model
//     (msgPeerDead); a dead master's lowest-indexed surviving slave is
//     promoted in its place (msgPromote, counted as MasterFailovers)
//     and the rest of the group re-points to it (msgRemaster). A master
//     that dies once the ledger is full terminates its slaves instead.
//     The completion coordinator is always the lowest live master
//     endpoint; every death is followed by a ledger recheck there so no
//     termination trigger can die with a processor.
//   - Static (staticDied, static.go): typed failure
//     (*faults.UnrecoverableError).

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// --- local recovery messages (never cross the wire: zero size) ---

// msgAdopt re-homes orphaned streamlines, restarted from seed, on a
// pool worker or into a hybrid master's pool (counted as SeedsAdopted).
// moved marks instead a bookkeeping transfer between masters from one
// that has no slaves left to integrate them (shedIfSlaveless).
type msgAdopt struct {
	recs  []seedRec
	moved bool
}

// Bytes implements comm.Message.
func (msgAdopt) Bytes() int64 { return 0 }

// msgPeerDead tells a survivor that processor ep died: a stealer prunes
// it from its probe set, a master drops it from its slave model.
type msgPeerDead struct{ ep int }

// Bytes implements comm.Message.
func (msgPeerDead) Bytes() int64 { return 0 }

// msgRemaster re-points a slave at its group's promoted master.
type msgRemaster struct{ master int }

// Bytes implements comm.Message.
func (msgRemaster) Bytes() int64 { return 0 }

// msgPromote turns a slave into its dead master's successor, carrying
// the salvaged pool and the rest of the surviving group.
type msgPromote struct {
	recs  []seedRec
	flock []int
}

// Bytes implements comm.Message.
func (msgPromote) Bytes() int64 { return 0 }

// --- small helpers ---

// running reports whether processor i can still adopt work: spawned,
// not finished, not failed.
func (r *runState) running(i int) bool {
	if i < 0 || i >= len(r.procs) {
		return false
	}
	p := r.procs[i]
	return p != nil && !p.Done() && !p.Failed()
}

// nextRunning returns the first running processor after `after` in ring
// order, or -1 when none survives.
func (r *runState) nextRunning(after int) int {
	n := r.cfg.Procs
	for k := 1; k < n; k++ {
		i := (after + k) % n
		if r.running(i) {
			return i
		}
	}
	return -1
}

// deliverLocal schedules a recovery envelope one network latency out —
// the virtual time failure detection takes — without charging anyone
// communication cost (the recovery layer is not a processor).
func (r *runState) deliverLocal(to int, payload comm.Message) {
	r.kernel.Deliver(r.procs[to], comm.Envelope{From: comm.LocalFrom, Payload: payload}, r.cfg.Net.LatencySec)
}

// restartRec rewinds a streamline to its seed record. The partial
// geometry is discarded: re-integrating from the seed with the full
// step budget reproduces the identical curve, which is how recovery
// keeps geometry bit-equal to fault-free runs.
func (r *runState) restartRec(sl *trace.Streamline) seedRec {
	b, _ := r.prob.Provider.Decomp().Locate(sl.Seed)
	return seedRec{id: sl.ID, p: sl.Seed, block: b, release: sl.Release}
}

// sortRecs orders salvage canonically by streamline ID.
func sortRecs(recs []seedRec) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
}

// rewind appends the restart records of sls to recs.
func (r *runState) rewind(recs []seedRec, sls []*trace.Streamline) []seedRec {
	for _, sl := range sls {
		recs = append(recs, r.restartRec(sl))
	}
	return recs
}

// payloadRecs extracts the work a message carries, if any. Protocol
// chatter (statuses, probes, hints, tokens, acks) carries none;
// msgPromote is handled separately because it also carries a role.
func (r *runState) payloadRecs(pay comm.Message) []seedRec {
	switch m := pay.(type) {
	case msgStreamlines:
		return r.rewind(nil, m.sls)
	case msgAssign:
		return m.recs
	case msgSeedShare:
		return m.recs
	case msgAdopt:
		return m.recs
	}
	return nil
}

// deadEnvelopes collects every envelope that died with processor idx:
// the one mid-receive-charge (comm.Endpoint.InHand), then the unread
// inbox in delivery order.
func (r *runState) deadEnvelopes(idx int) []comm.Envelope {
	var envs []comm.Envelope
	if env, ok := r.fabric.Endpoint(idx).InHand(); ok {
		envs = append(envs, env)
	}
	for _, raw := range r.procs[idx].TakeInbox() {
		if env, ok := raw.(comm.Envelope); ok {
			envs = append(envs, env)
		}
	}
	return envs
}

// salvage is the one routine that rewinds everything lost with
// processor idx to seed records, in canonical (ID) order: the work its
// role held (worker.resident), a batch mid-Send (in a local variable
// while the posting cost elapsed), and the work carried by its dead
// envelopes.
func (r *runState) salvage(idx int, envs []comm.Envelope) []seedRec {
	w := r.workers[idx]
	sls, recs := w.resident()
	recs = r.rewind(recs, sls)
	recs = r.rewind(recs, w.sending)
	recs = append(recs, w.sendingRecs...)
	for _, env := range envs {
		recs = append(recs, r.payloadRecs(env.Payload)...)
	}
	sortRecs(recs)
	return recs
}

// --- fault handling ---

// failProc kills processor idx and runs the algorithm's recovery
// policy. It executes as a kernel event at the fault instant, after the
// victim's stack has unwound, and schedules every recovery instruction
// one detection latency later — before any post-fault traffic can race
// it (kernel events at one instant run in schedule order).
func (r *runState) failProc(idx int) {
	if r.failed() || r.kernel.Halted() {
		return
	}
	p := r.procs[idx]
	if p == nil {
		return
	}
	r.kernel.Fail(p)
	if !p.Failed() {
		// Finished before the fault instant: nothing was lost.
		return
	}
	r.collect.P(idx).ProcsLost++
	r.lastKilled = idx
	p.Trace().Mark(idx, obs.MarkKill, r.kernel.Now(), 0, 0)
	r.alg.died(r, idx, r.deadEnvelopes(idx))
}

// routeRecs delivers salvaged streamline records to survivors able to
// integrate them, by the row's route entry. deadIdx anchors deterministic
// target selection (the victim's ring position or master); -1 means no
// anchor.
func (r *runState) routeRecs(recs []seedRec, deadIdx int) {
	if len(recs) > 0 && !r.failed() {
		r.alg.route(r, recs, deadIdx)
	}
}

// --- Load On Demand and Work Stealing ---

// poolWorkerDied re-homes a dead pool worker's streamlines and, for the
// stealing row, first tells every survivor of the death, in ascending
// order, and regenerates a token that died with it (held there, mid-pass
// or unread in its inbox; Load On Demand has none to lose).
func (r *runState) poolWorkerDied(idx int, envs []comm.Envelope) {
	tokenLost := false
	if st := r.poolWorkers[idx].stealer; st != nil {
		for i := range r.procs {
			if r.running(i) {
				r.deliverLocal(i, msgPeerDead{ep: idx})
			}
		}
		tokenLost = st.holding
	}
	for _, env := range envs {
		if _, ok := env.Payload.(msgToken); ok {
			tokenLost = true
		}
	}
	r.routeRecs(r.salvage(idx, envs), idx)
	if tokenLost && !r.failed() {
		r.regenToken(idx)
	}
}

// routeToSurvivors is Load On Demand's route: split round-robin over
// every survivor.
func (r *runState) routeToSurvivors(recs []seedRec, _ int) {
	var survivors []int
	for i := range r.procs {
		if r.running(i) {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) == 0 {
		r.fail(fmt.Errorf("core: no survivor left to adopt %d streamlines", len(recs)))
		return
	}
	shares := make([][]seedRec, len(survivors))
	for j, rec := range recs {
		shares[j%len(survivors)] = append(shares[j%len(survivors)], rec)
	}
	for k, tgt := range survivors {
		if len(shares[k]) > 0 {
			r.deliverLocal(tgt, msgAdopt{recs: shares[k]})
		}
	}
}

// routeToSuccessor is Work Stealing's route: everything to the victim's
// ring successor.
func (r *runState) routeToSuccessor(recs []seedRec, deadIdx int) {
	succ := r.nextRunning(deadIdx)
	if succ < 0 {
		r.fail(fmt.Errorf("core: no survivor left to adopt %d streamlines", len(recs)))
		return
	}
	r.deliverLocal(succ, msgAdopt{recs: recs})
}

// routeToMaster is Hybrid's route: into a live master's pool.
func (r *runState) routeToMaster(recs []seedRec, deadIdx int) {
	tgt := r.hybridMasterFor(deadIdx)
	if tgt < 0 {
		// No master is live right now, but if any slave survives a
		// promotion chain is still pending for its group (every dead
		// master issued one, and a candidate dying mid-promotion
		// re-promotes via the dead-letter path). Park the orphans;
		// hybridAfterDeath flushes them to the next enthroned master.
		if r.hybridSlaveSurvives() {
			r.hybOrphans = append(r.hybOrphans, recs...)
			return
		}
		r.fail(&faults.UnrecoverableError{
			Algorithm: string(HybridMS),
			Proc:      deadIdx,
			Time:      r.kernel.Now(),
			Reason:    "no master survives to adopt the orphaned streamlines",
		})
		return
	}
	r.deliverLocal(tgt, msgAdopt{recs: recs})
}

// hybridSlaveSurvives reports whether any hybrid slave is still
// running — the condition under which some promotion chain must still
// be in flight whenever no master is live.
func (r *runState) hybridSlaveSurvives() bool {
	for i, s := range r.hybSlaves {
		if s != nil && r.hybMasters[i] == nil && r.running(i) {
			return true
		}
	}
	return false
}

// releaseSurvivors is Load On Demand's ledger-full entry: it has no
// coordinator, and under a fault plan its workers outlive their own
// splits (a later death may orphan work only they can adopt), so the
// ledger reaching the seed total is what releases them. Work stealing
// calls it when its token dies with the ledger full (regenToken).
func (r *runState) releaseSurvivors() {
	for i := range r.procs {
		if r.running(i) {
			r.deliverLocal(i, msgAllDone{})
		}
	}
}

// foldDeadCounts writes the ledger's record of each dead processor's
// completions into token counts (counts are monotone, so overwriting a
// smaller entry is safe).
func (r *runState) foldDeadCounts(counts []int64) {
	for i, pw := range r.poolWorkers {
		if pw != nil && r.procs[i].Failed() && pw.completed > counts[i] {
			counts[i] = pw.completed
		}
	}
}

// regenToken rebuilds the termination token after it died with
// processor deadIdx (held there, unread in its inbox, or in flight to
// it). Counts for dead processors come from the ledger — a dead
// processor can never write its own entry again — and live processors'
// entries start at zero: counts are monotone, so a missing live entry
// only delays termination until its owner next holds the token, it can
// never terminate early. A token lost once the ledger is full is not
// rebuilt: its holder may have died part-way through broadcasting
// all-done, so survivors it reached have exited and a new token could
// not go round; the survivors are released instead.
func (r *runState) regenToken(deadIdx int) {
	if r.completedTotal == len(r.prob.Seeds) {
		r.releaseSurvivors()
		return
	}
	succ := r.nextRunning(deadIdx)
	if succ < 0 {
		r.fail(fmt.Errorf("core: stealing token lost with processor %d and no live peer remains", deadIdx))
		return
	}
	counts := make([]int64, r.cfg.Procs)
	r.foldDeadCounts(counts)
	r.deliverLocal(succ, msgToken{counts: counts, regen: true})
}

// --- Hybrid Master/Slave ---

// hybridDied runs the hybrid recovery policy for a dead processor:
// promotion for a master (or, once the ledger is full, termination of
// its slaves, which a master that died mid-terminate may not have
// reached), pool return for a slave, re-promotion for a candidate that
// died before assuming the role, and a coordinator ledger recheck in
// every case.
func (r *runState) hybridDied(idx int, envs []comm.Envelope) {
	r.masterEPs = removeInt(r.masterEPs, idx)
	if m := r.hybMasters[idx]; m != nil {
		// The candidates are the live slaves of the dead master's own
		// model of its group, ascending: a slave re-pointed at it whose
		// msgRemaster has not landed yet still names its old master.
		var cands []int
		for _, s := range m.slaves {
			if r.running(s.ep) {
				cands = append(cands, s.ep)
			}
		}
		if r.completedTotal < len(r.prob.Seeds) {
			r.promoteAmong(idx, r.salvage(idx, envs), cands)
		} else {
			for _, ep := range cands {
				r.deliverLocal(ep, msgTerminate{})
			}
		}
	} else if r.hybSlaves[idx] != nil {
		recs := r.salvage(idx, envs)
		if tgt := r.hybridMasterFor(idx); tgt >= 0 {
			r.deliverLocal(tgt, msgPeerDead{ep: idx})
		}
		r.routeRecs(recs, idx)
	}
	for _, env := range envs {
		if pm, ok := env.Payload.(msgPromote); ok {
			// The victim died before assuming a promotion; hand the role
			// to the next candidate of the same flock.
			r.repromote(pm)
		}
	}
	r.hybridAfterDeath()
}

// hybridMasterFor picks the master that adopts work orphaned at
// deadIdx: the victim's own (live) master keeps the work in-group,
// falling back to the lowest live master endpoint.
func (r *runState) hybridMasterFor(deadIdx int) int {
	if deadIdx >= 0 && deadIdx < len(r.hybSlaves) {
		if s := r.hybSlaves[deadIdx]; s != nil && r.running(s.master) && slices.Contains(r.masterEPs, s.master) {
			return s.master
		}
	}
	for _, ep := range r.masterEPs {
		if r.running(ep) {
			return ep
		}
	}
	return -1
}

// repromote re-runs a promotion whose candidate died before assuming
// the role, drawing the next candidate from the carried flock.
func (r *runState) repromote(pm msgPromote) {
	var cands []int
	for _, ep := range pm.flock {
		if r.running(ep) {
			cands = append(cands, ep)
		}
	}
	r.promoteAmong(-1, pm.recs, cands)
}

// promoteAmong promotes the lowest-indexed candidate to take over a dead
// master's group and salvaged pool; with no candidate the pool re-routes
// to another master.
func (r *runState) promoteAmong(deadEP int, recs []seedRec, cands []int) {
	if len(cands) == 0 {
		r.routeRecs(recs, deadEP)
		return
	}
	cand, flock := cands[0], append([]int(nil), cands[1:]...)
	r.masterEPs = insertSorted(r.masterEPs, cand)
	r.deliverLocal(cand, msgPromote{recs: recs, flock: flock})
	for _, ep := range flock {
		r.deliverLocal(ep, msgRemaster{master: cand})
	}
}

// hybridAfterDeath re-derives the completion coordinator (the lowest
// live master endpoint) and rechecks the ledger there: any termination
// trigger that died with the processor — a status, a forwarded count,
// the coordinator itself — is covered by this one recheck, because
// completions land in the ledger before their triggers are sent.
func (r *runState) hybridAfterDeath() {
	if r.failed() {
		return
	}
	if len(r.masterEPs) == 0 {
		if r.hybridSlaveSurvives() {
			// A promotion is still in flight to a candidate that died
			// with it; the dead-lettered msgPromote re-promotes among
			// the survivors one detection latency out.
			return
		}
		r.fail(&faults.UnrecoverableError{
			Algorithm: string(HybridMS),
			Proc:      r.lastKilled,
			Time:      r.kernel.Now(),
			Reason:    "no master or promotion candidate survives",
		})
		return
	}
	r.coordEP = r.masterEPs[0]
	if len(r.hybOrphans) > 0 {
		if tgt := r.hybridMasterFor(-1); tgt >= 0 {
			recs := r.hybOrphans
			r.hybOrphans = nil
			sortRecs(recs)
			r.deliverLocal(tgt, msgAdopt{recs: recs})
		}
	}
	if r.running(r.coordEP) {
		r.deliverLocal(r.coordEP, msgDone{count: 0})
	}
}

// --- dead letters ---

// onDeadLetter salvages messages that landed on a failed processor: the
// kernel hands over anything delivered after the destination died (a
// steal reply racing its requester's death, an offload aimed at a peer
// that just went down). Work is re-routed; roles are re-assigned;
// protocol chatter dies silently.
func (r *runState) onDeadLetter(to *sim.Proc, msg any) {
	if r.failed() || r.kernel.Halted() {
		return
	}
	env, ok := msg.(comm.Envelope)
	if !ok {
		return
	}
	deadIdx := to.ID() // spawn order == endpoint index
	switch pay := env.Payload.(type) {
	case msgPromote:
		r.masterEPs = removeInt(r.masterEPs, deadIdx)
		r.repromote(pay)
		r.hybridAfterDeath()
	case msgToken:
		r.regenToken(deadIdx)
	default:
		if recs := r.payloadRecs(env.Payload); len(recs) > 0 {
			out := append([]seedRec(nil), recs...)
			sortRecs(out)
			r.routeRecs(out, deadIdx)
		}
	}
}
