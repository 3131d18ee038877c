package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Hybrid Master/Slave (paper Section 4.3): dedicated master processes
// coordinate groups of W slaves, dynamically assigning both streamlines
// and blocks. Masters react to slave status messages by applying five
// rules — Assign-loaded, Assign-unloaded, Send-force, Send-hint, Load —
// in the paper's 7-step sequence, balancing computation, I/O and
// communication via the NO (overload) and NL (load-threshold) parameters.
//
// Topology: with P total processors and group size W, the first
// max(1, P/(W+1)) processors are masters and the rest slaves, assigned to
// masters round-robin. Master 0 additionally aggregates global completion
// counts and broadcasts termination, and masters share unassigned seeds
// when a group runs dry ("the multiple masters coordinate balancing the
// work between them").

// --- hybrid wire messages ---

// msgAssign hands fresh seed points (all in one block) to a slave; the
// slave loads the block if it is not already resident, which makes the
// same message serve both Assign-loaded and Assign-unloaded.
type msgAssign struct {
	recs  []seedRec
	block grid.BlockID
}

// Bytes implements comm.Message.
func (m msgAssign) Bytes() int64 { return 16 + int64(len(m.recs))*32 }

// msgLoad instructs a slave to load a block (the Load rule).
type msgLoad struct{ block grid.BlockID }

// Bytes implements comm.Message.
func (msgLoad) Bytes() int64 { return 16 }

// msgSendForce instructs a slave to send its streamlines residing in
// block to the slave at endpoint "to" (the Send-force rule).
type msgSendForce struct {
	block grid.BlockID
	to    int
}

// Bytes implements comm.Message.
func (msgSendForce) Bytes() int64 { return 24 }

// msgSendHint suggests that a slave offload streamlines from the given
// set of blocks to the slave at endpoint "to" when appropriate (the
// Send-hint rule); slaves may ignore it ("some measure of autonomy").
type msgSendHint struct {
	to     int
	blocks []grid.BlockID
}

// Bytes implements comm.Message.
func (m msgSendHint) Bytes() int64 { return 16 + int64(len(m.blocks))*8 }

// msgStatus is the slave→master state report driving all master
// decisions. The master adopts perBlock as its model of the slave, so the
// message owns it, as it owns loaded.
type msgStatus struct {
	slave          int // endpoint index
	active         int
	perBlock       blocks[tally]  // active streamlines by current block, ascending
	loaded         []grid.BlockID // resident blocks, most recently used first
	completedDelta int
	needsWork      bool // no further workable streamlines after this report
}

// Bytes implements comm.Message: a status carries one (block, count) pair
// per block holding streamlines.
func (m msgStatus) Bytes() int64 {
	return 64 + int64(m.perBlock.len())*16 + int64(len(m.loaded))*8
}

// msgTerminate shuts a slave down.
type msgTerminate struct{}

// Bytes implements comm.Message.
func (msgTerminate) Bytes() int64 { return 8 }

// msgSeedRequest asks a peer master for spare seeds.
type msgSeedRequest struct{ from int }

// Bytes implements comm.Message.
func (msgSeedRequest) Bytes() int64 { return 16 }

// msgSeedShare transfers unassigned seeds between masters (may be empty).
type msgSeedShare struct{ recs []seedRec }

// Bytes implements comm.Message.
func (m msgSeedShare) Bytes() int64 { return 16 + int64(len(m.recs))*32 }

// --- topology ---

// insertSorted adds v to the ascending set s (a no-op when present).
func insertSorted[T cmp.Ordered](s []T, v T) []T {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
}

// removeInt drops the first occurrence of v from s, keeping order.
func removeInt(s []int, v int) []int {
	if i := slices.Index(s, v); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

func checkHybrid(c *Config) error {
	if c.Procs < 2 {
		return errors.New("core: hybrid needs at least 1 master and 1 slave")
	}
	return nil
}

// hybridTopology computes master/slave counts: one master per W slaves.
func hybridTopology(procs, w int) (masters, slaves int) {
	masters = procs / (w + 1)
	if masters < 1 {
		masters = 1
	}
	if masters > procs-1 {
		masters = procs - 1
	}
	return masters, procs - masters
}

func (r *runState) buildHybrid() {
	hp := r.cfg.Hybrid
	nm, ns := hybridTopology(r.cfg.Procs, hp.W)
	r.hybMasters = make([]*master, r.cfg.Procs)
	r.hybSlaves = make([]*slave, r.cfg.Procs)
	for m := 0; m < nm; m++ {
		r.masterEPs = append(r.masterEPs, m)
	}
	r.coordEP = 0

	recs := r.seedRecords()

	// Endpoints 0..nm-1 are masters, nm..nm+ns-1 are slaves. Slave i
	// belongs to master i%nm.
	groups := make([][]int, nm)
	for s := 0; s < ns; s++ {
		m := s % nm
		groups[m] = append(groups[m], nm+s)
	}

	for m := 0; m < nm; m++ {
		// Seeds (block-grouped) are partitioned contiguously across masters.
		pool := recs[m*len(recs)/nm : (m+1)*len(recs)/nm]
		var w *worker
		proc := r.kernel.Spawn(fmt.Sprintf("master-%d", m), func(p *sim.Proc) {
			newMaster(r, w, m, groups[m], pool).run()
		})
		w = r.newWorker(proc, m, 0)
	}
	for s := 0; s < ns; s++ {
		var w *worker
		proc := r.kernel.Spawn(fmt.Sprintf("slave-%d", s), func(p *sim.Proc) {
			newSlave(r, w, s%nm).run()
		})
		w = r.newWorker(proc, nm+s, r.cfg.CacheBlocks)
	}
}

// --- slave ---

// slave is one Hybrid worker: it advances the streamlines it holds
// through its resident blocks and leaves every other decision to its
// master.
type slave struct {
	r      *runState
	w      *worker
	master int // master endpoint index

	byBlock        blocks[pile[*trace.Streamline]] // active, piled by current block
	active         int
	completedDelta int
	done           bool

	// inHand is the streamline picked to advance, from the pick until it
	// is parked or completes (in neither byBlock nor a message); the
	// fault-recovery salvage reads it if this processor dies meanwhile.
	inHand *trace.Streamline
	// promoted holds a pending msgPromote: this slave takes over its
	// dead master's role as soon as the current handler returns.
	promoted *msgPromote
}

func newSlave(r *runState, w *worker, master int) *slave {
	s := &slave{r: r, w: w, master: master}
	r.hybSlaves[w.end.Index()] = s
	w.resident = s.resident
	return s
}

// resident lists every streamline the slave holds — by block, plus the
// one in hand mid-advance — for the salvage.
func (s *slave) resident() ([]*trace.Streamline, []seedRec) {
	var sls []*trace.Streamline
	for _, p := range s.byBlock.all() {
		sls = append(sls, p...)
	}
	if s.inHand != nil {
		sls = append(sls, s.inHand)
	}
	return sls, nil
}

func (s *slave) run() {
	defer func() { s.w.stats.EndTime = s.w.proc.Now() }()
	handle := s.handle
	for !s.done && s.promoted == nil {
		// Process everything the master (or peers) sent.
		if s.w.drain(handle) {
			break
		}
		if s.r.failed() {
			return
		}

		sl, ev := s.pickWorkable()
		if sl == nil {
			// Out of work: report status and wait for instructions
			// (Algorithm 1's "Process messages from Master").
			s.sendStatus(true)
			handle(s.w.end.Recv())
			continue
		}
		// Latency hiding: post the status before advancing the last
		// workable streamline.
		if s.workableCount() == 1 {
			s.sendStatus(true)
		}
		s.advanceInLoaded(sl, ev)
		if !s.w.checkMemory("streamline geometry") {
			return
		}
	}
	if s.promoted != nil {
		s.runAsMaster(*s.promoted)
	}
}

// pickWorkable takes an active streamline residing in a loaded block,
// preferring most-recently-used blocks, into hand: the status the run
// loop may post before advancing it costs time, and a death then must
// salvage it.
func (s *slave) pickWorkable() (*trace.Streamline, grid.Evaluator) {
	for b := range s.w.cache.Loaded() {
		if len(s.byBlock.get(b)) > 0 {
			sl := takeLast(&s.byBlock, b, 1)[0]
			s.inHand = sl
			// TryGet moves b to the front of the MRU list this loop walks:
			// return at once, the walk must not go on past that move.
			ev, _ := s.w.cache.TryGet(b)
			return sl, ev
		}
	}
	return nil, nil
}

// workableCount counts active streamlines in loaded blocks.
func (s *slave) workableCount() int {
	n := 0
	for b := range s.w.cache.Loaded() {
		n += len(s.byBlock.get(b))
	}
	return n
}

// advanceInLoaded integrates sl across resident blocks until it leaves
// them or terminates.
func (s *slave) advanceInLoaded(sl *trace.Streamline, ev grid.Evaluator) {
	for {
		prev := sl.Block
		if sl.Steps >= s.r.prob.maxSteps() {
			sl.Status = trace.MaxedOut
		} else {
			s.w.advance(sl, ev)
		}
		if sl.Status.Terminated() {
			s.r.complete(s.w, sl)
			s.active--
			s.completedDelta++
			s.inHand = nil
			return
		}
		next, ok := s.w.cache.TryGet(sl.Block)
		if !ok {
			// Left the resident set: issue its read now, then park it for
			// the master's decisions — if the master assigns it back here
			// (or Load-rules the block), the I/O has partly happened.
			s.w.prefetchOnExit(prev, sl)
			push(&s.byBlock, sl.Block, sl)
			s.inHand = nil
			return
		}
		ev = next
	}
}

func (s *slave) addStreamline(sl *trace.Streamline) {
	// Everything a slave ever holds is released work: masters park
	// future seeds and assign them only once their schedule fires, and
	// migrated arrivals were advanced by their sender.
	s.w.noteActivated(1)
	s.w.adoptStreamline(sl)
	push(&s.byBlock, sl.Block, sl)
	s.active++
}

func (s *slave) sendStatus(needsWorkIfIdle bool) {
	st := msgStatus{
		slave:          s.w.end.Index(),
		active:         s.active,
		perBlock:       s.byBlock.tallies(),
		loaded:         slices.AppendSeq(make([]grid.BlockID, 0, s.w.cache.Len()), s.w.cache.Loaded()),
		completedDelta: s.completedDelta,
		needsWork:      needsWorkIfIdle && s.workableCount() <= 1,
	}
	s.completedDelta = 0
	s.w.end.Send(s.master, st)
}

// handle processes one message and reports whether the slave loop is
// over: terminated, or promoted to master.
func (s *slave) handle(env comm.Envelope) bool {
	switch m := env.Payload.(type) {
	case msgAssign:
		for _, rec := range m.recs {
			// streamline keeps the release time on the materialized
			// object (assigned seeds are always already released, so this
			// is bookkeeping consistency, not scheduling).
			s.addStreamline(s.w.run.streamline(rec))
		}
		if _, ok := s.w.cache.TryGet(m.block); !ok {
			s.w.cache.Get(m.block) // Assign-unloaded: "Slave loads block B."
		}
		s.w.checkMemory("assigned block")
	case msgLoad:
		if _, ok := s.w.cache.TryGet(m.block); !ok {
			s.w.cache.Get(m.block)
		}
		s.w.checkMemory("loaded block")
	case msgSendForce:
		s.offload(m.to, []grid.BlockID{m.block}, false)
	case msgSendHint:
		// If a hinted block is loaded here we keep half (both slaves can
		// then make progress); if not we part with all of them. No
		// appropriate streamlines means the hint is ignored (slave
		// autonomy).
		s.offload(m.to, m.blocks, true)
	case msgStreamlines:
		for _, sl := range m.sls {
			s.addStreamline(sl)
		}
		s.w.checkMemory("migrated streamlines")
	case msgRemaster:
		// Our master died; a sibling was promoted in its place. Report
		// in so the new master's model of this slave converges.
		s.master = m.master
		s.sendStatus(true)
	case msgPromote:
		// This slave is the dead master's successor; the transition runs
		// in the main loop as soon as this handler returns.
		pm := m
		s.promoted = &pm
	case msgTerminate:
		s.done = true
	}
	return s.done || s.promoted != nil
}

// offload sends the streamlines residing in blocks to the slave at
// endpoint to — keeping half of a block's pile when keepHalf is set and
// the block is loaded here — then tells the master ownership changed so
// its model converges.
func (s *slave) offload(to int, blocks []grid.BlockID, keepHalf bool) {
	var out []*trace.Streamline
	for _, b := range blocks {
		sls := s.byBlock.get(b) // empty when b holds none: give is 0
		give := len(sls)
		if keepHalf && s.w.cache.Has(b) {
			give = (len(sls) + 1) / 2
		}
		taken := takeLast(&s.byBlock, b, give)
		if out == nil && give == len(sls) {
			out = taken // a whole pile: nothing else refers to the slice, send it as is
		} else {
			out = append(out, taken...)
		}
		s.active -= give
	}
	if len(out) > 0 {
		s.w.sendStreamlines(to, out)
		s.sendStatus(false)
	}
}

// runAsMaster is the failover transition (DESIGN.md §11): this slave
// stops integrating and takes over its dead master's role, seeded with
// the salvaged pool and the surviving group. Its own in-progress
// streamlines restart from seed in the new pool — integration is
// deterministic from the seed, so the recomputed geometry is identical.
func (s *slave) runAsMaster(pm msgPromote) {
	r, w := s.r, s.w
	ep := w.end.Index()
	w.stats.MasterFailovers++
	w.stats.SeedsAdopted += int64(len(pm.recs))
	w.proc.Trace().Mark(ep, obs.MarkFailover, w.proc.Now(), int64(len(pm.flock)), int64(len(pm.recs)))
	sls, _ := s.resident()
	recs := r.rewind(append([]seedRec(nil), pm.recs...), sls)
	for _, sl := range sls {
		w.releaseStreamline(sl)
	}
	w.noteDeactivated(s.active)
	r.hybSlaves[ep] = nil
	sortRecs(recs)

	m := newMaster(r, w, ep, pm.flock, recs)
	m.resumed = true
	m.run()
}

// --- master ---

// slaveRec is the master's model of one slave, updated from statuses and
// optimistically adjusted when instructions are sent. Its counts and
// lists are written only by adopt, hold and load, which keep stranded
// equal to perBlock less the blocks in loaded.
type slaveRec struct {
	ep     int
	active int
	// perBlock counts the slave's streamlines by current block, ascending:
	// its last status's list, adopted as is, then moved by every force
	// and assignment the master sends.
	perBlock blocks[tally]
	// loaded is the slave's resident set, ascending, so that step 4 walks
	// it in block order and has searches it, sorting nothing per decision:
	// it is sorted once where a status lands and grows by insertSorted
	// where the master has the slave load a block.
	loaded []grid.BlockID
	// stranded is perBlock less the blocks in loaded: the streamlines the
	// slave cannot advance where they sit. Steps 1, 2, 3, 6 and 7 read
	// it instead of probing perBlock against loaded per decision.
	stranded        blocks[tally]
	needsWork       bool
	hintOutstanding bool
}

// has reports whether the slave holds, or has been told to load, block b.
func (s *slaveRec) has(b grid.BlockID) bool {
	_, ok := slices.BinarySearch(s.loaded, b)
	return ok
}

// adopt makes a status the model of its slave, and derives the stranded
// blocks from it in one merge of two ascending lists. stranded keeps its
// own backing array from status to status.
func (s *slaveRec) adopt(st msgStatus) {
	s.active = st.active
	s.perBlock = st.perBlock
	// st.loaded arrives in MRU order: sorted here, once per status.
	s.loaded = append(s.loaded[:0], st.loaded...)
	slices.Sort(s.loaded)
	s.stranded = blocks[tally]{es: s.stranded.es[:0]}
	i := 0
	for _, e := range s.perBlock.es {
		for i < len(s.loaded) && s.loaded[i] < e.b {
			i++
		}
		if i == len(s.loaded) || s.loaded[i] != e.b {
			s.stranded.es = append(s.stranded.es, e)
			s.stranded.n += int(e.v)
		}
	}
	s.needsWork = st.needsWork
	s.hintOutstanding = false
}

// hold makes n the slave's count in block b, moving active by the
// difference.
func (s *slaveRec) hold(b grid.BlockID, n tally) {
	s.active += int(n - s.perBlock.get(b))
	s.perBlock.set(b, n)
	if !s.has(b) {
		s.stranded.set(b, n)
	}
}

// load adds b to the slave's resident set: its streamlines there are no
// longer stranded.
func (s *slaveRec) load(b grid.BlockID) {
	s.loaded = insertSorted(s.loaded, b)
	s.stranded.set(b, 0)
}

// master is one Hybrid master: its model of each slave in the group,
// its unassigned seeds, and the rule loop that decides from them.
type master struct {
	r      *runState
	w      *worker
	index  int         // endpoint index: the master ordinal, or a promoted slave's endpoint
	slaves []*slaveRec // ascending by endpoint, the order every rule visits them in

	pool blocks[pile[seedRec]] // unassigned released seeds, piled by block
	// future holds this master's seeds whose injection schedule has not
	// released them yet; they are invisible to every assignment rule and
	// to master-to-master sharing until released into the pool.
	future releaseQueue[seedRec]
	rng    *rand.Rand

	// totalCompleted is coordinator state; the other masters forward
	// completions to the coordinator.
	totalCompleted int
	done           bool
	requestedSeed  bool // outstanding seed request to a peer

	// resumed marks a master built by failover promotion: it skips the
	// initial assignment (its slaves already hold work) and rechecks the
	// completion ledger on entry.
	resumed bool
}

func newMaster(r *runState, w *worker, index int, group []int, pool []seedRec) *master {
	m := &master{
		r:      r,
		w:      w,
		index:  index,
		future: releaseQueue[seedRec]{key: recKey},
		rng:    rand.New(rand.NewSource(int64(7919 + index))),
	}
	for _, ep := range group {
		m.addSlave(ep)
	}
	m.takeRecs(pool)
	r.hybMasters[index] = m
	w.resident = m.resident
	return m
}

// findSlave returns the position of the slave at endpoint ep in
// m.slaves, or where it would go, and whether it is modeled.
func (m *master) findSlave(ep int) (int, bool) {
	return slices.BinarySearchFunc(m.slaves, ep, func(s *slaveRec, ep int) int { return cmp.Compare(s.ep, ep) })
}

// addSlave starts modeling the slave at endpoint ep.
func (m *master) addSlave(ep int) {
	i, _ := m.findSlave(ep)
	m.slaves = slices.Insert(m.slaves, i, &slaveRec{ep: ep})
}

// takeRecs folds seed records into the assignable pool, parking those
// whose release is still ahead of the clock: zero at build time, mid-run
// for a failover promotion or an adoption.
func (m *master) takeRecs(recs []seedRec) {
	now := m.w.proc.Now()
	for _, rec := range recs {
		if rec.release > now {
			m.future.push(rec)
		} else {
			m.poolAdd(rec)
		}
	}
}

func (m *master) poolAdd(rec seedRec) { push(&m.pool, rec.block, rec) }

// resident lists the master's unassigned seeds for the salvage: the
// released pool in block order, then the parked tail in release order.
func (m *master) resident() ([]*trace.Streamline, []seedRec) {
	var recs []seedRec
	for _, p := range m.pool.all() {
		recs = append(recs, p...)
	}
	return nil, append(recs, m.future.ordered()...)
}

// isCoord reports whether this master aggregates global completion:
// master 0, until the recovery layer re-derives the coordinator (the
// lowest live master endpoint) after a death.
func (m *master) isCoord() bool { return m.index == m.r.coordEP }

// peerMasters lists the other live masters' endpoints, ascending
// (promoted ones included, dead ones excluded).
func (m *master) peerMasters() []int {
	var peers []int
	for _, ep := range m.r.masterEPs {
		if ep != m.index && m.r.running(ep) {
			peers = append(peers, ep)
		}
	}
	return peers
}

func (m *master) run() {
	defer func() { m.w.stats.EndTime = m.w.proc.Now() }()

	if m.resumed {
		// Failover: the flock already holds work and will report in via
		// the statuses their msgRemaster triggers. Fold in any salvaged
		// seeds whose release already passed, then recheck the ledger —
		// the death may have eaten the last completion trigger.
		m.future.release(m.w, m.poolAdd)
		m.applyRules(false)
		// A candidate promoted with an empty flock cannot integrate its
		// salvage; hand it to a group that can.
		m.shedIfSlaveless()
		if m.isCoord() {
			m.onCompleted(0)
			if m.done {
				return
			}
		}
	} else {
		// Initial allocation: every slave receives N seeds through the
		// Assign-unloaded rule.
		for _, s := range m.slaves {
			m.assignSeeds(s)
		}
	}

	for !m.done {
		if m.r.failed() {
			return
		}
		// Fold overdue scheduled seeds into the pool first — message
		// traffic can carry the clock past a release while we were
		// handling it — and supply any slaves already flagged needy.
		if m.future.release(m.w, m.poolAdd) {
			m.applyRules(false)
		}
		// Wait for slave traffic, but no longer than the next scheduled
		// release.
		env, got := m.w.recvOrRelease(m.future.next())
		if !got {
			continue // loop top releases and applies
		}
		switch msg := env.Payload.(type) {
		case msgStatus:
			m.onStatus(msg)
		case msgDone: // master→master completion forwarding
			m.onCompleted(msg.count)
		case msgSeedRequest:
			m.onSeedRequest(msg.from)
		case msgSeedShare:
			// An empty share means the peer had no surplus; keep
			// requestedSeed set so we do not ping-pong requests — the
			// next slave status re-arms the request path.
			if len(msg.recs) > 0 {
				m.requestedSeed = false
				m.takeRecs(msg.recs)
			}
			m.applyRules(false)
			m.shedIfSlaveless()
		case msgStreamlines:
			// Arrived while this endpoint's promotion was in flight (a
			// peer's offload aimed at the slave it used to be): rewind and
			// pool them as restartable seeds.
			recs := m.r.rewind(nil, msg.sls)
			sortRecs(recs)
			m.addRecs(recs, false)
		case msgPeerDead:
			m.onSlaveDead(msg.ep)
		case msgAdopt:
			m.addRecs(msg.recs, !msg.moved)
		case msgAllDone:
			m.terminate()
		}
	}
}

// terminate shuts down this master's slaves and exits.
func (m *master) terminate() {
	for _, s := range m.slaves {
		m.w.end.Send(s.ep, msgTerminate{})
	}
	m.done = true
}

// onCompleted aggregates global completion counts on the coordinator.
// Under a fault plan the run's durable ledger is authoritative — a death
// can eat in-flight deltas, but a completion lands in the ledger before
// its trigger is sent, so rereading the total never undercounts.
func (m *master) onCompleted(count int) {
	if m.r.faultsOn {
		if !m.isCoord() {
			return
		}
		m.totalCompleted = m.r.completedTotal
	} else {
		m.totalCompleted += count
	}
	if m.totalCompleted >= len(m.r.prob.Seeds) {
		// Tell the other masters; each shuts down its own slaves.
		for _, ep := range m.peerMasters() {
			m.w.end.Send(ep, msgAllDone{})
		}
		m.terminate()
	}
}

func (m *master) onStatus(st msgStatus) {
	i, ok := m.findSlave(st.slave)
	if !ok {
		// A remastered slave's first status can arrive before this
		// (promoted) master modeled it; adopt live reporters, ignore
		// stale statuses from the dead. Without a death every status
		// comes from a modeled slave.
		if !m.r.running(st.slave) {
			return
		}
		m.slaves = slices.Insert(m.slaves, i, &slaveRec{ep: st.slave})
	}
	m.slaves[i].adopt(st)

	if st.completedDelta > 0 {
		if m.isCoord() {
			m.onCompleted(st.completedDelta)
			if m.done {
				return
			}
		} else {
			m.w.end.Send(m.r.coordEP, msgDone{count: st.completedDelta})
		}
	}
	// A fresh status re-arms master-to-master seed requests.
	m.requestedSeed = false
	m.applyRules(true)
}

// applyRules walks the paper's 7-step decision sequence for every slave
// currently needing work. allowSeedRequest gates master-to-master seed
// requests so an empty-handed reply cannot immediately trigger another
// request (which would livelock two idle masters in a message loop).
func (m *master) applyRules(allowSeedRequest bool) {
	assignedAny, starved := false, false
	for _, s := range m.slaves {
		if !s.needsWork {
			continue
		}
		if m.applyRulesFor(s) {
			s.needsWork = false
			assignedAny = true
		} else {
			starved = true
		}
	}
	// Group ran dry: ask a peer master for spare seeds.
	if allowSeedRequest && !assignedAny && starved && m.pool.total() == 0 && !m.requestedSeed {
		if peer, ok := m.seedPeer(); ok {
			m.w.end.Send(peer, msgSeedRequest{from: m.index})
			m.requestedSeed = true
		}
	}
}

// seedPeer draws the peer master a seed request goes to: uniformly among
// the master endpoints other than this one (dead ones excluded, promoted
// ones included), counting from this master's place among them. Without
// a death the endpoints are 0..nm-1 and the draw is (index+1+k) mod nm.
func (m *master) seedPeer() (int, bool) {
	peers := removeInt(slices.Clone(m.r.masterEPs), m.index)
	if len(peers) == 0 {
		return -1, false
	}
	at, _ := slices.BinarySearch(peers, m.index)
	return peers[(at+m.rng.Intn(len(peers)))%len(peers)], true
}

// addRecs folds adopted seed records into the pool, respecting each
// record's release time against the current clock, then supplies needy
// slaves. fresh marks records orphaned by a death (counted as adopted)
// as opposed to a bookkeeping transfer from a slaveless peer.
func (m *master) addRecs(recs []seedRec, fresh bool) {
	m.takeRecs(recs)
	if fresh {
		m.w.stats.SeedsAdopted += int64(len(recs))
		if len(recs) > 0 {
			m.w.proc.Trace().Mark(m.w.end.Index(), obs.MarkAdopt, m.w.proc.Now(), int64(len(recs)), 0)
		}
	}
	m.applyRules(false)
	m.shedIfSlaveless()
}

// onSlaveDead drops a dead slave from the model; its streamlines come
// back separately as a msgAdopt from the recovery layer.
func (m *master) onSlaveDead(ep int) {
	i, ok := m.findSlave(ep)
	if !ok {
		return
	}
	m.slaves = slices.Delete(m.slaves, i, i+1)
	m.applyRules(false)
	m.shedIfSlaveless()
}

// shedIfSlaveless hands this master's remaining seeds to a peer that
// still has slaves to integrate them, once every slave of its own has
// died (without a death every master keeps at least one). A peer whose
// promotion is still in flight counts: its flock is unknown until it
// lands, and if that flock is empty it sheds on in its turn. A master
// that has taken its role without slaves is never a target, so seeds
// cannot circle between two of them. With no target the run cannot
// finish.
func (m *master) shedIfSlaveless() {
	if m.done || len(m.slaves) > 0 || (m.pool.total() == 0 && len(m.future.items) == 0) {
		return
	}
	peers := m.peerMasters()
	i := slices.IndexFunc(peers, func(ep int) bool {
		pm := m.r.hybMasters[ep]
		return pm == nil || len(pm.slaves) > 0
	})
	if i < 0 {
		m.r.fail(&faults.UnrecoverableError{
			Algorithm: string(HybridMS),
			Proc:      m.index,
			Time:      m.w.proc.Now(),
			Reason:    "every slave died; no surviving group can integrate the remaining streamlines",
		})
		return
	}
	_, recs := m.resident()
	m.pool = blocks[pile[seedRec]]{}
	m.future.items = nil
	m.r.deliverLocal(peers[i], msgAdopt{recs: recs, moved: true})
}

// applyRulesFor runs steps 1–7 for slave s, returning true when s was
// supplied with work.
func (m *master) applyRulesFor(s *slaveRec) bool {
	hp := m.r.cfg.Hybrid

	// Step 1 (Send-force, housekeeping): S offloads streamlines stuck in
	// unloaded blocks to slaves that already have those blocks loaded.
	m.forceOffload(s)

	// Step 2 (Load): S has more than NL streamlines piled in one unloaded
	// block — cheaper for S to load the block itself.
	if b, n := s.stranded.fullest(); int(n) > hp.NL {
		m.instructLoad(s, b)
		return true
	}

	// Step 3 (Send-force toward S): blocks loaded by S may unlock
	// streamlines stranded on other slaves.
	if m.forceToward(s) {
		return true
	}

	// Step 4 (Assign-loaded): seeds in a block S already has in memory.
	for _, b := range s.loaded {
		if len(m.pool.get(b)) > 0 {
			m.assignSeedsFrom(s, b)
			return true
		}
	}

	// Step 5 (Assign-unloaded): any seeds at all.
	if m.pool.total() > 0 {
		m.assignSeeds(s)
		return true
	}

	// Step 6 (Load): load S's own most-populated block.
	if b, n := s.stranded.fullest(); n > 0 {
		m.instructLoad(s, b)
		return true
	}

	// Step 7 (Send-hint): ask the busiest slave to share work with S.
	// The hint names concrete blocks so the transfer is productive: we
	// prefer stealing from a block the busy slave has not loaded (it
	// cannot progress there anyway), falling back to splitting its
	// biggest loaded pile; S is told to load the block so the incoming
	// streamlines are immediately workable.
	if !s.hintOutstanding {
		if busy := m.busiestSlave(s.ep); busy != nil {
			b, n := busy.stranded.fullest()
			if n == 0 {
				b, n = busy.perBlock.fullest()
			}
			if n > 0 {
				if !s.has(b) {
					m.instructLoad(s, b)
				}
				m.w.end.Send(busy.ep, msgSendHint{to: s.ep, blocks: []grid.BlockID{b}})
				s.hintOutstanding = true
			}
		}
	}
	return false
}

// force instructs from to send its streamlines in block b to to (the
// Send-force rule) and updates the model — unless that would raise to's
// load above NO ("will not increase the load on S2 above NO").
func (m *master) force(from, to *slaveRec, b grid.BlockID) bool {
	n := from.perBlock.get(b)
	if to.active+int(n) > m.r.cfg.Hybrid.NO {
		return false
	}
	m.w.end.Send(from.ep, msgSendForce{block: b, to: to.ep})
	to.hold(b, to.perBlock.get(b)+n)
	from.hold(b, 0)
	return true
}

// forceOffload implements step 1: S sends its stranded streamlines,
// ascending by block, to the first group member having that block
// loaded. A force drops the block's entry from the walk it happens
// under; the walk goes on from the next block.
func (m *master) forceOffload(s *slaveRec) {
	for b := range s.stranded.all() {
		for _, t := range m.slaves {
			if t != s && t.has(b) && m.force(s, t, b) {
				break
			}
		}
	}
}

// forceToward implements step 3: other slaves send S their streamlines
// stranded in blocks S has loaded — peers ascending, and each peer's
// blocks ascending. Only a peer's stranded blocks are looked up in S's
// resident set, and most peers have none.
func (m *master) forceToward(s *slaveRec) (sent bool) {
	for _, t := range m.slaves {
		if t == s {
			continue
		}
		for b := range t.stranded.all() {
			if s.has(b) && m.force(t, s, b) {
				sent = true
			}
		}
	}
	return sent
}

// busiestSlave returns the group's slave with the most streamlines,
// excluding ep; ties are broken randomly per the paper.
func (m *master) busiestSlave(excludeEP int) *slaveRec {
	bestN := 0
	var candidates []*slaveRec
	for _, s := range m.slaves {
		if s.ep == excludeEP || s.active == 0 {
			continue
		}
		switch {
		case s.active > bestN:
			bestN = s.active
			candidates = candidates[:0]
			candidates = append(candidates, s)
		case s.active == bestN:
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[m.rng.Intn(len(candidates))]
}

// instructLoad sends the Load rule and updates the model.
func (m *master) instructLoad(s *slaveRec, b grid.BlockID) {
	m.w.end.Send(s.ep, msgLoad{block: b})
	s.load(b)
}

// assignSeeds sends s up to N seeds from the pool's most-populated
// block, the lowest of a tie (Assign-unloaded), if the pool holds any.
func (m *master) assignSeeds(s *slaveRec) {
	b, _ := m.pool.fullest()
	m.assignSeedsFrom(s, b)
}

// assignSeedsFrom sends s up to N seeds from the head of block b's pile
// (Assign-loaded when s holds b).
func (m *master) assignSeedsFrom(s *slaveRec, b grid.BlockID) {
	n := min(m.r.cfg.Hybrid.N, len(m.pool.get(b)))
	if n == 0 {
		return
	}
	batch := takeFirst(&m.pool, b, n)
	m.w.sendingRecs = batch
	m.w.end.Send(s.ep, msgAssign{recs: batch, block: b})
	m.w.sendingRecs = nil
	s.load(b)
	s.hold(b, s.perBlock.get(b)+tally(n))
}

// onSeedRequest shares up to W·N seeds with a starving peer master, from
// the heads of its piles in ascending block order.
func (m *master) onSeedRequest(from int) {
	share := []seedRec{}
	want := m.r.cfg.Hybrid.W * m.r.cfg.Hybrid.N
	if m.pool.total() > 2*want { // only share surplus
		for b, recs := range m.pool.all() {
			if len(share) >= want {
				break
			}
			share = append(share, takeFirst(&m.pool, b, min(want-len(share), len(recs)))...)
		}
	}
	m.w.sendingRecs = share
	m.w.end.Send(from, msgSeedShare{recs: share})
	m.w.sendingRecs = nil
}
