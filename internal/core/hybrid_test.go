package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The hybrid master's Send-force rules and its busiest-unloaded-block
// pick in their binary-search forms over perBlock and loaded, as they
// were before the model kept each slave's stranded blocks.
// FuzzMasterForces holds the master to them.

// oracleForce is force updating perBlock and active directly.
func (m *master) oracleForce(from, to *slaveRec, b grid.BlockID) bool {
	n := from.perBlock.get(b)
	if to.active+int(n) > m.r.cfg.Hybrid.NO {
		return false
	}
	m.w.end.Send(from.ep, msgSendForce{block: b, to: to.ep})
	to.active += int(n)
	to.perBlock.set(b, to.perBlock.get(b)+n)
	from.active -= int(n)
	from.perBlock.set(b, 0)
	return true
}

// oracleForceOffload is step 1: S sends the streamlines it cannot
// advance — those in blocks it has not loaded, ascending — to the first
// group member having that block loaded.
func (m *master) oracleForceOffload(s *slaveRec) {
	for b := range s.perBlock.all() {
		if s.has(b) {
			continue
		}
		for _, t := range m.slaves {
			if t != s && t.has(b) && m.oracleForce(s, t, b) {
				break
			}
		}
	}
}

// oracleForceToward is step 3: other slaves send S their streamlines
// stranded in blocks S has loaded — peers ascending, and each peer's
// blocks ascending.
func (m *master) oracleForceToward(s *slaveRec) (sent bool) {
	for _, t := range m.slaves {
		if t == s {
			continue
		}
		for _, b := range s.loaded {
			if t.perBlock.get(b) > 0 && !t.has(b) && m.oracleForce(t, s, b) {
				sent = true
			}
		}
	}
	return sent
}

// oracleBusiest returns s's block holding the most streamlines — among
// its unloaded blocks only, when unloadedOnly is set — and of several
// such the lowest.
func oracleBusiest(s *slaveRec, unloadedOnly bool) (grid.BlockID, int) {
	best := blockEntry[tally]{b: grid.NoBlock}
	for _, e := range s.perBlock.es {
		if e.v > best.v && !(unloadedOnly && s.has(e.b)) {
			best = e
		}
	}
	return best.b, int(best.v)
}

// forceLog runs body as the master (endpoint 0) of k slaves at endpoints
// 1..k, with Hybrid.NO = no, and returns the Send-force instructions it
// sent, in order, as "from→to:block". The slaves are failed before the
// run, so every message the master sends lands in the kernel's
// dead-letter hook in send order.
func forceLog(t *testing.T, k, no int, body func(m *master)) []string {
	cfg := Config{Hybrid: HybridParams{N: 16, NO: no}}
	r := &runState{cfg: &cfg, kernel: sim.New(), fabric: comm.NewFabric(cfg.Net)}
	var log []string
	r.kernel.SetDeadLetter(func(to *sim.Proc, msg any) {
		if f, ok := msg.(comm.Envelope).Payload.(msgSendForce); ok {
			log = append(log, fmt.Sprintf("%d→%d:%d", to.ID(), f.to, f.block))
		}
	})
	m := &master{r: r}
	proc := r.kernel.Spawn("master", func(*sim.Proc) { body(m) })
	m.w = &worker{end: r.fabric.Attach(proc, &metrics.ProcStats{})}
	for ep := 1; ep <= k; ep++ {
		p := r.kernel.Spawn(fmt.Sprint("slave-", ep), func(*sim.Proc) {})
		r.fabric.Attach(p, &metrics.ProcStats{})
		r.kernel.Fail(p)
		m.slaves = append(m.slaves, &slaveRec{ep: ep})
	}
	if err := r.kernel.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	return log
}

// dumpModel renders every slave's count, lists and busiest unloaded
// block, read the way the rules of the given form read them.
func dumpModel(slaves []*slaveRec, oracle bool) string {
	var sb strings.Builder
	for _, s := range slaves {
		b, n := oracleBusiest(s, true)
		if !oracle {
			var nt tally
			b, nt = s.stranded.fullest()
			n = int(nt)
		}
		fmt.Fprintf(&sb, "%d: active %d, %s, loaded %v, busiest unloaded %d (%d)\n",
			s.ep, s.active, dumpBlocks(&s.perBlock), s.loaded, b, n)
	}
	return sb.String()
}

// FuzzMasterForces drives two master models of 2–33 slaves over blocks
// 0–63 through one sequence of statuses, holds, loads, forces,
// assignments and step-1-and-3 passes: one through the master's own
// methods, which keep each slave's stranded blocks, the other through
// the binary-search oracle above. After every operation the stranded
// list must be perBlock less loaded, and the two models must agree on
// every count, list and busiest unloaded block; at the end, after steps
// 1 and 3 for one needy slave, they must have sent the same forces in
// the same order.
func FuzzMasterForces(f *testing.F) {
	const (
		opStatus = iota
		opHold
		opLoad
		opForce
		opAssign
		opSteps
		numOps
	)
	// Header: slaves-2, NO/4, needy slave. Then operations.
	// TestForceOffloadWalksPastForcedBlocks: slave 0 holds {3: 2, 5: 1,
	// 9: 4} unloaded; its two peers hold 3 and 9, then 3 and 5.
	f.Add([]byte{1, 50, 0, opHold, 0, 9, 4, opHold, 0, 3, 2, opHold, 0, 5, 1, opLoad, 1, 3, opLoad, 2, 9})
	f.Add([]byte{1, 50, 0, opHold, 0, 9, 4, opHold, 0, 3, 2, opHold, 0, 5, 1, opLoad, 1, 3, opLoad, 2, 5})
	// TestMasterModelOrder: slave 0 loads {9, 2, 40, 2, 17, 9, 0}, holds
	// {31: 4, 5: 7, 17: 9, 12: 7, 3: 1, 8: 7}, then loads 5; its peer
	// loads 8 and is stranded in three blocks slave 0 has loaded, and NO
	// refuses the last of those forces.
	f.Add([]byte{0, 9, 0,
		opLoad, 0, 9, opLoad, 0, 2, opLoad, 0, 40, opLoad, 0, 2, opLoad, 0, 17, opLoad, 0, 9, opLoad, 0, 0,
		opHold, 0, 31, 4, opHold, 0, 5, 7, opHold, 0, 17, 9, opHold, 0, 12, 7, opHold, 0, 3, 1, opHold, 0, 8, 7,
		opLoad, 0, 5, opHold, 1, 17, 3, opHold, 1, 2, 5, opHold, 1, 40, 2, opHold, 1, 12, 1, opLoad, 1, 8})
	// A status, an assignment and a force between step passes.
	f.Add([]byte{2, 100, 1,
		opStatus, 1, 3, 4, 2, 9, 5, 30, 1, 2, 9, 4, 0,
		opStatus, 2, 2, 4, 6, 7, 3, 1, 7, 1,
		opAssign, 0, 4, 3, opForce, 2, 0, 7, opSteps, 0, opLoad, 1, 30})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		k, no := 2+int(data[0])%32, 4*int(data[1])
		needy := int(data[2]) % k
		var logs [2][]string
		var snaps [2][]string
		for i, oracle := range []bool{false, true} {
			ops := data[3:]
			next := func() int {
				if len(ops) == 0 {
					return 0
				}
				b := ops[0]
				ops = ops[1:]
				return int(b)
			}
			logs[i] = forceLog(t, k, no, func(m *master) {
				slave := func() *slaveRec { return m.slaves[next()%k] }
				block := func() grid.BlockID { return grid.BlockID(next() % 64) }
				steps := func(s *slaveRec) {
					if oracle {
						m.oracleForceOffload(s)
						m.oracleForceToward(s)
					} else {
						m.forceOffload(s)
						m.forceToward(s)
					}
				}
				for len(ops) > 0 {
					switch next() % numOps {
					case opStatus:
						s, st := slave(), msgStatus{}
						for j := next() % 16; j > 0; j-- {
							st.perBlock.set(block(), tally(next()%16))
						}
						for j := next() % 16; j > 0; j-- {
							if b := block(); !slices.Contains(st.loaded, b) {
								st.loaded = append(st.loaded, b)
							}
						}
						st.active = st.perBlock.total() + next()%4
						if oracle {
							s.active = st.active
							s.perBlock = st.perBlock
							s.loaded = append(s.loaded[:0], st.loaded...)
							slices.Sort(s.loaded)
						} else {
							s.adopt(st)
						}
					case opHold:
						s, b, n := slave(), block(), tally(next()%16)
						if oracle {
							s.active += int(n - s.perBlock.get(b))
							s.perBlock.set(b, n)
						} else {
							s.hold(b, n)
						}
					case opLoad:
						s, b := slave(), block()
						if oracle {
							s.loaded = insertSorted(s.loaded, b)
						} else {
							m.instructLoad(s, b)
						}
					case opForce:
						from, to, b := slave(), slave(), block()
						if from == to {
							continue
						}
						if oracle {
							m.oracleForce(from, to, b)
						} else {
							m.force(from, to, b)
						}
					case opAssign:
						s, b, n := slave(), block(), 1+next()%8
						if oracle {
							s.active += n
							s.perBlock.set(b, s.perBlock.get(b)+tally(n))
							s.loaded = insertSorted(s.loaded, b)
						} else {
							for range n {
								m.poolAdd(seedRec{block: b})
							}
							m.assignSeedsFrom(s, b)
						}
					case opSteps:
						steps(slave())
					}
					if !oracle {
						checkStranded(t, m.slaves)
					}
					snaps[i] = append(snaps[i], dumpModel(m.slaves, oracle))
				}
				steps(m.slaves[needy])
				if !oracle {
					checkStranded(t, m.slaves)
				}
				snaps[i] = append(snaps[i], dumpModel(m.slaves, oracle))
			})
		}
		for op := range snaps[0] {
			if snaps[0][op] != snaps[1][op] {
				t.Fatalf("after operation %d the master models\n%s\nand the oracle\n%s", op, snaps[0][op], snaps[1][op])
			}
		}
		if !slices.Equal(logs[0], logs[1]) {
			t.Fatalf("the master forced %v, the oracle %v", logs[0], logs[1])
		}
	})
}

// checkStranded fails t unless every slave's stranded list is its
// perBlock less the blocks in its loaded set.
func checkStranded(t *testing.T, slaves []*slaveRec) {
	t.Helper()
	for _, s := range slaves {
		var want blocks[tally]
		for b, n := range s.perBlock.all() {
			if !s.has(b) {
				want.set(b, n)
			}
		}
		if got, w := dumpBlocks(&s.stranded), dumpBlocks(&want); got != w {
			t.Fatalf("slave %d: stranded %s, want %s (loaded %v)", s.ep, got, w, s.loaded)
		}
	}
}

// TestSeedPeerDraw pins the seed-request peer pick. Without a death the
// master endpoints are 0..nm-1 and the pick is (index+1+k) mod nm, with k
// = rng.Intn(nm-1), one draw per request, at every master count: the
// fault-free draw sequence the goldens were pinned with. After deaths and
// promotions it is the same rule over the live endpoints:
// peers[(place+k) mod len(peers)], where place counts the peers below
// this master.
func TestSeedPeerDraw(t *testing.T) {
	draw := func(t *testing.T, eps []int, index int, want func(k *rand.Rand) int) {
		t.Helper()
		m := &master{r: &runState{masterEPs: eps}, index: index, rng: rand.New(rand.NewSource(int64(index)))}
		k := rand.New(rand.NewSource(int64(index)))
		for range 50 {
			got, ok := m.seedPeer()
			if w := want(k); got != w || ok != (w >= 0) {
				t.Fatalf("masters %v, master %d: peer %d (ok %v), want %d", eps, index, got, ok, w)
			}
		}
	}
	for nm := 1; nm <= 16; nm++ {
		var eps []int
		for ep := range nm {
			eps = append(eps, ep)
		}
		for index := range nm {
			draw(t, eps, index, func(k *rand.Rand) int {
				if nm == 1 {
					return -1
				}
				return (index + 1 + k.Intn(nm-1)) % nm
			})
		}
	}
	// Master 1 died and slave 5 was promoted.
	eps := []int{0, 2, 3, 5}
	for _, index := range eps {
		peers := removeInt(slices.Clone(eps), index)
		place, _ := slices.BinarySearch(peers, index)
		draw(t, eps, index, func(k *rand.Rand) int { return peers[(place+k.Intn(len(peers)))%len(peers)] })
	}
}
