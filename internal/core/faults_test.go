package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
)

// recoverable lists the algorithms that survive processor loss; static
// allocation is the documented exception (TestFaultStaticUnrecoverable).
func recoverable() []Algorithm {
	return []Algorithm{LoadOnDemand, WorkStealing, HybridMS}
}

// faultConfig is testConfig on a network with latency: failure
// detection takes one network latency, and Config.Validate refuses a
// fault plan without it.
func faultConfig(alg Algorithm, procs int) Config {
	cfg := testConfig(alg, procs)
	cfg.Net = comm.DefaultNetwork()
	return cfg
}

// requireSameGeometry asserts two trace sets are bit-identical — the
// recovery contract: restarting a victim's streamlines from seed must
// reproduce exactly the curves a fault-free run integrates.
func requireSameGeometry(t *testing.T, label string, got, want []*trace.Streamline) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d streamlines, want %d", label, len(got), len(want))
	}
	for i, sl := range got {
		ref := want[i]
		if sl.ID != ref.ID {
			t.Fatalf("%s: trace %d has ID %d, want %d", label, i, sl.ID, ref.ID)
		}
		if sl.Status != ref.Status {
			t.Fatalf("%s: streamline %d status %v, want %v", label, sl.ID, sl.Status, ref.Status)
		}
		if len(sl.Points) != len(ref.Points) {
			t.Fatalf("%s: streamline %d has %d points, want %d",
				label, sl.ID, len(sl.Points), len(ref.Points))
		}
		for j := range sl.Points {
			if sl.Points[j] != ref.Points[j] {
				t.Fatalf("%s: streamline %d point %d differs: %v vs %v",
					label, sl.ID, j, sl.Points[j], ref.Points[j])
			}
		}
	}
}

// TestFaultRecoveryMatchesFaultFree is the tentpole property: kill one
// processor mid-run and every recoverable algorithm still completes
// every seed with geometry bit-identical to the fault-free run. Victim
// 0 is deliberately the worst case — work stealing's initial token
// holder and hybrid's coordinator master.
func TestFaultRecoveryMatchesFaultFree(t *testing.T) {
	p := testProblem(60)
	for _, alg := range recoverable() {
		for _, procs := range []int{4, 7} {
			cfg := faultConfig(alg, procs)
			cfg.CollectTraces = true
			base := mustRun(t, p, cfg)

			fcfg := cfg
			fcfg.Faults = faults.KillAt(0.3*base.Summary.WallClock, 0)
			res := mustRun(t, p, fcfg)
			label := fmt.Sprintf("%s/%d +fault", alg, procs)

			if got := res.Summary.StreamlinesCompleted; got != 60 {
				t.Errorf("%s: completed %d, want 60", label, got)
			}
			requireSameGeometry(t, label, res.Streamlines, base.Streamlines)
			if res.Summary.ProcsLost != 1 {
				t.Errorf("%s: ProcsLost = %d, want 1", label, res.Summary.ProcsLost)
			}
			if res.PerProc[0].ProcsLost != 1 {
				t.Errorf("%s: victim's ProcsLost = %d, want 1", label, res.PerProc[0].ProcsLost)
			}
			if res.Summary.SeedsAdopted == 0 {
				t.Errorf("%s: SeedsAdopted = 0; a mid-run death must orphan work", label)
			}
			switch alg {
			case WorkStealing:
				if res.Summary.RingReforms == 0 {
					t.Errorf("%s: killing the token holder must regenerate the ring", label)
				}
			case HybridMS:
				if res.Summary.MasterFailovers != 1 {
					t.Errorf("%s: MasterFailovers = %d, want 1 (coordinator died)",
						label, res.Summary.MasterFailovers)
				}
			}
		}
	}
}

// TestFaultMultiKill layers two losses — a master/token-holder and a
// peer, staggered in time — over a multi-master hybrid topology.
func TestFaultMultiKill(t *testing.T) {
	p := testProblem(60)
	for _, alg := range recoverable() {
		cfg := faultConfig(alg, 7)
		if alg == HybridMS {
			cfg.Hybrid.W = 2 // two masters, five slaves
		}
		cfg.CollectTraces = true
		base := mustRun(t, p, cfg)

		fcfg := cfg
		fcfg.Faults = faults.Plan{Events: []faults.Event{
			{Proc: 0, Time: 0.25 * base.Summary.WallClock},
			{Proc: 2, Time: 0.25 * base.Summary.WallClock},
			{Proc: 4, Time: 0.6 * base.Summary.WallClock},
		}}
		res := mustRun(t, p, fcfg)
		label := fmt.Sprintf("%s/7 +3 faults", alg)

		if got := res.Summary.StreamlinesCompleted; got != 60 {
			t.Errorf("%s: completed %d, want 60", label, got)
		}
		requireSameGeometry(t, label, res.Streamlines, base.Streamlines)
		if res.Summary.ProcsLost != 3 {
			t.Errorf("%s: ProcsLost = %d, want 3", label, res.Summary.ProcsLost)
		}
	}
}

// TestFaultMasterAndPromoteeSameInstant regresses the hybrid orphan
// race: the coordinator master and its promotion candidate (the lowest
// flock slave) die at the same instant, so the msgPromote in flight to
// the candidate dead-letters while no master endpoint is live. The
// salvaged streamlines must park until the dead-letter repromotes the
// next slave, not fail the run — slaves 2..6 survive.
func TestFaultMasterAndPromoteeSameInstant(t *testing.T) {
	p := testProblem(60)
	cfg := faultConfig(HybridMS, 7) // W=8 -> one master (proc 0), six slaves
	cfg.CollectTraces = true
	base := mustRun(t, p, cfg)

	fcfg := cfg
	kill := 0.3 * base.Summary.WallClock
	fcfg.Faults = faults.Plan{Events: []faults.Event{
		{Proc: 0, Time: kill}, // the only master
		{Proc: 1, Time: kill}, // its promotion candidate, same instant
	}}
	res := mustRun(t, p, fcfg)

	if got := res.Summary.StreamlinesCompleted; got != 60 {
		t.Errorf("completed %d, want 60", got)
	}
	requireSameGeometry(t, "hybrid master+promotee", res.Streamlines, base.Streamlines)
	if res.Summary.ProcsLost != 2 {
		t.Errorf("ProcsLost = %d, want 2", res.Summary.ProcsLost)
	}
	if res.Summary.MasterFailovers < 1 {
		t.Errorf("MasterFailovers = %d, want >= 1 (promotion chain must complete)",
			res.Summary.MasterFailovers)
	}
}

// TestFaultStealingHolderDiesMidAllDone kills the processor that found
// the token's sum complete part-way through its all-done broadcast:
// after its first send has left, during its second. The processor the
// first send reached exits, so a rebuilt token could never go round the
// ring again; with the completion ledger full, the survivors are
// released instead, and the run ends with every seed completed.
func TestFaultStealingHolderDiesMidAllDone(t *testing.T) {
	p := testProblem(24)
	const procs = 5
	cfg := faultConfig(WorkStealing, procs)
	cfg.CollectTraces = true
	traced := cfg
	traced.Trace = obs.New()
	base := mustRun(t, p, traced)

	// The broadcast is the holder's last procs-1 sends: one to every
	// other processor, in ascending order.
	holder := -1
	var sends []obs.Event
	for proc := 0; proc < procs && holder < 0; proc++ {
		var own []obs.Event
		for _, e := range traced.Trace.Events() {
			if e.Kind == obs.MarkSend && int(e.Proc) == proc {
				own = append(own, e)
			}
		}
		if len(own) < procs-1 {
			continue
		}
		own = own[len(own)-(procs-1):]
		broadcast := true
		for i, e := range own {
			if i >= proc {
				i++
			}
			broadcast = broadcast && e.A == int64(i)
		}
		if broadcast {
			holder, sends = proc, own
		}
	}
	if holder < 0 {
		t.Fatal("no processor ends the run broadcasting all-done")
	}
	kill := (sends[0].Time + sends[1].Time) / 2
	fcfg := cfg
	fcfg.Faults = faults.Plan{Events: []faults.Event{{Proc: holder, Time: kill}}}
	res := mustRun(t, p, fcfg)
	if res.Summary.ProcsLost != 1 || res.Summary.RingReforms != 0 {
		t.Errorf("ProcsLost %d, RingReforms %d: want the holder lost and no token rebuilt",
			res.Summary.ProcsLost, res.Summary.RingReforms)
	}
	requireSameGeometry(t, "stealing holder killed mid-broadcast", res.Streamlines, base.Streamlines)
}

// TestRecoveryMessagesAreLocal pins the cost model of the recovery
// layer: death, adoption, promotion and re-mastering messages model god-view
// bookkeeping delivered locally (comm.LocalFrom), so none of them may
// ever charge wire traffic — a nonzero size here would perturb the
// comm-volume figures whenever a fault plan is armed.
func TestRecoveryMessagesAreLocal(t *testing.T) {
	msgs := []comm.Message{
		msgAdopt{recs: make([]seedRec, 3)},
		msgAdopt{recs: make([]seedRec, 3), moved: true},
		msgPeerDead{ep: 1},
		msgRemaster{master: 2},
		msgPromote{recs: make([]seedRec, 3), flock: []int{4, 5}},
	}
	for _, m := range msgs {
		if got := m.Bytes(); got != 0 {
			t.Errorf("%T.Bytes() = %d, want 0 (local messages are not traffic)", m, got)
		}
	}
}

// TestFaultStaticUnrecoverable pins static allocation's documented
// asymmetry: a loss is a typed failure, not a hang.
func TestFaultStaticUnrecoverable(t *testing.T) {
	p := testProblem(30)
	cfg := faultConfig(StaticAlloc, 4)
	cfg.Faults = faults.KillAt(0.001, 1)
	_, err := Run(p, cfg)
	var ue *faults.UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("static + fault: err = %v, want *faults.UnrecoverableError", err)
	}
	if ue.Algorithm != string(StaticAlloc) || ue.Proc != 1 {
		t.Errorf("UnrecoverableError = %+v, want algorithm %q proc 1", ue, StaticAlloc)
	}
}

// TestFaultAfterCompletionIsNoOp pins what a plan that never fires
// costs: a loss scheduled past the end of the run kills nobody, keeps
// every curve, and moves the Summary only where a plan changes the
// protocol itself (DESIGN.md §11).
//   - Work stealing: the Summary is byte-identical to the fault-free run.
//   - Load On Demand: under any plan workers outlive their own splits and
//     exit on releaseSurvivors' all-done, which lands one network
//     latency after the last completion, so WallClock grows by exactly
//     Net.LatencySec and every other field is equal.
//   - Hybrid: under a plan the coordinator reads the completion ledger
//     instead of summing forwarded counts, which can end a run earlier,
//     so only geometry and ProcsLost are pinned.
func TestFaultAfterCompletionIsNoOp(t *testing.T) {
	p := testProblem(30)
	for _, alg := range recoverable() {
		cfg := faultConfig(alg, 4)
		cfg.CollectTraces = true
		base := mustRun(t, p, cfg)

		fcfg := cfg
		fcfg.Faults = faults.KillAt(10*base.Summary.WallClock+1, 0)
		res := mustRun(t, p, fcfg)
		requireSameGeometry(t, fmt.Sprintf("%s late fault", alg), res.Streamlines, base.Streamlines)
		if res.Summary.ProcsLost != 0 {
			t.Errorf("%s: ProcsLost = %d for a post-completion fault", alg, res.Summary.ProcsLost)
		}
		want := base.Summary
		switch alg {
		case HybridMS:
			continue
		case LoadOnDemand:
			want.WallClock += cfg.Net.LatencySec
		}
		if res.Summary != want {
			t.Errorf("%s: a plan that never fires moved the Summary:\n got %+v\nwant %+v", alg, res.Summary, want)
		}
	}
}

// TestFaultReplayDeterminism: the same plan replays to bit-identical
// metrics and geometry — the property the chaos fuzzer leans on.
func TestFaultReplayDeterminism(t *testing.T) {
	p := testProblem(40)
	for _, alg := range recoverable() {
		cfg := faultConfig(alg, 5)
		cfg.CollectTraces = true
		cfg.Faults = faults.KillAt(0.1, 1)
		a := mustRun(t, p, cfg)
		b := mustRun(t, p, cfg)
		if a.Summary != b.Summary {
			t.Errorf("%s: non-deterministic fault replay:\n%+v\n%+v", alg, a.Summary, b.Summary)
		}
		requireSameGeometry(t, fmt.Sprintf("%s replay", alg), b.Streamlines, a.Streamlines)
		for i := range a.PerProc {
			if a.PerProc[i] != b.PerProc[i] {
				t.Errorf("%s: proc %d stats differ across replays", alg, i)
			}
		}
	}
}

// TestFaultValidation: fault plans are validated with the rest of the
// config before the machine is built.
func TestFaultValidation(t *testing.T) {
	p := testProblem(10)
	cfg := faultConfig(LoadOnDemand, 3)
	cfg.Faults = faults.KillAt(0.1, 7)
	if _, err := Run(p, cfg); err == nil {
		t.Error("victim out of range accepted")
	}
	cfg.Faults = faults.KillAt(0.1, 0, 1, 2)
	if _, err := Run(p, cfg); err == nil {
		t.Error("killing every processor accepted")
	}
	cfg.Faults = faults.KillAt(-1, 0)
	if _, err := Run(p, cfg); err == nil {
		t.Error("negative fault time accepted")
	}
}

// TestFaultNeedsLatency: a fault plan on a zero-latency network is
// refused with a typed error instead of risking a run that never
// returns (detection, re-homing and the next loss all at one virtual
// instant). A plan-free run on the same network is fine, and so is the
// same plan once the network has latency.
func TestFaultNeedsLatency(t *testing.T) {
	p := testProblem(10)
	for _, alg := range Algorithms() {
		cfg := testConfig(alg, 5) // zero-latency comm.Network{}
		if alg == HybridMS {
			cfg.Hybrid.W = 2
		}
		if _, err := Run(p, cfg); err != nil {
			t.Fatalf("%s: fault-free run on a zero-latency network: %v", alg, err)
		}
		cfg.Faults = faults.KillAt(0.01, 0)
		_, err := Run(p, cfg)
		var nl *faults.NoLatencyError
		if !errors.As(err, &nl) {
			t.Errorf("%s: fault plan on a zero-latency network: err = %v, want *faults.NoLatencyError", alg, err)
		}
		cfg.Net = comm.DefaultNetwork()
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: the same plan with latency was rejected: %v", alg, err)
		}
	}
}

// TestRunErrorUnwindsAllPeers is the regression test for the stranded-
// peer error path: when one processor aborts the run (here: OOM), the
// kernel must halt and unwind every blocked peer deterministically and
// Run must report the root cause — not a deadlock among the survivors.
func TestRunErrorUnwindsAllPeers(t *testing.T) {
	p := testProblem(40)
	for _, alg := range Algorithms() {
		cfg := testConfig(alg, 4)
		cfg.MemoryBudget = 1 << 12 // one block does not even fit
		_, err := Run(p, cfg)
		if err == nil {
			t.Fatalf("%s: tiny memory budget did not fail", alg)
		}
		var oom *store.OOMError
		if !errors.As(err, &oom) {
			t.Errorf("%s: err = %v, want *store.OOMError root cause", alg, err)
		}
	}
}

// FuzzFaultRecovery is the chaos-schedule layer: arbitrary victim sets
// and fault times against every recoverable algorithm. Whatever the
// schedule, a run must either complete every seed with fault-free
// geometry (seed conservation) or fail with the one typed error hybrid
// is allowed when a group loses every integrator — and an immediate
// replay, a run recording a segment tape and a run replaying it must all
// be bit-identical.
func FuzzFaultRecovery(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(1), uint16(300), uint16(700), uint8(0))
	f.Add(uint8(1), uint8(5), uint8(2), uint16(100), uint16(100), uint8(0))
	f.Add(uint8(2), uint8(7), uint8(3), uint16(0), uint16(999), uint8(0))
	f.Add(uint8(2), uint8(3), uint8(2), uint16(450), uint16(451), uint8(0))
	f.Add(uint8(1), uint8(6), uint8(1), uint16(2000), uint16(0), uint8(0))
	// Found by fuzzing. A kill mid-segment must count its steps nowhere,
	// tape counters included (Load On Demand, then stealing).
	f.Add(uint8(60), uint8(6), uint8(1), uint16(2064), uint16(59), uint8(0))
	f.Add(uint8(115), uint8(156), uint8(4), uint16(321), uint16(413), uint8(0))
	// A lone stealing survivor holds the token while adoptions are in
	// flight to it.
	f.Add(uint8(91), uint8(226), uint8(128), uint16(122), uint16(968), uint8(0))
	// Hybrid: a promoted master dies before a re-pointed slave has read
	// its msgRemaster; a master dies mid-terminate with the ledger full.
	f.Add(uint8(2), uint8(3), uint8(2), uint16(387), uint16(431), uint8(0))
	f.Add(uint8(41), uint8(106), uint8(238), uint16(1958), uint16(0), uint8(0))
	// Stealing: the token holder dies part-way through broadcasting
	// all-done, with the ledger full. Found while the core suite stole
	// in batches of 4; at 8 this input misses the window, which
	// TestFaultStealingHolderDiesMidAllDone hits by construction.
	f.Add(uint8(7), uint8(87), uint8(22), uint16(1889), uint16(22), uint8(0))
	// Hybrid with two masters: both survivors are promoted to masters of
	// empty flocks, and neither may shed its seeds to the other.
	f.Add(uint8(74), uint8(204), uint8(4), uint16(321), uint16(484), uint8(1))
	// Hybrid with two masters: a slave dies while posting the status it
	// sends before advancing the streamline it has just picked, which
	// is then in neither its piles nor a message.
	f.Add(uint8(68), uint8(94), uint8(243), uint16(2495), uint16(373), uint8(253))

	p := testProblem(24)
	f.Fuzz(func(t *testing.T, algSel, procSel, killSel uint8, t1, t2 uint16, wSel uint8) {
		algs := recoverable()
		alg := algs[int(algSel)%len(algs)]
		procs := 3 + int(procSel)%5         // 3..7
		kills := 1 + int(killSel)%(procs-1) // 1..procs-1: someone survives

		cfg := faultConfig(alg, procs)
		if wSel%2 == 1 {
			// Two masters from 6 processors up: the multi-master
			// recovery paths (promotion beside a live peer, shedding,
			// seed requests between masters).
			cfg.Hybrid.W = 2
		}
		cfg.CollectTraces = true
		base, err := Run(p, cfg)
		if err != nil {
			t.Fatalf("fault-free %s/%d: %v", alg, procs, err)
		}

		// Two fault instants stretched over [0, 1.5·makespan] — before,
		// during and after the run are all fair game — with victims
		// alternating between them from index 0 upward (so the token
		// holder and coordinator are always in the first wave).
		span := 1.5 * base.Summary.WallClock
		times := [2]float64{
			span * float64(t1%1000) / 999,
			span * float64(t2%1000) / 999,
		}
		plan := faults.Plan{}
		for v := 0; v < kills; v++ {
			plan.Events = append(plan.Events, faults.Event{Proc: v, Time: times[v%2]})
		}
		fcfg := cfg
		fcfg.Faults = plan

		res, err := Run(p, fcfg)
		if err != nil {
			var ue *faults.UnrecoverableError
			if alg == HybridMS && errors.As(err, &ue) {
				return // a group lost every integrator: typed, allowed
			}
			t.Fatalf("%s/%d plan %v: %v", alg, procs, plan, err)
		}
		if got := res.Summary.StreamlinesCompleted; got != int64(len(p.Seeds)) {
			t.Fatalf("%s/%d plan %v: completed %d of %d seeds",
				alg, procs, plan, got, len(p.Seeds))
		}
		requireSameGeometry(t, fmt.Sprintf("%s/%d plan %v", alg, procs, plan),
			res.Streamlines, base.Streamlines)

		// An immediate replay must be bit-identical, geometry included —
		// and so must the same plan run without curves on a segment tape,
		// first recording it, then finding it recorded (restarts replay
		// from segment zero either way).
		same := func(label string, again *Result) {
			t.Helper()
			if again.Summary != res.Summary {
				t.Fatalf("%s: diverged:\n%+v\n%+v", label, res.Summary, again.Summary)
			}
			for i := range res.PerProc {
				if res.PerProc[i] != again.PerProc[i] {
					t.Fatalf("%s: proc %d stats diverged", label, i)
				}
			}
		}
		label := fmt.Sprintf("%s/%d plan %v", alg, procs, plan)
		again := mustRun(t, p, fcfg)
		same(label+" replay", again)
		requireSameGeometry(t, label+" replay", again.Streamlines, res.Streamlines)

		taped := p
		taped.Tape = newTape(p)
		fcfg.CollectTraces = false
		same(label+" recording a tape", mustRun(t, taped, fcfg))
		mustReplay(t, label+" replaying the tape", taped.Tape, func() *Result {
			replayed := mustRun(t, taped, fcfg)
			same(label+" replaying the tape", replayed)
			return replayed
		})
		if !taped.Tape.Complete() {
			t.Fatalf("%s/%d plan %v: the tape is incomplete after a run that finished every seed", alg, procs, plan)
		}
	})
}

// TestFaultDecimation kills every processor but the last, one after
// another: each death re-homes work that earlier deaths already
// re-homed, so the salvage → route chain (and hybrid's promotion chain)
// runs repeatedly over a shrinking machine. The pool rows must finish
// every seed bit-identically on the lone survivor; hybrid either does
// the same or, once no group keeps a slave, refuses with its typed
// error — never a hang, never drifted geometry.
func TestFaultDecimation(t *testing.T) {
	p := testProblem(60)
	const procs = 5
	for _, alg := range recoverable() {
		cfg := faultConfig(alg, procs)
		if alg == HybridMS {
			cfg.Hybrid.W = 2
		}
		cfg.CollectTraces = true
		base := mustRun(t, p, cfg)

		fcfg := cfg
		for v := 0; v < procs-1; v++ {
			fcfg.Faults.Events = append(fcfg.Faults.Events,
				faults.Event{Proc: v, Time: (0.1 + 0.1*float64(v)) * base.Summary.WallClock})
		}
		res, err := Run(p, fcfg)
		label := fmt.Sprintf("%s/%d decimated", alg, procs)
		var ue *faults.UnrecoverableError
		if alg == HybridMS && errors.As(err, &ue) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameGeometry(t, label, res.Streamlines, base.Streamlines)
		if res.Summary.ProcsLost != procs-1 {
			t.Errorf("%s: ProcsLost = %d, want %d", label, res.Summary.ProcsLost, procs-1)
		}
		if last := res.PerProc[procs-1]; last.SeedsAdopted == 0 {
			t.Errorf("%s: the lone survivor adopted nothing", label)
		}
	}
}
