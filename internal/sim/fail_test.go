package sim

import (
	"testing"
)

// TestFailReleasesHeldResourceSlot pins the death-path cleanup contract:
// a holder killed mid-hold releases its slot through its deferred
// Release as the unwind runs, and the queued waiter is granted at the
// fault instant — the slot must not leak for the rest of the run.
func TestFailReleasesHeldResourceSlot(t *testing.T) {
	k := New()
	r := NewResource(k, 1)
	victim := k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		defer r.Release()
		p.Sleep(10)
	})
	grantedAt := -1.0
	k.Spawn("waiter", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p)
		grantedAt = p.Now()
		r.Release()
	})
	victim.FailAt(2)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !victim.Failed() {
		t.Error("victim not marked failed")
	}
	if grantedAt != 2 {
		t.Errorf("waiter granted at t=%g, want the fault instant t=2", grantedAt)
	}
	if r.inUse != 0 {
		t.Errorf("InUse = %d after everyone released, slot leaked", r.inUse)
	}
}

// TestFailSkipsDeadQueuedWaiter: a waiter that dies while queued must be
// passed over at the next Release — granting a dead process would leak
// the slot forever.
func TestFailSkipsDeadQueuedWaiter(t *testing.T) {
	k := New()
	r := NewResource(k, 1)
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(5)
		r.Release()
	})
	w1 := k.Spawn("w1", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p)
		t.Error("dead waiter w1 was granted the slot")
		r.Release()
	})
	grantedAt := -1.0
	k.Spawn("w2", func(p *Proc) {
		p.Sleep(2)
		r.Acquire(p)
		grantedAt = p.Now()
		r.Release()
	})
	w1.FailAt(3)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if grantedAt != 5 {
		t.Errorf("w2 granted at t=%g, want 5 (holder's release, skipping dead w1)", grantedAt)
	}
	if r.inUse != 0 || len(r.queue) != 0 {
		t.Errorf("resource not drained: inUse=%d queue=%d", r.inUse, len(r.queue))
	}
}

// TestFailRunsDeferredCleanupAtFaultInstant: FailAt unwinds the victim's
// goroutine at exactly the scheduled virtual time, running its defers.
func TestFailRunsDeferredCleanupAtFaultInstant(t *testing.T) {
	k := New()
	cleanupAt := -1.0
	v := k.Spawn("v", func(p *Proc) {
		defer func() { cleanupAt = p.Now() }()
		p.Sleep(100)
	})
	v.FailAt(3)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if cleanupAt != 3 {
		t.Errorf("deferred cleanup ran at t=%g, want 3", cleanupAt)
	}
	if !v.Failed() || !v.Done() {
		t.Errorf("victim state: failed=%v done=%v, want true/true", v.Failed(), v.Done())
	}
}

// TestWatchNotificationOrder pins the tie-break: watchers of one death
// with equal delays are notified in registration order, and a watch on
// an already-failed target fires immediately (plus its delay).
func TestWatchNotificationOrder(t *testing.T) {
	k := New()
	victim := k.Spawn("victim", func(p *Proc) { p.Sleep(10) })
	var got []string
	var times []float64
	k.Spawn("observer", func(p *Proc) {
		p.Watch(victim, "first", 0.5)
		p.Watch(victim, "second", 0.5)
		for i := 0; i < 2; i++ {
			got = append(got, p.Recv().(string))
			times = append(times, p.Now())
		}
	})
	lateAt := -1.0
	k.Spawn("late", func(p *Proc) {
		p.Sleep(2) // the victim is already dead by now
		p.Watch(victim, "late", 0.25)
		p.Recv()
		lateAt = p.Now()
	})
	victim.FailAt(1)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Errorf("notification order = %v, want registration order", got)
	}
	if len(times) != 2 || times[0] != 1.5 || times[1] != 1.5 {
		t.Errorf("notification times = %v, want both at fault+delay = 1.5", times)
	}
	if lateAt != 2.25 {
		t.Errorf("late watch fired at t=%g, want watch time + delay = 2.25", lateAt)
	}
}

// TestFailFinishedOrDeadIsNoOp: failing a process that already finished
// (or already died) changes nothing — completion is not a loss.
func TestFailFinishedOrDeadIsNoOp(t *testing.T) {
	k := New()
	fin := k.Spawn("finished", func(p *Proc) { p.Sleep(1) })
	fin.FailAt(2)
	dead := k.Spawn("dead", func(p *Proc) { p.Sleep(10) })
	dead.FailAt(3)
	dead.FailAt(4) // second kill: no-op
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fin.Failed() {
		t.Error("process that finished before its fault time marked failed")
	}
	if !fin.Done() {
		t.Error("finished process not done")
	}
	if !dead.Failed() {
		t.Error("killed process not marked failed")
	}
}

// TestTakeInbox: messages delivered to a victim but never read survive
// the death, in delivery order, and the sweep empties the inbox.
func TestTakeInbox(t *testing.T) {
	k := New()
	victim := k.Spawn("victim", func(p *Proc) { p.Sleep(10) })
	k.Spawn("sender", func(p *Proc) {
		p.Send(victim, "one", 0.5)
		p.Send(victim, "two", 1.0)
	})
	var swept []any
	victim.FailAt(2)
	k.At(2, func() { swept = victim.TakeInbox() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(swept) != 2 || swept[0] != "one" || swept[1] != "two" {
		t.Errorf("TakeInbox = %v, want [one two] in delivery order", swept)
	}
	if got := victim.TakeInbox(); len(got) != 0 {
		t.Errorf("second TakeInbox = %v, want empty", got)
	}
}

// TestRecvUntilDeadSender: a process waiting on a message from a peer
// that dies still wakes at its deadline — death must never strand a
// bounded wait.
func TestRecvUntilDeadSender(t *testing.T) {
	k := New()
	sender := k.Spawn("sender", func(p *Proc) {
		p.Sleep(5)
		t.Error("sender survived past its fault time")
	})
	wokeAt := -1.0
	ok := true
	k.Spawn("receiver", func(p *Proc) {
		_, ok = p.RecvUntil(3)
		wokeAt = p.Now()
	})
	sender.FailAt(1)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok || wokeAt != 3 {
		t.Errorf("RecvUntil with dead sender: ok=%v at t=%g, want timeout at 3", ok, wokeAt)
	}
}

// TestHaltUnwindsAllProcs: Halt stops the run at the current instant,
// unwinding every blocked process (their defers run) and returning nil
// instead of a deadlock report.
func TestHaltUnwindsAllProcs(t *testing.T) {
	k := New()
	unwound := 0
	for i := 0; i < 3; i++ {
		k.Spawn("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			p.Recv() // never satisfied
		})
	}
	k.At(1, func() { k.Halt() })
	if err := k.Run(); err != nil {
		t.Fatalf("halted run returned %v, want nil", err)
	}
	if unwound != 3 {
		t.Errorf("unwound %d of 3 blocked procs", unwound)
	}
	if !k.Halted() {
		t.Error("Halted() = false after Halt")
	}
}

// TestDeadLetterHook: a delivery landing on a failed process is handed
// to the dead-letter hook, not silently appended; deliveries to procs
// that finished normally are still dropped.
func TestDeadLetterHook(t *testing.T) {
	k := New()
	var dead []any
	k.SetDeadLetter(func(to *Proc, msg any) { dead = append(dead, msg) })
	victim := k.Spawn("victim", func(p *Proc) { p.Sleep(10) })
	finisher := k.Spawn("finisher", func(p *Proc) {})
	k.Spawn("sender", func(p *Proc) {
		p.Sleep(2)
		p.Send(victim, "salvage-me", 0.5) // lands at 2.5, victim died at 1
		p.Send(finisher, "drop-me", 0.5)  // finisher completed normally
	})
	victim.FailAt(1)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0] != "salvage-me" {
		t.Errorf("dead letters = %v, want [salvage-me]", dead)
	}
}
