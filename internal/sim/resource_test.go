package sim

import (
	"fmt"
	"testing"
)

// TestResourceFIFOFairness pins the queue discipline under contention:
// waiters are granted strictly in arrival order, regardless of which
// processor finishes its transfer when.
func TestResourceFIFOFairness(t *testing.T) {
	k := New()
	r := NewResource(k, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			// Stagger arrivals so the queue order is unambiguous.
			p.Sleep(float64(i) * 0.1)
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(1)
			r.Release()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[0 1 2 3 4]" {
		t.Errorf("grant order = %v, want FIFO", got)
	}
}

// TestResourceQueuedWaiterIdleTime pins the accounting on the queued
// path: a process that waits w seconds for a slot reports exactly w of
// idle time, and an uncontended Acquire reports none.
func TestResourceQueuedWaiterIdleTime(t *testing.T) {
	k := New()
	r := NewResource(k, 1)
	var firstIdle, secondIdle float64
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		firstIdle = p.IdleTime()
		p.Sleep(3)
		r.Release()
	})
	k.Spawn("waiter", func(p *Proc) {
		r.Acquire(p) // queued until t=3
		secondIdle = p.IdleTime()
		r.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if firstIdle != 0 {
		t.Errorf("uncontended Acquire charged %g idle", firstIdle)
	}
	if secondIdle != 3 {
		t.Errorf("queued waiter idle = %g, want 3", secondIdle)
	}
}

// TestResourceReleaseTransfersSlot pins the slot-transfer semantics:
// releasing with a non-empty queue hands the slot over directly — InUse
// never dips, and no third party can sneak in between.
func TestResourceReleaseTransfersSlot(t *testing.T) {
	k := New()
	r := NewResource(k, 1)
	var inUseAtHandoff, queueAtHandoff int
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(1)
		r.Release()
		// The waiter wakes at t=1 but has not run yet; the slot must
		// already be accounted to it.
		inUseAtHandoff = r.inUse
		queueAtHandoff = len(r.queue)
	})
	k.Spawn("waiter", func(p *Proc) {
		p.Sleep(0.5)
		r.Acquire(p)
		if r.inUse != 1 {
			t.Errorf("InUse after transfer = %d, want 1", r.inUse)
		}
		r.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if inUseAtHandoff != 1 {
		t.Errorf("InUse at handoff = %d, want 1 (slot transfers, never frees)", inUseAtHandoff)
	}
	if queueAtHandoff != 0 {
		t.Errorf("queue at handoff = %d, want 0", queueAtHandoff)
	}
}

// TestReleasedSlotServesDemandBeforeOpportunists: a slot claimed with
// TryAcquire is a full FIFO citizen on release — queued demand Acquires
// get it first, and further TryAcquires are refused while anyone waits.
func TestReleasedSlotServesDemandBeforeOpportunists(t *testing.T) {
	k := New()
	r := NewResource(k, 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire failed on an idle resource")
	}
	k.After(1, func() { r.Release() }) // speculative hold until t=1
	var acquiredAt float64
	k.Spawn("demand", func(p *Proc) {
		p.Sleep(0.5)
		r.Acquire(p) // queued behind the speculative transfer
		acquiredAt = p.Now()
		r.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if acquiredAt != 1 {
		t.Errorf("demand acquired at t=%g, want 1 (handed the released slot)", acquiredAt)
	}
}

// TestTryAcquire: opportunistic claims succeed only on an idle slot —
// never when slots are busy, never when anyone queues.
func TestTryAcquire(t *testing.T) {
	k := New()
	r := NewResource(k, 2)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire failed on an idle resource")
	}
	if !r.TryAcquire() {
		t.Fatal("TryAcquire failed with one slot free")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire succeeded on a full resource")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire failed after a release")
	}
	r.Release()
	r.Release()
	if r.inUse != 0 {
		t.Fatalf("InUse = %d after all releases", r.inUse)
	}
	// With a waiter queued, even a freshly released slot belongs to the
	// queue, not to opportunists.
	r2 := NewResource(k, 1)
	k.Spawn("holder", func(p *Proc) {
		r2.Acquire(p)
		p.Sleep(1)
		r2.Release()
	})
	k.Spawn("waiter", func(p *Proc) {
		p.Sleep(0.5)
		r2.Acquire(p)
		r2.Release()
	})
	k.After(0.7, func() {
		if r2.TryAcquire() {
			t.Error("TryAcquire bypassed a queued waiter")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEventWaitAndFire: waiters block until Fire, a fired event never
// blocks again, double-Fire is a no-op, and the wait is idle time.
func TestEventWaitAndFire(t *testing.T) {
	k := New()
	e := NewEvent(k)
	if e.fired {
		t.Fatal("new event already fired")
	}
	var wokeAt, lateAt, idle float64
	k.Spawn("early", func(p *Proc) {
		e.Wait(p)
		wokeAt = p.Now()
		idle = p.IdleTime()
	})
	k.Spawn("late", func(p *Proc) {
		p.Sleep(5)
		e.Wait(p) // already fired: returns immediately
		lateAt = p.Now()
	})
	k.After(2, func() {
		e.Fire()
		e.Fire() // idempotent
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.fired {
		t.Error("event not marked fired")
	}
	if wokeAt != 2 {
		t.Errorf("waiter woke at t=%g, want 2", wokeAt)
	}
	if idle != 2 {
		t.Errorf("waiter idle = %g, want 2", idle)
	}
	if lateAt != 5 {
		t.Errorf("post-fire Wait blocked until t=%g, want 5", lateAt)
	}
}

// TestEventMultipleWaiters: one Fire wakes every waiter at the same
// virtual instant.
func TestEventMultipleWaiters(t *testing.T) {
	k := New()
	e := NewEvent(k)
	woke := make([]float64, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			e.Wait(p)
			woke[i] = p.Now()
		})
	}
	k.After(1.5, e.Fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, at := range woke {
		if at != 1.5 {
			t.Errorf("waiter %d woke at %g, want 1.5", i, at)
		}
	}
}
