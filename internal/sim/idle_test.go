package sim

import "testing"

// IdleTime returns the total virtual time p has spent blocked: the
// kernel's own count, which these tests hold its idle spans and each
// process's busy/idle split against.
func (p *Proc) IdleTime() float64 { return p.idleTotal }

// TestIdleBusySpanInvariant pins idle-time accounting across all four
// wake paths — message delivery, RecvUntil deadline, Resource grant and
// Event fire: for every process, the time it spent blocked (IdleTime)
// plus the time it charged as busy (Sleep) must equal its body's run
// span exactly. All durations are dyadic rationals so float addition is
// exact and the comparisons can demand equality.
func TestIdleBusySpanInvariant(t *testing.T) {
	k := New()
	res := NewResource(k, 1)
	ev := NewEvent(k)

	type ledger struct {
		start, end, busy float64
	}
	acct := make(map[string]*ledger)
	procs := make(map[string]*Proc)
	track := func(name string, body func(p *Proc, l *ledger)) *Proc {
		l := &ledger{}
		acct[name] = l
		pr := k.Spawn(name, func(p *Proc) {
			l.start = p.Now()
			body(p, l)
			l.end = p.Now()
		})
		procs[name] = pr
		return pr
	}
	sleep := func(p *Proc, l *ledger, d float64) {
		p.Sleep(d)
		l.busy += d
	}

	// recv: woken by Deliver mid-wait, then by a same-instant delivery
	// (zero idle), then times out a RecvUntil.
	var recv *Proc
	recv = track("recv", func(p *Proc, l *ledger) {
		p.Recv()             // idle 0.25 (sender delivers at 0.25)
		sleep(p, l, 0.5)     // busy until 0.75
		p.RecvUntil(p.Now()) // immediate poll: zero idle
		p.RecvUntil(1.0)     // times out: idle 0.25
		sleep(p, l, 0.25)    // busy until 1.25
		if _, ok := p.Recv().(string); !ok {
			t.Error("recv: unexpected payload")
		} // second message lands at 1.5: idle 0.25
	})
	track("send", func(p *Proc, l *ledger) {
		sleep(p, l, 0.25)
		p.Send(recv, "a", 0)
		p.Send(recv, "b", 1.25) // arrives at 1.5
	})

	// holder/waiter: Resource contention; waiter idles while holder
	// computes with the only slot.
	track("holder", func(p *Proc, l *ledger) {
		res.Acquire(p) // free: no idle
		sleep(p, l, 0.5)
		res.Release()
	})
	track("waiter", func(p *Proc, l *ledger) {
		res.Acquire(p) // queued behind holder: idle 0.5
		res.Release()
		sleep(p, l, 0.25)
	})

	// event-a/b: Event waiters woken by a kernel-callback Fire at 0.75;
	// b starts waiting only at 0.5, so their idle differs.
	k.At(0.75, ev.Fire)
	track("event-a", func(p *Proc, l *ledger) {
		ev.Wait(p) // idle 0.75
	})
	track("event-b", func(p *Proc, l *ledger) {
		sleep(p, l, 0.5)
		ev.Wait(p) // idle 0.25
		ev.Wait(p) // already fired: zero idle
	})

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for name, pr := range procs {
		l := acct[name]
		span := l.end - l.start
		if got := l.busy + pr.IdleTime(); got != span {
			t.Errorf("%s: busy %g + idle %g = %g, want run span %g",
				name, l.busy, pr.IdleTime(), got, span)
		}
	}
	// Spot-check known values so the invariant cannot pass vacuously
	// (e.g. with both sides zero).
	if got := procs["waiter"].IdleTime(); got != 0.5 {
		t.Errorf("waiter idle = %g, want 0.5", got)
	}
	if got := procs["recv"].IdleTime(); got != 0.75 {
		t.Errorf("recv idle = %g, want 0.75", got)
	}
}

// TestEventFireSkipsDeadWaiters pins the dead-waiter accounting fix: a
// process killed while parked on an Event must not be credited idle time
// when the event later fires (the wake itself was already refused; the
// accounting used to leak through).
func TestEventFireSkipsDeadWaiters(t *testing.T) {
	k := New()
	ev := NewEvent(k)
	casualty := k.Spawn("casualty", func(p *Proc) {
		ev.Wait(p)
	})
	var survivorIdle float64
	k.Spawn("survivor", func(p *Proc) {
		ev.Wait(p)
		survivorIdle = p.IdleTime()
	})
	k.At(0.25, func() { k.Fail(casualty) })
	k.At(0.5, ev.Fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if idle := casualty.IdleTime(); idle != 0 {
		t.Errorf("dead waiter accrued %g idle time from Fire, want 0", idle)
	}
	if survivorIdle != 0.5 {
		t.Errorf("surviving waiter idle = %g, want 0.5", survivorIdle)
	}
}
