package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New()
	var tEnd float64
	k.Spawn("a", func(p *Proc) {
		p.Sleep(1.5)
		p.Sleep(2.5)
		tEnd = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tEnd != 4.0 {
		t.Errorf("end time = %g, want 4", tEnd)
	}
	if k.Now() != 4.0 {
		t.Errorf("kernel time = %g", k.Now())
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	k := New()
	k.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 0 {
		t.Errorf("time advanced to %g", k.Now())
	}
}

func TestParallelSleepsOverlap(t *testing.T) {
	// Two processes sleeping in parallel take max, not sum, of durations.
	k := New()
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) { p.Sleep(10) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 10 {
		t.Errorf("parallel sleeps ended at %g, want 10", k.Now())
	}
}

func TestSendRecv(t *testing.T) {
	k := New()
	var got any
	var at float64
	b := k.Spawn("b", func(p *Proc) {
		got = p.Recv()
		at = p.Now()
	})
	k.Spawn("a", func(p *Proc) {
		p.Sleep(1)
		p.Send(b, "hello", 0.5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Errorf("got %v", got)
	}
	if at != 1.5 {
		t.Errorf("delivered at %g, want 1.5", at)
	}
}

func TestRecvOrderFIFO(t *testing.T) {
	k := New()
	var order []int
	b := k.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, p.Recv().(int))
		}
	})
	k.Spawn("a", func(p *Proc) {
		// Same delivery time: arrival order must follow send order.
		p.Send(b, 1, 1)
		p.Send(b, 2, 1)
		p.Send(b, 3, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("order = %v", order)
	}
}

func TestRecvOrderByDeliveryTime(t *testing.T) {
	k := New()
	var order []int
	b := k.Spawn("b", func(p *Proc) {
		for i := 0; i < 2; i++ {
			order = append(order, p.Recv().(int))
		}
	})
	k.Spawn("a", func(p *Proc) {
		p.Send(b, 1, 5) // arrives later
		p.Send(b, 2, 1) // arrives first
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[2 1]" {
		t.Errorf("order = %v", order)
	}
}

func TestTryRecv(t *testing.T) {
	k := New()
	var first, second bool
	var v any
	b := k.Spawn("b", func(p *Proc) {
		_, first = p.TryRecv()
		p.Sleep(2)
		v, second = p.TryRecv()
	})
	k.Spawn("a", func(p *Proc) { p.Send(b, 42, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first {
		t.Error("TryRecv returned a message before delivery")
	}
	if !second || v != 42 {
		t.Errorf("TryRecv after delivery = (%v, %v)", v, second)
	}
}

func TestPending(t *testing.T) {
	k := New()
	var pending int
	b := k.Spawn("b", func(p *Proc) {
		p.Sleep(2)
		pending = p.Pending()
		p.Recv()
		p.Recv()
	})
	k.Spawn("a", func(p *Proc) {
		p.Send(b, 1, 0.5)
		p.Send(b, 2, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pending != 2 {
		t.Errorf("Pending = %d, want 2", pending)
	}
}

func TestIdleTimeAccounting(t *testing.T) {
	k := New()
	var idle float64
	b := k.Spawn("b", func(p *Proc) {
		p.Recv() // blocks from t=0 to t=3
		idle = p.IdleTime()
	})
	k.Spawn("a", func(p *Proc) {
		p.Sleep(3)
		p.Send(b, "x", 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if idle != 3 {
		t.Errorf("idle = %g, want 3", idle)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	k.Spawn("stuck", func(p *Proc) { p.Recv() })
	k.Spawn("fine", func(p *Proc) { p.Sleep(1) })
	err := k.Run()
	de, ok := err.(*deadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Stuck) != 1 || de.Stuck[0] != "stuck" {
		t.Errorf("Stuck = %v", de.Stuck)
	}
	if de.Error() == "" {
		t.Error("empty error string")
	}
}

func TestAtAndAfterCallbacks(t *testing.T) {
	k := New()
	var times []float64
	k.At(5, func() { times = append(times, k.Now()) })
	k.After(2, func() { times = append(times, k.Now()) })
	k.Spawn("a", func(p *Proc) { p.Sleep(10) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(times) != "[2 5]" {
		t.Errorf("times = %v", times)
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	k := New()
	var fired float64 = -1
	k.Spawn("a", func(p *Proc) {
		p.Sleep(5)
		p.k.At(1, func() { fired = k.Now() }) // in the past
		p.Sleep(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Errorf("past event fired at %g, want 5", fired)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	k := New()
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(1)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(1)
			childRan = true
		})
		p.Sleep(0.5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child did not run")
	}
	if k.Now() != 2 {
		t.Errorf("end time = %g, want 2", k.Now())
	}
}

func TestManyProcsPingPong(t *testing.T) {
	k := New()
	const n = 50
	counts := make([]int, n)
	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for {
				m := p.Recv().(int)
				if m < 0 {
					return
				}
				counts[i]++
				next := procs[(i+1)%n]
				if m == 0 {
					// Tell everyone to stop.
					for _, q := range procs {
						p.Send(q, -1, 0.001)
					}
					return
				}
				p.Send(next, m-1, 0.001)
			}
		})
	}
	k.At(0, func() { k.Deliver(procs[0], 200, 0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 201 {
		t.Errorf("total hops = %d, want 201", total)
	}
}

func TestDeterminism(t *testing.T) {
	// The same randomized workload must produce an identical event trace
	// across runs.
	runOnce := func(seed int64) string {
		k := New()
		rng := rand.New(rand.NewSource(seed))
		var trace []string
		const n = 8
		procs := make([]*Proc, n)
		for i := 0; i < n; i++ {
			i := i
			procs[i] = k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(rng.Float64())
					trace = append(trace, fmt.Sprintf("%d@%.9f", i, p.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(trace)
	}
	a := runOnce(99)
	b := runOnce(99)
	if a != b {
		t.Error("simulation not deterministic")
	}
}

func TestResourceSerializes(t *testing.T) {
	k := New()
	r := NewResource(k, 1)
	var ends []float64
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Acquire(p)
			p.Sleep(2)
			r.Release()
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ends) != "[2 4 6]" {
		t.Errorf("ends = %v", ends)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	k := New()
	r := NewResource(k, 2)
	var maxEnd float64
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Acquire(p)
			p.Sleep(3)
			r.Release()
			if p.Now() > maxEnd {
				maxEnd = p.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxEnd != 6 {
		t.Errorf("4 jobs × 3s at capacity 2 ended at %g, want 6", maxEnd)
	}
	if r.inUse != 0 || len(r.queue) != 0 {
		t.Errorf("resource not drained: inUse=%d queue=%d", r.inUse, len(r.queue))
	}
}

func TestResourceMinimumCapacity(t *testing.T) {
	k := New()
	r := NewResource(k, 0)
	if r.capacity != 1 {
		t.Errorf("capacity = %d, want clamp to 1", r.capacity)
	}
}

func TestRunTwiceSequentially(t *testing.T) {
	k := New()
	k.Spawn("a", func(p *Proc) { p.Sleep(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A second Run with nothing to do is a no-op, not an error.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcAccessors(t *testing.T) {
	k := New()
	p := k.Spawn("alpha", func(p *Proc) {})
	if p.ID() != 0 || p.Name() != "alpha" || p.Kernel() != k {
		t.Errorf("accessors wrong: id=%d name=%q", p.ID(), p.Name())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPropVirtualTimeMonotonic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		k := New()
		rng := rand.New(rand.NewSource(seed))
		last := 0.0
		violated := false
		var procs []*Proc
		for i := 0; i < 5; i++ {
			procs = append(procs, k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Sleep(rng.Float64() * 0.1)
					if p.Now() < last {
						violated = true
					}
					last = p.Now()
				}
			}))
		}
		_ = procs
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if violated {
			t.Fatalf("seed %d: virtual time went backwards", seed)
		}
	}
}

func TestMessageDoesNotWakeResourceWaiter(t *testing.T) {
	// Regression: a message delivered to a process queued on a resource
	// must not resume it early — it must keep its place in the queue and
	// acquire the slot before proceeding.
	k := New()
	r := NewResource(k, 1)
	var acquiredAt, msgSeen float64 = -1, -1
	var waiter *Proc
	waiter = k.Spawn("waiter", func(p *Proc) {
		p.Sleep(0.1) // let the holder grab the slot first
		r.Acquire(p) // blocks until t=5
		acquiredAt = p.Now()
		p.Sleep(2) // must complete fully: ends at acquiredAt+2
		r.Release()
		if _, ok := p.TryRecv(); ok {
			msgSeen = p.Now()
		}
	})
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(5)
		r.Release()
	})
	k.Spawn("sender", func(p *Proc) {
		p.Send(waiter, "poke", 1) // arrives while waiter queues for the resource
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if acquiredAt != 5 {
		t.Errorf("acquired at %g, want 5 (after holder released)", acquiredAt)
	}
	if k.Now() != 7 {
		t.Errorf("end = %g, want 7 (5 + full 2s sleep)", k.Now())
	}
	if msgSeen != 7 {
		t.Errorf("message seen at %g, want 7", msgSeen)
	}
}

func TestSleepNotCutShortByDelivery(t *testing.T) {
	// Regression: a message arriving mid-Sleep must not shorten the sleep.
	k := New()
	var wokeAt float64
	var sleeper *Proc
	sleeper = k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		wokeAt = p.Now()
	})
	k.Spawn("sender", func(p *Proc) {
		p.Send(sleeper, "hi", 3)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 10 {
		t.Errorf("woke at %g, want 10", wokeAt)
	}
}
