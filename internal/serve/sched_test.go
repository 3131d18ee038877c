package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// tasksN builds n tasks for distinguishable (not necessarily valid)
// keys — the scheduler never interprets them.
func tasksN(n, base int) []*task {
	ts := make([]*task, n)
	for i := range ts {
		ts[i] = &task{key: experiments.Key{Dataset: "astro", Seeding: "sparse", Alg: "ondemand", Procs: base + i}}
	}
	return ts
}

// submitEach submits ts for tenant one at a time, stopping at the first
// refusal.
func submitEach(s *scheduler, tenant string, ts []*task) error {
	for _, t := range ts {
		if err := s.submit(tenant, t); err != nil {
			return err
		}
	}
	return nil
}

// TestSchedulerRoundRobinFairness pins the interleaving: with one
// worker, a plugged pool, tenant A queueing three cells and tenant B
// two, service alternates A,B,A,B,A — A's backlog delays A, not B.
func TestSchedulerRoundRobinFairness(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	s := newScheduler(1, 16, func(tk *task) {
		if tk.tenant == "plug" {
			<-gate
		}
		mu.Lock()
		order = append(order, fmt.Sprintf("%s%d", tk.tenant, tk.key.Procs))
		mu.Unlock()
	})

	// Plug the single worker so the A and B queues build up behind it.
	plug := tasksN(1, 1)
	if err := s.submit("plug", plug[0]); err != nil {
		t.Fatalf("submit plug: %v", err)
	}
	// Wait for the worker to pick the plug up (its queue drains) so the
	// ring order below is deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		idle := len(s.ring) == 0
		s.mu.Unlock()
		if idle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the plug task")
		}
		time.Sleep(time.Millisecond)
	}

	a := tasksN(3, 1)
	if err := submitEach(s, "A", a); err != nil {
		t.Fatalf("submit A: %v", err)
	}
	b := tasksN(2, 1)
	if err := submitEach(s, "B", b); err != nil {
		t.Fatalf("submit B: %v", err)
	}
	close(gate)
	for _, tk := range append(append(plug, a...), b...) {
		<-tk.done
	}

	want := []string{"plug1", "A1", "B1", "A2", "B2", "A3"}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("service order %v, want %v", order, want)
	}
}

// TestSchedulerAdmissionCap: a tenant's tasks are admitted up to its
// cap and refused past it, other tenants are unaffected, and capacity
// returns as tasks finish.
func TestSchedulerAdmissionCap(t *testing.T) {
	gate := make(chan struct{})
	s := newScheduler(1, 2, func(*task) { <-gate })

	ts := tasksN(2, 1)
	if err := submitEach(s, "T", ts); err != nil {
		t.Fatalf("submit up to the cap: %v", err)
	}
	var sat *saturatedError
	if err := s.submit("T", tasksN(1, 10)[0]); !errors.As(err, &sat) {
		t.Fatalf("submit past the cap = %v, want SaturatedError", err)
	}
	// A cell the store answered is no task and takes no slot.
	if err := s.submit("T", nil); err != nil {
		t.Fatalf("nil submit at the cap = %v, want nil", err)
	}
	// Another tenant is unaffected by T's saturation.
	us := tasksN(1, 1)
	if err := s.submit("U", us[0]); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	close(gate)
	for _, tk := range append(ts, us...) {
		<-tk.done
	}
	// Capacity frees once the tasks finish.
	if err := submitEach(s, "T", tasksN(2, 20)); err != nil {
		t.Fatalf("submit after drain-down: %v", err)
	}
}

func TestSchedulerDrain(t *testing.T) {
	gate := make(chan struct{})
	s := newScheduler(2, 16, func(*task) { <-gate })
	ts := tasksN(3, 1)
	if err := submitEach(s, "T", ts); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// A drain with work in flight times out while the gate is closed...
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with blocked workers = %v, want deadline exceeded", err)
	}
	// ...and new work is already refused.
	if err := s.submit("T", tasksN(1, 10)[0]); !errors.Is(err, errDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}

	close(gate)
	if err := s.drain(context.Background()); err != nil {
		t.Fatalf("drain after gate opened: %v", err)
	}
	for _, tk := range ts { // every admitted task completed
		select {
		case <-tk.done:
		default:
			t.Fatal("drain returned with an admitted task unfinished")
		}
	}
}
