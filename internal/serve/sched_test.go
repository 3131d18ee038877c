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

// keysN builds n distinguishable (not necessarily valid) keys — the
// scheduler never interprets them.
func keysN(n, base int) []experiments.Key {
	ks := make([]experiments.Key, n)
	for i := range ks {
		ks[i] = experiments.Key{Dataset: "astro", Seeding: "sparse", Alg: "ondemand", Procs: base + i}
	}
	return ks
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
	plug, err := s.submit("plug", keysN(1, 1), false)
	if err != nil {
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

	a, err := s.submit("A", keysN(3, 1), false)
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	b, err := s.submit("B", keysN(2, 1), false)
	if err != nil {
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

func TestSchedulerAdmissionCap(t *testing.T) {
	gate := make(chan struct{})
	s := newScheduler(1, 2, func(*task) { <-gate })

	if _, err := s.submit("T", keysN(3, 1), false); err == nil {
		t.Fatal("submit above the cap succeeded")
	}
	ts, err := s.submit("T", keysN(2, 1), false)
	if err != nil {
		t.Fatalf("submit at the cap: %v", err)
	}
	var sat *saturatedError
	if _, err := s.submit("T", keysN(1, 10), false); !errors.As(err, &sat) {
		t.Fatalf("submit past the cap = %v, want SaturatedError", err)
	}
	// Another tenant is unaffected by T's saturation.
	us, err := s.submit("U", keysN(1, 1), false)
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	close(gate)
	for _, tk := range append(ts, us...) {
		<-tk.done
	}
	// Capacity frees once the tasks finish.
	if _, err := s.submit("T", keysN(2, 20), false); err != nil {
		t.Fatalf("submit after drain-down: %v", err)
	}
}

func TestSchedulerDrain(t *testing.T) {
	gate := make(chan struct{})
	s := newScheduler(2, 16, func(*task) { <-gate })
	ts, err := s.submit("T", keysN(3, 1), false)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// A drain with work in flight times out while the gate is closed...
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with blocked workers = %v, want deadline exceeded", err)
	}
	// ...and new work is already refused.
	if _, err := s.submit("T", keysN(1, 10), false); !errors.Is(err, errDraining) {
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
