// The bounded multi-tenant scheduler.
//
// The service's compute resource is a fixed pool of workers (one
// simulated campaign cell runs per worker at a time — the same bound
// the campaign pool enforces for batch sweeps). Only the cells the Store
// missed come here: the handler answers hits before it submits.
// Fairness across tenants is deficit-free round-robin: each tenant owns
// a FIFO queue, the queues with pending work form a ring, and every
// worker pops one task from the front queue then rotates the ring — so a
// tenant flooding ten thousand cells delays its own tail, not the
// single-cell tenant behind it. Admission control is a per-tenant cap on
// outstanding (queued + running) tasks, which are cells that need
// computing, so a hit is answered at the cap: past it, submissions fail
// fast with a saturatedError (HTTP 429) instead of growing an unbounded
// queue. A tenant's queue exists only while it has tasks outstanding, so
// the set of queues is bounded by the work admitted, not by how many
// X-Tenant values have ever been seen.
//
// Draining flips the scheduler closed: new submissions, even the nil
// one of a request whose cell hit, fail with errDraining;
// already-accepted tasks run to completion, and Drain returns when the
// last worker parks — the SIGTERM path of cmd/slserve.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/experiments"
)

// errDraining rejects submissions after a drain has begun.
var errDraining = errors.New("serve: draining, not accepting new work")

// saturatedError rejects a submission that would push a tenant past its
// admission cap.
type saturatedError struct {
	Tenant string
	Limit  int
}

// Error renders the admission failure.
func (e *saturatedError) Error() string {
	return fmt.Sprintf("serve: tenant %q has %d tasks outstanding (limit): retry when in-flight requests finish", e.Tenant, e.Limit)
}

// task is one campaign cell the store missed, in flight through the
// scheduler. done is closed — after *row is final — when the cell has
// been served (from the store after all, or computed).
type task struct {
	key    experiments.Key
	tenant string // names the task's queue in scheduler.tenants
	row    *Row   // the request's row for this cell, filled by exec
	done   chan struct{}
}

// tenantQ is one tenant's FIFO plus its admission accounting.
type tenantQ struct {
	items   []*task
	ringed  bool // queue currently holds a ring slot
	pending int  // queued + running, the admission count
}

// scheduler fans tasks from per-tenant queues onto a fixed worker pool.
type scheduler struct {
	exec  func(*task) // fills task.row; set by the Server
	limit int         // per-tenant outstanding cap

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQ // tenants with tasks outstanding
	ring    []*tenantQ          // round-robin order over tenants with queued work
	closed  bool
	wg      sync.WaitGroup
}

// newScheduler starts workers goroutines executing exec.
func newScheduler(workers, limit int, exec func(*task)) *scheduler {
	s := &scheduler{exec: exec, limit: limit, tenants: make(map[string]*tenantQ)}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// submit enqueues t for tenant, or refuses it: past the tenant's cap
// with a saturatedError, during a drain with errDraining. A nil t is a
// cell the store answered, which only asks whether the server drains.
func (s *scheduler) submit(tenant string, t *task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errDraining
	}
	if t == nil {
		return nil
	}
	tq := s.tenants[tenant]
	if tq == nil {
		tq = &tenantQ{}
		s.tenants[tenant] = tq
	}
	if tq.pending >= s.limit {
		return &saturatedError{Tenant: tenant, Limit: s.limit}
	}
	t.tenant, t.done = tenant, make(chan struct{})
	tq.items = append(tq.items, t)
	tq.pending++
	if !tq.ringed {
		tq.ringed = true
		s.ring = append(s.ring, tq)
	}
	s.cond.Broadcast()
	return nil
}

// worker pops tasks round-robin across tenants until the scheduler is
// drained dry.
func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.ring) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.ring) == 0 {
			// closed and dry: drain complete for this worker.
			s.mu.Unlock()
			return
		}
		tq := s.ring[0]
		s.ring = s.ring[1:]
		t := tq.items[0]
		tq.items = tq.items[1:]
		if len(tq.items) > 0 {
			s.ring = append(s.ring, tq) // rotate: next tenant first
		} else {
			tq.ringed = false
		}
		s.mu.Unlock()

		s.exec(t)

		s.mu.Lock()
		if tq.pending--; tq.pending == 0 {
			delete(s.tenants, t.tenant)
		}
		s.mu.Unlock()
		close(t.done)
	}
}

// drain closes the scheduler to new submissions, lets every admitted
// task finish, and waits (bounded by ctx) for the workers to park.
func (s *scheduler) drain(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	parked := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(parked)
	}()
	select {
	case <-parked:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
