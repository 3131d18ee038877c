// Package faults defines deterministic fault-injection plans: which
// simulated processors die, and at which virtual times.
//
// The paper's algorithms target machines (a 149k-core Cray XT5) where
// processor loss is a when, not an if, yet a simulated machine is
// perfectly reliable unless told otherwise. A Plan closes that gap
// without giving up the repo's core contract: a fault is an ordinary
// scheduled simulator event (core.Run schedules each one with
// sim.Kernel.At; at that instant the recovery layer kills the processor
// with sim.Kernel.Fail and runs its algorithm's recovery policy), so a
// run under a plan is still a pure function of its inputs — replaying the same plan
// reproduces the same failure, the same recovery and the same geometry
// bit for bit. That determinism is what lets the chaos-schedule fuzz
// layer (core.FuzzFaultRecovery) and the golden-digest tests pin every
// recovery path.
//
// A plan says nothing about recovery; that is per-algorithm policy in
// internal/core. Static allocation cannot recover (its block ownership
// dies with the processor), which UnrecoverableError makes a typed,
// testable outcome rather than a hang.
package faults

import (
	"fmt"
	"math"
	"sort"
)

// Event is one scheduled processor loss: processor Proc dies at virtual
// time Time. Death is permanent — there is no rejoin in this model, as
// in the MPI world the paper ran in, where a lost rank does not return
// to the communicator.
type Event struct {
	// Proc is the index of the processor to kill (the experiments-layer
	// endpoint index, dense from 0).
	Proc int
	// Time is the absolute virtual time of the loss in seconds.
	Time float64
}

// Plan is a deterministic fault schedule: a set of processor losses,
// each at a fixed virtual time. The zero Plan injects nothing.
type Plan struct {
	// Events lists the scheduled losses. Canonical order is (Time,
	// Proc) ascending; Canonicalize sorts a hand-built plan.
	Events []Event
}

// KillAt builds a plan that kills each listed processor at time t.
func KillAt(t float64, procs ...int) Plan {
	p := Plan{}
	for _, pr := range procs {
		p.Events = append(p.Events, Event{Proc: pr, Time: t})
	}
	return p.Canonicalize()
}

// Enabled reports whether the plan schedules any loss.
func (p Plan) Enabled() bool { return len(p.Events) > 0 }

// Canonicalize returns the plan with events sorted by (Time, Proc), the
// canonical order the injection loop uses.
func (p Plan) Canonicalize() Plan {
	ev := append([]Event(nil), p.Events...)
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].Time != ev[j].Time {
			return ev[i].Time < ev[j].Time
		}
		return ev[i].Proc < ev[j].Proc
	})
	return Plan{Events: ev}
}

// Validate checks the plan against a machine of procs processors: every
// victim index must be in range, every time finite and non-negative,
// no processor may die twice, and at least one processor must survive —
// a plan that kills the whole machine leaves no one to finish the run.
func (p Plan) Validate(procs int) error {
	if len(p.Events) == 0 {
		return nil
	}
	if procs < 1 {
		return fmt.Errorf("faults: plan for %d processors", procs)
	}
	if len(p.Events) >= procs {
		return fmt.Errorf("faults: plan kills %d of %d processors; at least one must survive", len(p.Events), procs)
	}
	seen := make(map[int]bool, len(p.Events))
	for _, e := range p.Events {
		if e.Proc < 0 || e.Proc >= procs {
			return fmt.Errorf("faults: victim %d out of range [0,%d)", e.Proc, procs)
		}
		if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) || e.Time < 0 {
			return fmt.Errorf("faults: fault time %v for processor %d is not a finite non-negative instant", e.Time, e.Proc)
		}
		if seen[e.Proc] {
			return fmt.Errorf("faults: processor %d dies twice", e.Proc)
		}
		seen[e.Proc] = true
	}
	return nil
}

// UnrecoverableError is the typed outcome of injecting a fault into an
// algorithm that cannot recover from it. Static allocation is the
// canonical case: a processor's block ownership and resident
// streamlines die with it and no surviving processor holds (or can
// learn) that assignment, so the run fails cleanly instead of hanging —
// an asymmetry the paper's Section 5 comparison makes measurable.
type UnrecoverableError struct {
	// Algorithm names the scheduling algorithm that cannot recover.
	Algorithm string
	// Proc is the processor whose loss aborted the run.
	Proc int
	// Time is the virtual time of the loss.
	Time float64
	// Reason explains why recovery is impossible for this algorithm.
	Reason string
}

// Error implements error.
func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("faults: %s cannot recover from loss of processor %d at t=%.3gs: %s",
		e.Algorithm, e.Proc, e.Time, e.Reason)
}

// NoLatencyError rejects a fault plan on a network that delivers in zero
// time. Failure detection is modeled as one network latency: the death
// notices and the recovery layer's re-homing messages arrive that long
// after the loss. With no latency, a death, its detection and the
// re-homed work all land at one virtual instant, and a chain of losses
// can hand the same work back and forth there forever (hybrid with two
// slaves per master did) — the run would never return.
type NoLatencyError struct{}

// Error implements error.
func (*NoLatencyError) Error() string {
	return "faults: a fault plan needs a network with nonzero latency (failure detection takes one latency)"
}
