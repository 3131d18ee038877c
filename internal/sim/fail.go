// Processor failure: first-class, deterministic death of a simulated
// process. A fault plan (internal/faults) schedules Proc.FailAt calls;
// at the fault instant the kernel unwinds the victim's body through
// the same procKilled panic used for end-of-run cleanup, runs its
// deferred cleanups (releasing any Resource slots it holds), and then
// notifies every registered watcher in virtual time. Because the fault
// is an ordinary kernel event, two runs with the same plan are
// bit-identical — the whole recovery layer above rests on that.
package sim

// watcher is one registered death notification: deliver msg to p after
// delay once the watched process fails.
type watcher struct {
	p     *Proc
	msg   any
	delay float64
}

// Failed reports whether the process was killed mid-run by Fail/FailAt
// (as opposed to finishing its body or being unwound at end of run).
func (p *Proc) Failed() bool { return p.failed }

// Done reports whether the process's body has finished (normally or by
// unwinding). The recovery layer uses !Done && !Failed to mean "still
// running, can adopt work".
func (p *Proc) Done() bool { return p.done }

// TakeInbox removes and returns every delivered-but-unread message in a
// failed process's inbox, in delivery order. The recovery layer sweeps
// it at the fault instant: a message delivered to the victim but never
// handled may carry work (streamlines, a termination token) that must
// not die with it.
func (p *Proc) TakeInbox() []any {
	m := p.inbox[p.inboxHead:]
	p.inbox = nil
	p.inboxHead = 0
	return m
}

// FailAt schedules this process to fail at absolute virtual time t. The
// failure is an ordinary kernel event, so replaying the same schedule
// reproduces the same run bit for bit.
func (p *Proc) FailAt(t float64) {
	p.k.At(t, func() { p.k.Fail(p) })
}

// Fail kills p at the current virtual time: the process's body is
// unwound through the procKilled panic (running its deferred cleanups,
// e.g. releasing a held Resource slot), after which each watcher
// registered with Watch is notified in registration order. A process
// that has not run yet is failed without its body ever being entered.
// Failing a process that already finished or failed is a no-op. Fail
// must not be called from p's own body — a process cannot outlive its
// own unwind — but calling it from kernel callbacks (the fault-plan
// path) or from another process's body is safe: the unwind is a nested
// resume that returns to Fail's caller.
func (k *Kernel) Fail(p *Proc) {
	if p.done || p.killed {
		return
	}
	p.failed = true
	// A victim killed mid-RecvUntil leaves a deadline timer behind;
	// cancel it so it neither pins the dead process in the event heap
	// nor charges it idle time at the virtual deadline.
	k.cancelTimer(p)
	p.kill()
	for _, w := range p.watchers {
		k.Deliver(w.p, w.msg, w.delay)
	}
	p.watchers = nil
}

// Watch registers a death notification: if target fails, msg is
// delivered to p's inbox delay seconds after the fault instant. If
// target has already failed, the notification is delivered immediately
// (after delay). Notifications for one death are delivered in Watch
// registration order — the deterministic tie-break when several
// survivors learn of the same loss at the same virtual instant. A
// target that finishes normally never notifies: completion is not a
// loss.
func (p *Proc) Watch(target *Proc, msg any, delay float64) {
	if target.failed {
		p.k.Deliver(p, msg, delay)
		return
	}
	target.watchers = append(target.watchers, watcher{p: p, msg: msg, delay: delay})
}

// SetDeadLetter installs the kernel's dead-letter hook: a message whose
// Deliver lands after its destination has failed is handed to fn
// instead of being appended to the dead inbox. The recovery layer uses
// it to salvage in-flight work (a steal reply racing its requester's
// death must not lose the streamlines it carries). Messages to
// processes that finished normally are still dropped silently — those
// are protocol stragglers, not lost work.
func (k *Kernel) SetDeadLetter(fn func(to *Proc, msg any)) { k.deadLetter = fn }

// Halt stops the simulation deterministically at the current virtual
// time: Run unwinds every unfinished process (in spawn order, running
// their deferred cleanups; a process that has not run yet never enters
// its body) and returns nil instead of reporting a deadlock. It is the
// error path's answer to stranded peers — when one process aborts a
// run, the others must not hang until the event queue drains.
func (k *Kernel) Halt() { k.halted = true }

// Halted reports whether Halt has been called.
func (k *Kernel) Halted() bool { return k.halted }
