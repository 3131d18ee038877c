// Processor failure: first-class, deterministic death of a simulated
// process. core.Run schedules each event of a fault plan
// (internal/faults) with Kernel.At, and the recovery layer calls Fail at
// the fault instant: the kernel unwinds the victim's body through
// the same procKilled panic used for end-of-run cleanup and runs its
// deferred cleanups (releasing any Resource slots it holds). The kernel
// tells no one: which survivors learn of the loss, and when, is the
// recovery layer's policy (internal/core), which runs right after Fail
// returns. Because the fault is an ordinary kernel event, two runs with
// the same plan are bit-identical — the whole recovery layer above
// rests on that.
package sim

// Failed reports whether the process was killed mid-run by Fail
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

// Fail kills p at the current virtual time: the process's body is
// unwound through the procKilled panic (running its deferred cleanups,
// e.g. releasing a held Resource slot). A process that has not run yet
// is failed without its body ever being entered.
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
