// Package sim is a deterministic discrete-event simulator used to model a
// distributed-memory cluster on a single machine.
//
// The paper ran on JaguarPF (a 149k-core Cray XT5) over MPI; no MPI
// ecosystem exists here (see DESIGN.md §2), so each "processor" of the
// parallel machine is a cooperatively scheduled process with a shared
// virtual clock. All algorithm logic — message handling, work queues,
// caches — executes for real; only the passage of time is simulated, with
// explicit charges for computation, I/O and communication applied by the
// layers above.
//
// Execution model: every process is a coroutine (iter.Pull) that the
// kernel resumes and that yields back when it blocks, so exactly one runs
// at a time and the simulation is fully deterministic — the same inputs
// produce the same event order, the same virtual timings and the same
// results, which the property tests rely on.
//
// The kernel is on every simulated operation's path, so its event queue
// is a concrete-typed hand-rolled heap (no container/heap `any` boxing),
// the built-in wake sources (Sleep, Deliver, RecvUntil deadlines) are
// tagged events rather than closures, spent events are recycled through
// a free list, and an uncontended Sleep advances the clock without
// touching the event queue or switching coroutines at all.
package sim

import (
	"fmt"
	"iter"
	"sort"
)

// Event kinds. evCall carries an arbitrary callback (Kernel.At); the
// rest are the kernel's own wake sources, dispatched without closures.
const (
	evCall    = uint8(iota) // run fn
	evWake    = uint8(iota) // wake p if its token still matches (Sleep)
	evTimer   = uint8(iota) // RecvUntil deadline for p
	evDeliver = uint8(iota) // append msg to p's inbox, waking it
)

// event is a scheduled kernel action, ordered by (at, seq).
type event struct {
	at   float64
	seq  int64
	idx  int // heap position, maintained for O(log n) removal
	kind uint8
	p    *Proc  // target process (evWake/evTimer/evDeliver)
	wseq uint64 // wake token (evWake/evTimer)
	msg  any    // payload (evDeliver)
	fn   func() // callback (evCall)
}

// eventHeap is a binary min-heap ordered by (at, seq). It is hand rolled
// (rather than container/heap) so pushes and pops stay monomorphic —
// no interface boxing per event — and each event knows its position,
// making timer cancellation O(log n).
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h.swap(i, child)
		i = child
	}
}

func (h *eventHeap) push(e *event) {
	e.idx = len(*h)
	*h = append(*h, e)
	h.up(e.idx)
}

func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	e := old[0]
	old.swap(0, n)
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		(*h).down(0)
	}
	e.idx = -1
	return e
}

// remove unlinks e from the heap; e must be queued.
func (h *eventHeap) remove(e *event) {
	i := e.idx
	old := *h
	n := len(old) - 1
	old.swap(i, n)
	old[n] = nil
	*h = old[:n]
	if i < n {
		(*h).down(i)
		(*h).up(i)
	}
	e.idx = -1
}

// Kernel owns the virtual clock, the event queue and all processes.
// Construct with New; drive with Run. A Kernel is single-threaded: no
// method may be called concurrently with Run except from within process
// bodies.
type Kernel struct {
	now        float64
	seq        int64
	events     eventHeap
	runnable   []*Proc
	runHead    int // index of the next runnable entry (consumed prefix is nil)
	procs      []*Proc
	running    bool
	halted     bool
	deadLetter func(to *Proc, msg any)
	idleHook   func(p *Proc, start, end float64)
	free       []*event // recycled events, so steady state schedules allocation free
}

// SetIdleHook installs an observer for completed message-wait idle
// intervals: it fires when a process blocked in Recv/RecvUntil resumes
// (delivery or deadline), with the interval [start, end) the kernel just
// charged to the process's idle total. Resource and event waits are not
// reported — callers that model I/O over them already observe those
// intervals directly. The hook must only record; scheduling kernel work
// from inside it would perturb the simulation it is observing. A nil
// hook (the default) costs one predicted branch on the delivery path.
func (k *Kernel) SetIdleHook(fn func(p *Proc, start, end float64)) { k.idleHook = fn }

// New returns an empty kernel at virtual time 0.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// schedule queues an event of the given kind at absolute time t (clamped
// to now), drawing storage from the free list.
func (k *Kernel) schedule(t float64, kind uint8, p *Proc, wseq uint64, msg any, fn func()) *event {
	if t < k.now {
		t = k.now
	}
	k.seq++
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{}
	}
	*e = event{at: t, seq: k.seq, idx: -1, kind: kind, p: p, wseq: wseq, msg: msg, fn: fn}
	k.events.push(e)
	return e
}

// recycle clears a spent event's references and returns it to the free
// list.
func (k *Kernel) recycle(e *event) {
	*e = event{idx: -1}
	k.free = append(k.free, e)
}

// fire dispatches one popped event.
func (k *Kernel) fire(e *event) {
	switch e.kind {
	case evCall:
		e.fn()
	case evWake:
		k.wake(e.p, e.wseq)
	case evTimer:
		p := e.p
		if p.timer == e {
			p.timer = nil
		}
		// The deadline passed with no delivery: charge the wait as idle
		// and wake the receiver. Dead processes are skipped — idle time
		// must not accrue to a process that was killed mid-wait (its
		// timer is normally cancelled by Fail; this guard keeps the
		// invariant even for events already popped).
		if p.waiting && p.wakeSeq == e.wseq && !p.done && !p.killed {
			p.waiting = false
			p.idleTotal += k.now - p.idleStart
			if k.idleHook != nil {
				k.idleHook(p, p.idleStart, k.now)
			}
			k.wake(p, e.wseq)
		}
	case evDeliver:
		k.deliverNow(e.p, e.msg)
	}
}

// At schedules fn to run at absolute virtual time t (clamped to now).
func (k *Kernel) At(t float64, fn func()) {
	k.schedule(t, evCall, nil, 0, nil, fn)
}

// After schedules fn to run d seconds from now.
func (k *Kernel) After(d float64, fn func()) { k.At(k.now+d, fn) }

// procKilled is the panic payload used to unwind a parked process's
// body: at end of run for processes still blocked, on Kernel.Halt for a
// deliberately aborted run, and at a scheduled fault instant for
// processes killed mid-run by Kernel.Fail (see fail.go). It never
// leaves the package: Proc.run recovers it.
type procKilled struct{}

// Proc is one simulated processor. Its body function is a coroutine: it
// executes only between a next() that resumes it and the park that
// yields back, so process code needs no locking.
type Proc struct {
	k         *Kernel
	id        int
	name      string
	next      func() (struct{}, bool) // resume the body until it parks or returns
	stop      func()                  // make a parked park return false; a body not yet started never runs
	park      func(struct{}) bool     // switch back to whoever resumed; false once stopped
	inbox     []any
	inboxHead int    // index of the oldest unconsumed message
	timer     *event // pending RecvUntil deadline, nil when none
	waiting   bool   // blocked in Recv (so deliveries know to wake it)
	blocked   bool   // blocked on any wake source
	wakeSeq   uint64
	done      bool
	killed    bool
	failed    bool // killed mid-run by Fail, not end-of-run cleanup

	watchers []watcher

	idleStart float64
	idleTotal float64
}

// beginBlock marks the process blocked and returns a wake token. Every
// wake source captures the token; a wake only fires if the token still
// matches, so a process waiting on one thing (say, a disk queue slot) can
// never be resumed early by another (say, a message delivery) — see
// Kernel.wake.
func (p *Proc) beginBlock() uint64 {
	p.wakeSeq++
	p.blocked = true
	return p.wakeSeq
}

// wake resumes a process blocked with the matching token.
func (k *Kernel) wake(p *Proc, seq uint64) {
	if p.done || p.killed || !p.blocked || p.wakeSeq != seq {
		return
	}
	p.blocked = false
	k.runnable = append(k.runnable, p)
}

// Spawn registers a new process; its body starts running (at the current
// virtual time) once Run reaches it, and not before: a process killed or
// halted first never enters its body. Spawning from inside a running
// process is allowed.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, id: len(k.procs), name: name}
	p.next, p.stop = iter.Pull(func(park func(struct{}) bool) {
		p.park = park
		p.run(body)
	})
	k.procs = append(k.procs, p)
	k.runnable = append(k.runnable, p)
	return p
}

// run is what the coroutine executes: the body, with the procKilled
// unwind swallowed. Any other panic travels on (through iter.Pull) to
// whoever resumed the process, so it surfaces from Kernel.Run on its
// caller's goroutine.
func (p *Proc) run(body func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil && r != (procKilled{}) {
			panic(r)
		}
	}()
	body(p)
	p.done = true
}

// kill ends a process that is not executing: a parked body unwinds
// through the procKilled panic (its deferred cleanups run before kill
// returns, to kill's caller and nobody else), and a body that never
// started is never entered.
func (p *Proc) kill() {
	p.killed = true
	p.stop()
	p.done = true
}

// ID returns the process index (dense from 0 in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.k.now }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// IdleTime returns the total virtual time this process has spent blocked
// waiting for messages.
func (p *Proc) IdleTime() float64 { return p.idleTotal }

// yield hands control back to whoever resumed this process and parks
// until the next resume; a process stopped while parked unwinds here.
func (p *Proc) yield() {
	if !p.park(struct{}{}) {
		panic(procKilled{})
	}
}

// Sleep advances this process's virtual time by d seconds (a compute, I/O
// or communication charge). Non-positive durations return immediately.
func (p *Proc) Sleep(d float64) {
	if d <= 0 {
		return
	}
	k := p.k
	at := k.now + d
	// Fast path: no other process is runnable and no event is due before
	// the wake instant, so handing control to the kernel would only pop
	// this process's own wake event straight back. Advance the clock
	// inline instead — same k.now+d arithmetic, no event, no context
	// switch. Requires a strictly earlier first event to stand down: an
	// event at the same instant holds an older sequence number and would
	// run first (and could kill or halt this process).
	if k.running && !k.halted && k.runHead >= len(k.runnable) &&
		(len(k.events) == 0 || k.events[0].at > at) {
		k.now = at
		return
	}
	seq := p.beginBlock()
	k.schedule(at, evWake, p, seq, nil, nil)
	p.yield()
}

// Send delivers msg to the inbox of process to after delay seconds.
func (p *Proc) Send(to *Proc, msg any, delay float64) {
	p.k.Deliver(to, msg, delay)
}

// Deliver schedules msg to arrive in the inbox of process to after delay
// seconds. It may be called from process bodies or kernel callbacks.
func (k *Kernel) Deliver(to *Proc, msg any, delay float64) {
	k.schedule(k.now+delay, evDeliver, to, 0, msg, nil)
}

// deliverNow lands an in-flight message: into the dead-letter hook if
// the destination died in the meantime, into its inbox otherwise,
// waking a blocked receiver and cancelling its pending deadline timer.
func (k *Kernel) deliverNow(to *Proc, msg any) {
	if to.failed {
		// The destination died while the message was in flight.
		// Hand it to the dead-letter hook so the recovery layer can
		// salvage any work it carries; without a hook it is lost,
		// exactly as on a real machine.
		if k.deadLetter != nil {
			k.deadLetter(to, msg)
		}
		return
	}
	to.pushMsg(msg)
	if to.waiting {
		to.waiting = false
		to.idleTotal += k.now - to.idleStart
		if k.idleHook != nil {
			k.idleHook(to, to.idleStart, k.now)
		}
		k.cancelTimer(to)
		k.wake(to, to.wakeSeq)
	}
}

// cancelTimer unlinks and recycles p's pending RecvUntil deadline, if
// any. Cancelling on early delivery (and on Fail) keeps dead timers from
// accumulating in the event heap for the rest of the virtual deadline —
// a tight polling loop would otherwise grow the heap monotonically.
func (k *Kernel) cancelTimer(p *Proc) {
	if e := p.timer; e != nil {
		p.timer = nil
		k.events.remove(e)
		k.recycle(e)
	}
}

// pushMsg appends to the inbox, compacting the consumed prefix before
// the backing array would otherwise grow.
func (p *Proc) pushMsg(msg any) {
	if p.inboxHead > 0 && len(p.inbox) == cap(p.inbox) {
		n := copy(p.inbox, p.inbox[p.inboxHead:])
		clearTail := p.inbox[n:]
		for i := range clearTail {
			clearTail[i] = nil
		}
		p.inbox = p.inbox[:n]
		p.inboxHead = 0
	}
	p.inbox = append(p.inbox, msg)
}

// popMsg removes and returns the oldest message; the consumed slot is
// cleared so the backing array never retains delivered payloads (a long
// campaign must not hold every message it ever received alive).
func (p *Proc) popMsg() any {
	msg := p.inbox[p.inboxHead]
	p.inbox[p.inboxHead] = nil
	p.inboxHead++
	if p.inboxHead == len(p.inbox) {
		p.inbox = p.inbox[:0]
		p.inboxHead = 0
	}
	return msg
}

// Recv blocks until a message is available and returns the oldest one.
func (p *Proc) Recv() any {
	for len(p.inbox) == p.inboxHead {
		p.waiting = true
		p.idleStart = p.k.now
		p.beginBlock()
		p.yield()
	}
	return p.popMsg()
}

// RecvUntil blocks until a message is available or the virtual clock
// reaches deadline, whichever comes first. It returns the oldest message
// and true, or (nil, false) on timeout. A deadline at or before the
// current time polls: it returns a pending message if one exists and
// times out otherwise. Time spent blocked is recorded as idle time
// either way.
//
// The wake token machinery guarantees the two wake sources cannot race:
// a delivery consumes the block first and cancels the deadline timer; a
// timer that fires first clears the waiting flag so a later delivery
// simply enqueues. When a delivery and the deadline land on the same
// virtual instant, event order (delivery scheduled first) decides
// deterministically.
func (p *Proc) RecvUntil(deadline float64) (any, bool) {
	if len(p.inbox) > p.inboxHead {
		return p.popMsg(), true
	}
	if deadline <= p.k.now {
		return nil, false
	}
	p.waiting = true
	p.idleStart = p.k.now
	seq := p.beginBlock()
	p.timer = p.k.schedule(deadline, evTimer, p, seq, nil, nil)
	p.yield()
	if len(p.inbox) == p.inboxHead {
		return nil, false
	}
	return p.popMsg(), true
}

// TryRecv returns the oldest pending message without blocking.
func (p *Proc) TryRecv() (any, bool) {
	if len(p.inbox) == p.inboxHead {
		return nil, false
	}
	return p.popMsg(), true
}

// Pending returns the number of queued messages without consuming them.
func (p *Proc) Pending() int { return len(p.inbox) - p.inboxHead }

// deadlockError reports processes that were still blocked when the event
// queue drained.
type deadlockError struct {
	Stuck []string
}

// Error implements error.
func (e *deadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d process(es) still blocked: %v", len(e.Stuck), e.Stuck)
}

// Run executes the simulation until every process has finished, no
// further progress is possible, or Halt is called. It returns a
// *deadlockError if processes remain blocked with an empty event queue.
// Whichever way the loop ends, every unfinished process is then killed
// in spawn order — a parked body unwinds, one that never started is not
// entered — so no coroutine outlives a Run that returns. A body that
// panics with a value of its own panics out of Run with that value, on
// the goroutine of Run's caller.
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: kernel already running")
	}
	k.running = true
	defer func() { k.running = false }()

	for !k.halted {
		if k.runHead < len(k.runnable) {
			p := k.runnable[k.runHead]
			k.runnable[k.runHead] = nil
			k.runHead++
			if k.runHead == len(k.runnable) {
				k.runnable = k.runnable[:0]
				k.runHead = 0
			}
			if p.done || p.killed {
				continue
			}
			p.next()
			continue
		}
		if len(k.events) > 0 {
			e := k.events.pop()
			if e.at > k.now {
				k.now = e.at
			}
			k.fire(e)
			k.recycle(e)
			continue
		}
		break
	}

	var stuck []string
	for _, p := range k.procs {
		if !p.done {
			stuck = append(stuck, p.name)
			p.kill()
		}
	}
	if k.halted {
		// A deliberate stop (one process aborted the run): unwinding the
		// survivors is the point, not a deadlock to report.
		return nil
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return &deadlockError{Stuck: stuck}
	}
	return nil
}

// Resource is a FIFO-queued server with fixed capacity; it models
// contended hardware such as a shared filesystem's I/O servers. Acquire
// blocks (in virtual time) until a slot is free; TryAcquire claims a
// slot without queueing, the opportunistic entry point of the
// asynchronous read path (store.DiskModel.ReadAsync), which by design
// never queues speculation ahead of demand.
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	queue    []resourceWaiter
}

// resourceWaiter is one queued slot request from a blocked process.
type resourceWaiter struct {
	p   *Proc
	seq uint64
}

// NewResource creates a resource with the given concurrency capacity.
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{k: k, capacity: capacity}
}

// Acquire blocks p until a slot is available.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	p.idleStart = p.k.now
	seq := p.beginBlock()
	r.queue = append(r.queue, resourceWaiter{p: p, seq: seq})
	p.yield()
}

// TryAcquire claims a slot only if one is free right now, without
// queueing; it reports whether the claim succeeded. Speculative work
// (block prefetching) uses it so that spare capacity is soaked up but a
// demand request never waits behind a speculation in the queue.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release frees one slot and hands it to the next queued waiter, if
// any: the slot transfers directly (inUse is unchanged) and the waiting
// process is woken. Waiters that died in the queue are skipped — a slot
// must never be granted to a dead process, or it would leak for the
// rest of the run. A holder that dies releases its slot through its
// deferred cleanup as the procKilled panic unwinds (see Kernel.Fail).
func (r *Resource) Release() {
	for len(r.queue) > 0 {
		next := r.queue[0]
		r.queue[0] = resourceWaiter{}
		r.queue = r.queue[1:]
		if next.p.done || next.p.killed {
			continue
		}
		next.p.idleTotal += r.k.now - next.p.idleStart
		r.k.wake(next.p, next.seq)
		return
	}
	r.inUse--
}

// Event is a one-shot completion signal: processes Wait (blocking in
// virtual time) until Fire is called from a kernel callback or another
// process. Waiting after Fire returns immediately. It is the completion
// half of the asynchronous read path: an in-flight operation with no
// process of its own Fires the event, and any process that turns out to
// need the result early Waits only the residual time.
type Event struct {
	k       *Kernel
	fired   bool
	waiters []resourceWaiter
}

// NewEvent creates an unfired event on k.
func NewEvent(k *Kernel) *Event { return &Event{k: k} }

// Wait blocks p until the event fires; the wait is recorded as idle time.
func (e *Event) Wait(p *Proc) {
	if e.fired {
		return
	}
	p.idleStart = p.k.now
	seq := p.beginBlock()
	e.waiters = append(e.waiters, resourceWaiter{p: p, seq: seq})
	p.yield()
}

// Fire marks the event complete and wakes every waiter at the current
// virtual time. Firing twice is a no-op. Waiters that died while queued
// are skipped entirely: waking them is already refused by the token
// check, and charging them idle time would credit a dead process with
// waiting it never finished (the idle + busy == run span invariant).
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for _, w := range e.waiters {
		if w.p.done || w.p.killed {
			continue
		}
		w.p.idleTotal += e.k.now - w.p.idleStart
		e.k.wake(w.p, w.seq)
	}
	e.waiters = nil
}
