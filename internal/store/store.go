// Package store models the storage hierarchy of the parallel machine: a
// (possibly shared) disk holding the block-decomposed dataset, and a
// per-processor LRU block cache with load/purge accounting.
//
// The paper's machines read blocks from a parallel filesystem; here a
// DiskModel charges virtual I/O time per read (latency + size/bandwidth),
// optionally serialized through a shared sim.Resource to model filesystem
// contention. The LRU cache implements exactly the policy described in
// Section 4.2: "old blocks are discarded if available main memory is
// insufficient to accommodate new blocks".
package store

import (
	"fmt"
	"iter"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DiskModel describes block-read costs.
type DiskModel struct {
	LatencySec        float64
	BandwidthBytesSec float64
	// Shared, when non-nil, serializes transfers through a fixed number
	// of I/O servers, so aggregate bandwidth is bounded regardless of
	// processor count.
	Shared *sim.Resource
	// Trace receives io/ioqueue spans for every demand read and block
	// load/evict/prefetch marks from caches over this disk. Nil (the
	// default) records nothing: the recorder's hooks are inlined
	// nil-receiver no-ops.
	Trace *obs.Recorder
}

// DefaultDisk returns a disk model loosely calibrated to the paper's era:
// ~10 ms access latency and 500 MB/s per-stream bandwidth.
func DefaultDisk() DiskModel {
	return DiskModel{LatencySec: 0.01, BandwidthBytesSec: 500e6}
}

// readTime returns the uncontended time to read one object of the given
// size.
func (d DiskModel) readTime(bytes int64) float64 {
	t := d.LatencySec
	if d.BandwidthBytesSec > 0 {
		t += float64(bytes) / d.BandwidthBytesSec
	}
	return t
}

// read charges proc the I/O cost of reading bytes, honoring shared-disk
// contention, and records it in stats. The shared-disk queue wait is
// additionally broken out as IOQueueTime (still counted inside IOTime),
// so contention stalls are separable from transfer time.
func (d DiskModel) read(p *sim.Proc, bytes int64, stats *metrics.ProcStats) {
	start := p.Now()
	acquired := start
	if d.Shared != nil {
		d.Shared.Acquire(p)
		// Deferred so the slot is released even if p is killed by a
		// scheduled fault while the transfer sleeps: the procKilled
		// unwind runs this at the fault instant, and the next queued
		// reader is granted the server a dead processor can no longer
		// use.
		defer d.Shared.Release()
		acquired = p.Now()
		stats.IOQueueTime += acquired - start
		d.Trace.Span(p.ID(), obs.SpanIOQueue, start, acquired, bytes, 0)
	}
	p.Sleep(d.readTime(bytes))
	d.Trace.Span(p.ID(), obs.SpanIO, acquired, p.Now(), bytes, 0)
	stats.IOTime += p.Now() - start
}

// readAsync issues a speculative non-blocking read of bytes on kernel k,
// reporting whether it was issued. The shared I/O servers are honored
// opportunistically: the read claims a server only if one is idle right
// now (sim.Resource.TryAcquire) and is refused otherwise, so speculation
// soaks up spare bandwidth but never queues ahead of a demand read —
// essential on a saturated filesystem, where queued speculation would
// only lengthen every demand stall without adding capacity. The transfer
// takes the usual ReadTime and done runs as a kernel callback when the
// data is available. No process is blocked and no I/O time is charged —
// the caller decides what part of the read, if any, anyone ended up
// waiting for.
func (d DiskModel) readAsync(k *sim.Kernel, bytes int64, done func()) bool {
	if d.Shared != nil && !d.Shared.TryAcquire() {
		return false
	}
	k.After(d.readTime(bytes), func() {
		if d.Shared != nil {
			d.Shared.Release()
		}
		done()
	})
	return true
}

// OOMError reports that a processor exceeded its memory budget, the
// failure mode the paper observes for Static Allocation with dense seeds
// (Section 5.3).
type OOMError struct {
	Proc        int
	NeededBytes int64
	BudgetBytes int64
	What        string
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("oom: processor %d needs %d bytes for %s, budget %d",
		e.Proc, e.NeededBytes, e.What, e.BudgetBytes)
}

// Cache is a per-processor LRU block cache. Loading a block charges
// simulated I/O time; exceeding capacity purges the least recently used
// block (counted toward block efficiency).
//
// Prefetch adds a second, asynchronous load path: an in-flight read
// proceeds through the shared I/O servers while the owning processor
// keeps computing, installs into the cache on completion, and a Get that
// arrives while the read is still in flight waits only the residual
// time — the rest of the read is I/O the prefetch hid (IOHiddenTime).
type Cache struct {
	proc     *sim.Proc
	provider grid.Provider
	disk     DiskModel
	stats    *metrics.ProcStats
	capacity int // max resident blocks; <= 0 means unbounded
	// blockBytes is the provider's block size, the bytes every read of
	// this cache transfers and every resident block holds.
	blockBytes int64

	entries map[grid.BlockID]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	pinned  map[grid.BlockID]bool

	// inflight tracks issued-but-unfinished prefetch reads; unused holds
	// the hidden-I/O credit of installed prefetches no one has consumed
	// yet (evicting such an entry is a wasted prefetch). maxInflight
	// bounds len(inflight) (0 = unbounded).
	inflight    map[grid.BlockID]*inflightRead
	unused      map[grid.BlockID]float64
	maxInflight int
}

// inflightRead is one asynchronous block read in progress.
type inflightRead struct {
	done   *sim.Event
	issued float64 // virtual time the read was requested
}

type entry struct {
	id         grid.BlockID
	eval       grid.Evaluator
	prev, next *entry
}

// NewCache creates a cache for proc over provider with the given capacity
// in blocks (<= 0 for unbounded), charging its I/O and block counters to
// stats. stats is required.
func NewCache(proc *sim.Proc, provider grid.Provider, disk DiskModel, capacity int, stats *metrics.ProcStats) *Cache {
	return &Cache{
		proc:       proc,
		provider:   provider,
		disk:       disk,
		stats:      stats,
		capacity:   capacity,
		blockBytes: provider.Decomp().BlockBytes(),
		entries:    make(map[grid.BlockID]*entry),
		pinned:     make(map[grid.BlockID]bool),
		inflight:   make(map[grid.BlockID]*inflightRead),
		unused:     make(map[grid.BlockID]float64),
	}
}

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return len(c.entries) }

// Has reports whether block id is resident (without touching recency).
func (c *Cache) Has(id grid.BlockID) bool {
	_, ok := c.entries[id]
	return ok
}

// Loaded walks the resident block IDs in most-recently-used order,
// copying nothing. TryGet and Get reorder the list being walked: a loop
// that calls either must stop walking after the call.
func (c *Cache) Loaded() iter.Seq[grid.BlockID] {
	return func(yield func(grid.BlockID) bool) {
		for e := c.head; e != nil && yield(e.id); e = e.next {
		}
	}
}

// Pin marks a block as non-evictable (Static Allocation pins its owned
// blocks, which is why its block efficiency is ideal).
func (c *Cache) Pin(id grid.BlockID) { c.pinned[id] = true }

// TryGet returns the evaluator for block id only if it is resident,
// refreshing its recency. It never performs I/O: work loops use it to
// advance streamlines in already-loaded blocks ("integrate all streamlines
// to the edge of the loaded blocks", Section 4.2).
func (c *Cache) TryGet(id grid.BlockID) (grid.Evaluator, bool) {
	e, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	c.consumePrefetch(id)
	c.touch(e)
	return e.eval, true
}

// Get returns an evaluator for block id, reading it from disk if absent.
// Reads charge I/O time; insertion beyond capacity purges the least
// recently used unpinned block. If a prefetch of id is still in flight,
// Get waits only the residual read time — the portion that already
// overlapped computation is credited as IOHiddenTime instead of charged
// as a stall.
func (c *Cache) Get(id grid.BlockID) grid.Evaluator {
	for {
		if e, ok := c.entries[id]; ok {
			c.consumePrefetch(id)
			c.touch(e)
			return e.eval
		}
		fl, ok := c.inflight[id]
		if !ok {
			break
		}
		start := c.proc.Now()
		fl.done.Wait(c.proc)
		c.stats.IOTime += c.proc.Now() - start
		// The residual wait for an in-flight prefetch is demand I/O.
		c.disk.Trace.Span(c.proc.ID(), obs.SpanIO, start, c.proc.Now(), c.blockBytes, 0)
		// Count a hit only if the completion's install survived: a
		// completion-time eviction (all-pinned overflow) already counted
		// the read as wasted, and the loop will repeat it synchronously —
		// crediting a hit or hidden time too would double-count the one
		// issued read (hits + wasted must stay ≤ issued).
		if _, ok := c.entries[id]; ok {
			delete(c.unused, id) // consumed here, not via consumePrefetch
			waited := c.proc.Now() - start
			c.stats.PrefetchHits++
			c.stats.IOHiddenTime += (c.proc.Now() - fl.issued) - waited
		}
	}
	// Miss: read from disk.
	c.disk.read(c.proc, c.blockBytes, c.stats)
	c.stats.BlocksLoaded++
	c.disk.Trace.Mark(c.proc.ID(), obs.MarkBlockLoad, c.proc.Now(), int64(id), 0)
	e := &entry{id: id, eval: c.provider.Block(id)}
	c.entries[id] = e
	c.pushFront(e)
	c.evictOver()
	return e.eval
}

// Prefetch issues an asynchronous read of block id, reporting whether a
// read was issued. It is refused — with no side effects — when the block
// is already resident or in flight, when the per-cache in-flight limit
// is reached, or when every shared I/O server is busy (speculation soaks
// up idle bandwidth but never queues ahead of demand reads; see
// DiskModel.readAsync). An issued read installs the block (most recently
// used, evicting over capacity) on completion and blocks no process. Its
// in-flight buffer counts toward ResidentBytes, so speculative reads are
// charged against the memory budget like resident blocks. A prefetched
// block consumed by TryGet or Get is a PrefetchHit crediting the
// overlapped read time as IOHiddenTime; one evicted before any use is a
// PrefetchWasted.
func (c *Cache) Prefetch(id grid.BlockID) bool {
	if id < 0 {
		return false
	}
	if c.maxInflight > 0 && len(c.inflight) >= c.maxInflight {
		return false
	}
	if _, ok := c.entries[id]; ok {
		return false
	}
	if _, ok := c.inflight[id]; ok {
		return false
	}
	k := c.proc.Kernel()
	fl := &inflightRead{done: sim.NewEvent(k), issued: k.Now()}
	issued := c.disk.readAsync(k, c.blockBytes, func() {
		delete(c.inflight, id)
		c.stats.BlocksLoaded++
		c.disk.Trace.Mark(c.proc.ID(), obs.MarkBlockLoad, k.Now(), int64(id), 0)
		e := &entry{id: id, eval: c.provider.Block(id)}
		c.entries[id] = e
		c.pushFront(e)
		c.unused[id] = k.Now() - fl.issued
		c.evictOver()
		fl.done.Fire()
	})
	if !issued {
		return false // no idle I/O server: speculation must not queue
	}
	c.inflight[id] = fl
	c.stats.PrefetchIssued++
	c.disk.Trace.Mark(c.proc.ID(), obs.MarkPrefetch, k.Now(), int64(id), 0)
	return true
}

// consumePrefetch credits the first use of an installed prefetched
// block: its entire read overlapped computation.
func (c *Cache) consumePrefetch(id grid.BlockID) {
	hidden, ok := c.unused[id]
	if !ok {
		return
	}
	delete(c.unused, id)
	c.stats.PrefetchHits++
	c.stats.IOHiddenTime += hidden
}

// SetPrefetchLimit bounds the number of concurrently in-flight prefetch
// reads (0 = unbounded): one processor's speculation should not
// monopolize the shared I/O servers ahead of its peers' demand reads,
// nor flood its own cache faster than it consumes.
func (c *Cache) SetPrefetchLimit(n int) { c.maxInflight = n }

// ResidentBytes returns the simulated memory held by resident blocks
// plus the buffers of in-flight prefetch reads.
func (c *Cache) ResidentBytes() int64 {
	return int64(len(c.entries)+len(c.inflight)) * c.blockBytes
}

// evictOver purges LRU unpinned entries until within capacity.
func (c *Cache) evictOver() {
	if c.capacity <= 0 {
		return
	}
	for len(c.entries) > c.capacity {
		victim := c.tail
		for victim != nil && c.pinned[victim.id] {
			victim = victim.prev
		}
		if victim == nil {
			return // everything pinned; allow overflow rather than deadlock
		}
		c.remove(victim)
		delete(c.entries, victim.id)
		if _, ok := c.unused[victim.id]; ok {
			delete(c.unused, victim.id)
			c.stats.PrefetchWasted++
		}
		c.stats.BlocksPurged++
		c.disk.Trace.Mark(c.proc.ID(), obs.MarkBlockEvict, c.proc.Now(), int64(victim.id), 0)
	}
}

func (c *Cache) touch(e *entry) {
	if c.head == e {
		return
	}
	c.remove(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
