package store

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// --- cache edge paths (previously untested) ---

// TestCachePinNonResident: pinning a block that is not resident must not
// create phantom state, and must protect the block once it does load.
func TestCachePinNonResident(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		// NOTE: no t.Fatal inside a proc body — Goexit would strand the
		// kernel waiting for the process to yield.
		c := NewCache(p, prov, DefaultDisk(), 2, stats.P(0))
		c.Pin(7)
		if c.Len() != 0 || c.Has(7) {
			t.Errorf("Pin materialized a block: len=%d has=%v", c.Len(), c.Has(7))
		}
		if _, ok := c.TryGet(7); ok {
			t.Error("TryGet hit a pinned-but-never-loaded block")
		}
		c.Get(1)
		c.Get(2)
		if c.Has(7) {
			t.Error("unrelated loads materialized the pinned block")
		}
		// Once loaded, the early pin protects it like any other.
		c.Get(7) // evicts LRU (1)
		c.Get(3) // must evict 2, not pinned 7
		if !c.Has(7) {
			t.Error("pre-pinned block evicted after loading")
		}
		if c.Has(2) {
			t.Error("unpinned block outlived the pinned one")
		}
	})
}

// TestCacheAllPinnedOverflowKeepsServing: with the capacity consumed by
// pinned blocks, a Get of an unpinned block must still serve a usable
// evaluator (no deadlock); the unpinned newcomer is itself the only
// eviction candidate, so it is purged immediately and the pinned set
// survives intact.
func TestCacheAllPinnedOverflowKeepsServing(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 2, stats.P(0))
		c.Pin(1)
		c.Pin(2)
		c.Get(1)
		c.Get(2)
		if ev := c.Get(3); ev == nil { // unpinned, over capacity
			t.Error("overflow Get returned nil")
		}
		if c.Len() != 2 || c.Has(3) {
			t.Errorf("len = %d, has(3)=%v; the unpinned newcomer must purge itself", c.Len(), c.Has(3))
		}
		if stats.P(0).BlocksPurged != 1 {
			t.Errorf("purges = %d, want 1 (the unpinned overflow block)", stats.P(0).BlocksPurged)
		}
		if !c.Has(1) || !c.Has(2) {
			t.Error("pinned blocks did not survive the overflow")
		}
		// Fully pinned over-capacity insertion (the original overflow
		// path): a pinned newcomer overflows rather than deadlocking.
		c.Pin(4)
		c.Get(4)
		if c.Len() != 3 || !c.Has(4) {
			t.Errorf("pinned newcomer: len=%d has=%v, want overflow to 3", c.Len(), c.Has(4))
		}
	})
}

// TestCacheUnboundedLoadedOrder: with unbounded capacity, Loaded()
// reports exact MRU→LRU order across loads, TryGet touches and repeat
// Gets.
func TestCacheUnboundedLoadedOrder(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 0, stats.P(0))
		for _, id := range []grid.BlockID{4, 9, 2, 6} {
			c.Get(id)
		}
		if got := fmt.Sprint(slices.Collect(c.Loaded())); got != "[6 2 9 4]" {
			t.Errorf("Loaded = %v, want [6 2 9 4]", got)
		}
		c.TryGet(9) // touch via TryGet
		if got := fmt.Sprint(slices.Collect(c.Loaded())); got != "[9 6 2 4]" {
			t.Errorf("Loaded after TryGet = %v, want [9 6 2 4]", got)
		}
		c.Get(4) // touch via Get
		c.Get(4) // touching the head is a no-op
		if got := fmt.Sprint(slices.Collect(c.Loaded())); got != "[4 9 6 2]" {
			t.Errorf("Loaded after Get = %v, want [4 9 6 2]", got)
		}
		if stats.P(0).BlocksPurged != 0 {
			t.Errorf("unbounded cache purged %d", stats.P(0).BlocksPurged)
		}
	})
}

// --- asynchronous read path ---

// TestPrefetchInstallsWithoutBlocking: a prefetch charges no I/O time to
// the processor, installs the block after the read time, and the later
// Get is free (full read credited as hidden).
func TestPrefetchInstallsWithoutBlocking(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	d := DiskModel{LatencySec: 1} // 1 s reads, no bandwidth term
	k := sim.New()
	k.Spawn("p", func(p *sim.Proc) {
		c := NewCache(p, prov, d, 4, stats.P(0))
		if !c.Prefetch(3) {
			t.Error("prefetch refused on an empty cache")
		}
		if c.Prefetch(3) {
			t.Error("duplicate prefetch issued for an in-flight block")
		}
		if _, issued := c.inflight[3]; !issued || len(c.inflight) != 1 {
			t.Error("in-flight read not tracked")
		}
		if c.Has(3) {
			t.Error("block resident before the read completed")
		}
		p.Sleep(2) // compute while the read streams in
		if !c.Has(3) || len(c.inflight) != 0 {
			t.Error("prefetch did not install after the read time")
		}
		before := p.Now()
		c.Get(3)
		if p.Now() != before {
			t.Errorf("Get of a prefetched block blocked %g s", p.Now()-before)
		}
		if c.Prefetch(3) {
			t.Error("prefetch issued for a resident block")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s := stats.P(0)
	if s.IOTime != 0 {
		t.Errorf("IOTime = %g, want 0 (the read was fully hidden)", s.IOTime)
	}
	if s.IOHiddenTime != 1 {
		t.Errorf("IOHiddenTime = %g, want 1 (the full read)", s.IOHiddenTime)
	}
	if s.PrefetchIssued != 1 || s.PrefetchHits != 1 || s.PrefetchWasted != 0 {
		t.Errorf("counters issued/hits/wasted = %d/%d/%d, want 1/1/0",
			s.PrefetchIssued, s.PrefetchHits, s.PrefetchWasted)
	}
	if s.BlocksLoaded != 1 {
		t.Errorf("BlocksLoaded = %d, want 1", s.BlocksLoaded)
	}
}

// TestGetWaitsResidualOnInflight: a Get that arrives mid-read waits only
// the remaining time; the elapsed part is credited as hidden.
func TestGetWaitsResidualOnInflight(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	d := DiskModel{LatencySec: 1}
	k := sim.New()
	k.Spawn("p", func(p *sim.Proc) {
		c := NewCache(p, prov, d, 4, stats.P(0))
		c.Prefetch(5)
		p.Sleep(0.4) // 0.6 s of the read remains
		start := p.Now()
		c.Get(5)
		if waited := p.Now() - start; waited != 0.6 {
			t.Errorf("residual wait = %g, want 0.6", waited)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s := stats.P(0)
	if s.IOTime != 0.6 {
		t.Errorf("IOTime = %g, want 0.6 (residual only)", s.IOTime)
	}
	if diff := s.IOHiddenTime - 0.4; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("IOHiddenTime = %g, want 0.4 (the overlapped part)", s.IOHiddenTime)
	}
	if s.PrefetchHits != 1 {
		t.Errorf("hits = %d, want 1", s.PrefetchHits)
	}
}

// TestPrefetchWastedOnEviction: a prefetched block evicted before any
// use counts as wasted, and its hidden credit is forfeited.
func TestPrefetchWastedOnEviction(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	d := DiskModel{LatencySec: 0.1}
	k := sim.New()
	k.Spawn("p", func(p *sim.Proc) {
		c := NewCache(p, prov, d, 2, stats.P(0))
		c.Prefetch(1)
		p.Sleep(1) // installs
		c.Get(2)
		c.Get(3) // evicts 1, never used
		if c.Has(1) {
			t.Error("prefetched block unexpectedly survived")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s := stats.P(0)
	if s.PrefetchWasted != 1 {
		t.Errorf("wasted = %d, want 1", s.PrefetchWasted)
	}
	if s.PrefetchHits != 0 {
		t.Errorf("hits = %d, want 0", s.PrefetchHits)
	}
	if s.IOHiddenTime != 0 {
		t.Errorf("hidden = %g, want 0 (credit forfeited on eviction)", s.IOHiddenTime)
	}
}

// TestPrefetchHonorsSharedServers: speculation claims only idle I/O
// servers — it is refused outright when all are busy, and its own
// transfer makes later demand reads queue like any other occupant.
func TestPrefetchHonorsSharedServers(t *testing.T) {
	stats := metrics.NewCollector(2)
	prov := testProvider()
	k := sim.New()
	shared := sim.NewResource(k, 1)
	d := DiskModel{LatencySec: 1, Shared: shared}
	k.Spawn("reader", func(p *sim.Proc) {
		c := NewCache(p, prov, d, 4, stats.P(0))
		c.Get(1) // occupies the single server until t=1
	})
	k.Spawn("speculator", func(p *sim.Proc) {
		c := NewCache(p, prov, d, 4, stats.P(1))
		p.Sleep(0.5)
		if c.Prefetch(2) {
			t.Error("prefetch issued while every server was busy")
		}
		p.Sleep(1) // t=1.5: server idle again
		if !c.Prefetch(2) {
			t.Error("prefetch refused on an idle server")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := stats.P(1).PrefetchIssued; got != 1 {
		t.Errorf("issued = %d, want 1 (refusals must not count)", got)
	}
}

// TestPrefetchLimit: the per-cache in-flight bound refuses further
// speculation until a read lands.
func TestPrefetchLimit(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	d := DiskModel{LatencySec: 1}
	k := sim.New()
	k.Spawn("p", func(p *sim.Proc) {
		c := NewCache(p, prov, d, 8, stats.P(0))
		c.SetPrefetchLimit(2)
		if !c.Prefetch(1) || !c.Prefetch(2) {
			t.Error("prefetches under the limit refused")
		}
		if c.Prefetch(3) {
			t.Error("prefetch over the in-flight limit issued")
		}
		p.Sleep(1.5) // both land
		if !c.Prefetch(3) {
			t.Error("prefetch refused after the in-flight reads landed")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestInflightCountsTowardResidentBytes: an in-flight speculative read
// is charged against memory like a resident block.
func TestInflightCountsTowardResidentBytes(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	d := DiskModel{LatencySec: 1}
	k := sim.New()
	k.Spawn("p", func(p *sim.Proc) {
		c := NewCache(p, prov, d, 4, stats.P(0))
		bb := prov.Decomp().BlockBytes()
		c.Get(0)
		c.Prefetch(1)
		if got := c.ResidentBytes(); got != 2*bb {
			t.Errorf("ResidentBytes with one in-flight = %d, want %d", got, 2*bb)
		}
		p.Sleep(2)
		if got := c.ResidentBytes(); got != 2*bb {
			t.Errorf("ResidentBytes after install = %d, want %d", got, 2*bb)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestReadSplitsQueueTime: DiskModel.read separates shared-server queue
// wait (IOQueueTime) from the total stall (IOTime), which includes it.
func TestReadSplitsQueueTime(t *testing.T) {
	stats := metrics.NewCollector(2)
	k := sim.New()
	shared := sim.NewResource(k, 1)
	d := DiskModel{LatencySec: 0, BandwidthBytesSec: 1e6, Shared: shared}
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			d.read(p, 1e6, stats.P(i)) // 1 s transfer each
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if q := stats.P(0).IOQueueTime; q != 0 {
		t.Errorf("first reader queued %g s", q)
	}
	if q := stats.P(1).IOQueueTime; q != 1 {
		t.Errorf("second reader IOQueueTime = %g, want 1", q)
	}
	if io := stats.P(1).IOTime; io != 2 {
		t.Errorf("second reader IOTime = %g, want 2 (queue + transfer)", io)
	}
}
