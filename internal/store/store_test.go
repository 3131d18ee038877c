package store

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vec"
)

func testProvider() grid.Provider {
	f := field.Uniform{V: vec.Of(1, 0, 0), Box: vec.Box(vec.Of(0, 0, 0), vec.Of(1, 1, 1))}
	d := grid.NewDecomposition(f.Bounds(), 4, 4, 4, 4)
	return grid.AnalyticProvider{F: f, D: d}
}

// runInProc executes body inside a single simulated process and returns
// the kernel for time inspection.
func runInProc(t *testing.T, body func(p *sim.Proc)) *sim.Kernel {
	t.Helper()
	k := sim.New()
	k.Spawn("test", body)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestDiskReadTime(t *testing.T) {
	d := DiskModel{LatencySec: 0.01, BandwidthBytesSec: 100e6}
	if got := d.readTime(100e6); got != 1.01 {
		t.Errorf("ReadTime = %g, want 1.01", got)
	}
	// Zero bandwidth means latency only.
	d2 := DiskModel{LatencySec: 0.5}
	if got := d2.readTime(1e9); got != 0.5 {
		t.Errorf("latency-only ReadTime = %g", got)
	}
}

func TestDiskReadChargesTime(t *testing.T) {
	stats := metrics.NewCollector(1)
	d := DiskModel{LatencySec: 1, BandwidthBytesSec: 1e6}
	k := runInProc(t, func(p *sim.Proc) {
		d.read(p, 2e6, stats.P(0))
	})
	if k.Now() != 3 {
		t.Errorf("read ended at %g, want 3", k.Now())
	}
	if stats.P(0).IOTime != 3 {
		t.Errorf("IOTime = %g", stats.P(0).IOTime)
	}
}

func TestSharedDiskContention(t *testing.T) {
	// Two processors reading through a 1-wide shared disk serialize:
	// total time doubles versus independent disks.
	k := sim.New()
	shared := sim.NewResource(k, 1)
	d := DiskModel{LatencySec: 0, BandwidthBytesSec: 1e6, Shared: shared}
	stats := metrics.NewCollector(2)
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			d.read(p, 1e6, stats.P(i))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 2 {
		t.Errorf("contended reads ended at %g, want 2", k.Now())
	}
}

func TestCacheLoadsOnceWhileResident(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 8, stats.P(0))
		c.Get(3)
		c.Get(3)
		c.Get(3)
		if stats.P(0).BlocksLoaded != 1 {
			t.Errorf("BlocksLoaded = %d, want 1", stats.P(0).BlocksLoaded)
		}
		if !c.Has(3) || c.Len() != 1 {
			t.Errorf("cache state wrong: len=%d", c.Len())
		}
	})
}

func TestCacheEvictsLRU(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 2, stats.P(0))
		c.Get(1)
		c.Get(2)
		c.Get(1) // touch 1: now 2 is LRU
		c.Get(3) // evicts 2
		if c.Has(2) {
			t.Error("LRU block 2 not evicted")
		}
		if !c.Has(1) || !c.Has(3) {
			t.Error("wrong blocks evicted")
		}
		if stats.P(0).BlocksPurged != 1 {
			t.Errorf("BlocksPurged = %d, want 1", stats.P(0).BlocksPurged)
		}
		// Reloading 2 counts as a new load.
		c.Get(2)
		if stats.P(0).BlocksLoaded != 4 {
			t.Errorf("BlocksLoaded = %d, want 4", stats.P(0).BlocksLoaded)
		}
	})
}

func TestCacheTryGet(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 2, stats.P(0))
		if _, ok := c.TryGet(1); ok {
			t.Error("TryGet hit on empty cache")
		}
		if stats.P(0).BlocksLoaded != 0 {
			t.Error("TryGet performed I/O")
		}
		c.Get(1)
		c.Get(2)
		if _, ok := c.TryGet(1); !ok {
			t.Error("TryGet missed resident block")
		}
		// TryGet refreshed 1's recency, so inserting 3 evicts 2.
		c.Get(3)
		if !c.Has(1) || c.Has(2) {
			t.Error("TryGet did not refresh recency")
		}
	})
}

func TestCacheLoadedOrder(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 0, stats.P(0))
		c.Get(5)
		c.Get(7)
		c.Get(5)
		got := fmt.Sprint(slices.Collect(c.Loaded()))
		if got != "[5 7]" {
			t.Errorf("Loaded = %v (MRU first)", got)
		}
	})
}

func TestCacheUnboundedNeverPurges(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 0, stats.P(0))
		for id := 0; id < 64; id++ {
			c.Get(grid.BlockID(id))
		}
		if stats.P(0).BlocksPurged != 0 {
			t.Errorf("unbounded cache purged %d", stats.P(0).BlocksPurged)
		}
		if c.Len() != 64 {
			t.Errorf("Len = %d", c.Len())
		}
	})
}

func TestCachePinnedBlocksSurvive(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 2, stats.P(0))
		c.Pin(1)
		c.Get(1)
		c.Get(2)
		c.Get(3) // must evict 2, not pinned 1
		if !c.Has(1) {
			t.Error("pinned block evicted")
		}
		if c.Has(2) {
			t.Error("unpinned block survived over pinned")
		}
	})
}

func TestCacheAllPinnedOverflows(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 1, stats.P(0))
		c.Pin(1)
		c.Pin(2)
		c.Get(1)
		c.Get(2)
		// Nothing evictable: cache overflows rather than deadlocking.
		if c.Len() != 2 {
			t.Errorf("Len = %d", c.Len())
		}
		if stats.P(0).BlocksPurged != 0 {
			t.Error("pinned block purged")
		}
	})
}

func TestCacheResidentBytes(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 0, stats.P(0))
		c.Get(0)
		c.Get(1)
		want := 2 * prov.Decomp().BlockBytes()
		if got := c.ResidentBytes(); got != want {
			t.Errorf("ResidentBytes = %d, want %d", got, want)
		}
	})
}

func TestCacheEvaluatorWorks(t *testing.T) {
	stats := metrics.NewCollector(1)
	prov := testProvider()
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, DefaultDisk(), 4, stats.P(0))
		ev := c.Get(0)
		if got := ev.Eval(vec.Of(0.1, 0.1, 0.1)); got != vec.Of(1, 0, 0) {
			t.Errorf("Eval through cache = %v", got)
		}
	})
}

func TestOOMError(t *testing.T) {
	err := &OOMError{Proc: 3, NeededBytes: 100, BudgetBytes: 50, What: "streamline geometry"}
	msg := err.Error()
	for _, want := range []string{"oom", "processor 3", "streamline geometry"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// Property: under random access patterns the cache never exceeds
// capacity, and loads-purges always equals residents.
func TestPropCacheInvariants(t *testing.T) {
	prov := testProvider()
	for seed := int64(0); seed < 5; seed++ {
		stats := metrics.NewCollector(1)
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(6)
		runInProc(t, func(p *sim.Proc) {
			c := NewCache(p, prov, DiskModel{LatencySec: 1e-6}, capacity, stats.P(0))
			for i := 0; i < 300; i++ {
				c.Get(grid.BlockID(rng.Intn(20)))
				if c.Len() > capacity {
					t.Fatalf("cache exceeded capacity: %d > %d", c.Len(), capacity)
				}
				s := stats.P(0)
				if s.BlocksLoaded-s.BlocksPurged != int64(c.Len()) {
					t.Fatalf("loads-purges=%d != residents=%d",
						s.BlocksLoaded-s.BlocksPurged, c.Len())
				}
			}
		})
	}
}
