package store

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// collect filters recorded events by kind.
func collect(r *obs.Recorder, k obs.Kind) []obs.Event {
	var out []obs.Event
	for _, e := range r.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestDiskReadTraceSpans checks the disjoint ioqueue/io span pair a
// contended shared-disk read emits: queue wait then transfer, together
// covering exactly the interval Read charges as IOTime.
func TestDiskReadTraceSpans(t *testing.T) {
	rec := obs.New()
	k := sim.New()
	d := DiskModel{LatencySec: 1, Shared: sim.NewResource(k, 1), Trace: rec}
	stats := metrics.NewCollector(2)
	k.Spawn("a", func(p *sim.Proc) { d.read(p, 0, stats.P(0)) })
	k.Spawn("b", func(p *sim.Proc) { d.read(p, 0, stats.P(1)) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ios := collect(rec, obs.SpanIO)
	queues := collect(rec, obs.SpanIOQueue)
	if len(ios) != 2 {
		t.Fatalf("got %d io spans, want 2", len(ios))
	}
	// Only the second reader queues; its wait is the first one's transfer.
	if len(queues) != 1 {
		t.Fatalf("got %d ioqueue spans, want 1", len(queues))
	}
	q := queues[0]
	if q.Proc != 1 || q.Time != 0 || q.Dur != 1 {
		t.Fatalf("queue span = %+v, want proc 1 waiting [0,1)", q)
	}
	// The loser's transfer starts where its queue wait ends (disjoint).
	if ios[1].Proc != 1 || ios[1].Time != q.Time+q.Dur {
		t.Fatalf("transfer span %+v does not abut queue span %+v", ios[1], q)
	}
	// Uncontended read: one io span, no queue span.
	rec2 := obs.New()
	d2 := DiskModel{LatencySec: 0.5, Trace: rec2}
	k2 := sim.New()
	k2.Spawn("solo", func(p *sim.Proc) { d2.read(p, 0, stats.P(0)) })
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(collect(rec2, obs.SpanIO)) != 1 || len(collect(rec2, obs.SpanIOQueue)) != 0 {
		t.Fatal("uncontended read should emit exactly one io span")
	}
}

// TestCacheTraceMarks checks block load, evict and prefetch marks.
func TestCacheTraceMarks(t *testing.T) {
	rec := obs.New()
	prov := testProvider()
	d := DiskModel{LatencySec: 0.01, Trace: rec}
	runInProc(t, func(p *sim.Proc) {
		c := NewCache(p, prov, d, 2, metrics.NewCollector(1).P(0))
		c.Get(0)
		c.Get(1)
		c.Get(2) // evicts block 0
		if !c.Prefetch(3) {
			t.Error("prefetch refused")
		}
		p.Sleep(1) // let the async read complete and install (evicts 1)
		if _, ok := c.TryGet(3); !ok {
			t.Error("prefetched block not resident")
		}
	})
	loads := collect(rec, obs.MarkBlockLoad)
	if len(loads) != 4 {
		t.Fatalf("got %d load marks, want 4 (3 demand + 1 prefetch)", len(loads))
	}
	if loads[3].A != 3 {
		t.Fatalf("prefetch completion load mark = %+v, want block 3", loads[3])
	}
	evicts := collect(rec, obs.MarkBlockEvict)
	if len(evicts) != 2 || evicts[0].A != 0 {
		t.Fatalf("evict marks = %+v, want blocks 0 then 1", evicts)
	}
	pf := collect(rec, obs.MarkPrefetch)
	if len(pf) != 1 || pf[0].A != 3 {
		t.Fatalf("prefetch marks = %+v, want one for block 3", pf)
	}
}

// TestCacheResidentHitAllocs is the disabled-tracing allocation gate for
// the block-access hot path: with no recorder installed, resident-block
// hits (TryGet and Get) must not allocate — the nil recorder's hooks
// must stay free. This is the path every integration step takes.
func TestCacheResidentHitAllocs(t *testing.T) {
	prov := testProvider()
	var c *Cache
	k := sim.New()
	k.Spawn("warm", func(p *sim.Proc) {
		c = NewCache(p, prov, DefaultDisk(), 4, metrics.NewCollector(1).P(0))
		c.Get(0)
		c.Get(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	per := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			if _, ok := c.TryGet(grid.BlockID(i % 2)); !ok {
				t.Fatal("warm block missing")
			}
			c.Get(grid.BlockID(i % 2))
		}
	})
	if per > 0 {
		t.Errorf("resident hits allocate %.2f times per 200-access run, want 0", per)
	}
}
