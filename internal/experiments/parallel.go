// Campaign execution on a bounded worker pool.
//
// The paper's evaluation (Figures 5–16) is a sweep of independent
// (dataset × seeding × algorithm × processor-count) cells; each cell is
// one deterministic discrete-event simulation (see internal/sim). Nothing
// couples the cells — they share only the memoized read-only problem and
// the mutex-guarded result map — so the campaign parallelizes across real
// OS cores with a plain worker pool, the same shape a threadN-style GWAS
// toolkit uses for its per-chromosome scans. Determinism is preserved:
// the pool changes only which wall-clock core runs a cell, never the
// virtual-time simulation inside it, so every Summary is bit-identical to
// a serial campaign's (asserted by TestParallelCampaignMatchesSerial).
package experiments

import (
	"runtime"
	"sync"
)

// workers resolves the configured pool size: 0 or negative means one
// worker per CPU core.
func (c *Campaign) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// RunKeys executes every configuration in keys, skipping cells already
// cached and collapsing duplicates. With Workers != 1 the missing cells
// run concurrently on the pool; RunKeys returns once all of them have
// completed.
func (c *Campaign) RunKeys(keys []Key) {
	// Dedup while preserving order: four figures share one dataset sweep,
	// so batch callers routinely enqueue the same key several times.
	seen := make(map[Key]bool, len(keys))
	todo := make([]Key, 0, len(keys))
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := c.Cached(k); !ok {
			todo = append(todo, k)
		}
	}
	if len(todo) == 0 {
		return
	}
	c.enter()
	defer c.leave()

	n := c.workers()
	if n > len(todo) {
		n = len(todo)
	}
	if n <= 1 {
		for _, k := range todo {
			c.Run(k)
		}
		return
	}

	work := make(chan Key)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				c.Run(k)
			}
		}()
	}
	for _, k := range todo {
		work <- k
	}
	close(work)
	wg.Wait()
}
