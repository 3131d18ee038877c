package experiments

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// tinyScale trims SmallScale so the full 36-cell campaign stays fast
// enough to run twice (serial and parallel) under -race.
func tinyScale() Scale {
	sc := SmallScale()
	sc.Name = "tiny"
	sc.AstroSeeds = 60
	sc.FusionSeeds = 40
	sc.ThermalSparseGrid = 3
	sc.ThermalDenseSeeds = 1200
	sc.MaxSteps = 120
	sc.ShortSteps = 150 // keep dense-thermal geometry above the OOM budget (Figure 13 cell)
	sc.ProcCounts = []int{4, 8}
	return sc
}

// TestParallelCampaignMatchesSerial is the equivalence guarantee of the
// worker pool: every cell of a Workers=8 campaign must produce a
// bit-identical metrics.Summary (or the identical error) to a Workers=1
// campaign, for every key, including the expected OOM failure cell.
func TestParallelCampaignMatchesSerial(t *testing.T) {
	sc := tinyScale()
	serial := NewCampaign(sc)
	serial.Workers = 1
	parallel := NewCampaign(sc)
	parallel.Workers = 8

	serial.RunAll()
	parallel.RunAll()

	keys := serial.allKeys()
	if got := serial.numResults(); got != len(keys) {
		t.Fatalf("serial campaign ran %d cells, want %d", got, len(keys))
	}
	if got := parallel.numResults(); got != len(keys) {
		t.Fatalf("parallel campaign ran %d cells, want %d", got, len(keys))
	}

	sawErr := false
	for _, k := range keys {
		a, ok := serial.Cached(k)
		if !ok {
			t.Fatalf("%s: missing from serial results", k.Label())
		}
		b, ok := parallel.Cached(k)
		if !ok {
			t.Fatalf("%s: missing from parallel results", k.Label())
		}
		if a.Summary != b.Summary {
			t.Errorf("%s: summaries differ\nserial:   %+v\nparallel: %+v", k.Label(), a.Summary, b.Summary)
		}
		aErr, bErr := "", ""
		if a.Err != nil {
			aErr = a.Err.Error()
			sawErr = true
		}
		if b.Err != nil {
			bErr = b.Err.Error()
		}
		if aErr != bErr {
			t.Errorf("%s: errors differ: serial %q, parallel %q", k.Label(), aErr, bErr)
		}
	}
	if !sawErr {
		t.Error("no cell failed: the dense-thermal static OOM should appear in both campaigns")
	}
}

// TestParallelInjectionCampaignMatchesSerial extends the worker-pool
// equivalence guarantee across the Injection axis: a staggered-release
// campaign (whose cells interleave release stalls with compute, I/O and
// steal traffic) must produce bit-identical summaries whether its cells
// run serially or concurrently, and its cells must genuinely exercise
// the schedule (recorded release stalls somewhere in the sweep).
func TestParallelInjectionCampaignMatchesSerial(t *testing.T) {
	sc := tinyScale()
	serial := NewCampaign(sc)
	serial.Workers = 1
	serial.Cell.Injection = InjectStagger
	parallel := NewCampaign(sc)
	parallel.Workers = 8
	parallel.Cell.Injection = InjectStagger

	serial.RunAll()
	parallel.RunAll()

	keys := serial.allKeys()
	sawStall := false
	for _, k := range keys {
		if !k.Injection.Enabled() {
			t.Fatalf("%s: enumerated without the campaign injection", k.Label())
		}
		a, ok := serial.Cached(k)
		if !ok {
			t.Fatalf("%s: missing from serial results", k.Label())
		}
		b, ok := parallel.Cached(k)
		if !ok {
			t.Fatalf("%s: missing from parallel results", k.Label())
		}
		if a.Summary != b.Summary {
			t.Errorf("%s: summaries differ\nserial:   %+v\nparallel: %+v", k.Label(), a.Summary, b.Summary)
		}
		aErr, bErr := "", ""
		if a.Err != nil {
			aErr = a.Err.Error()
		}
		if b.Err != nil {
			bErr = b.Err.Error()
		}
		if aErr != bErr {
			t.Errorf("%s: errors differ: serial %q, parallel %q", k.Label(), aErr, bErr)
		}
		if a.Err == nil && a.Summary.ReleaseStalls > 0 {
			sawStall = true
		}
	}
	if !sawStall {
		t.Error("no cell recorded release stalls: the staggered schedule never starved a processor")
	}
}

// TestParallelFigureRowsDeterministic asserts that the rendered figure
// tables — row order included — are byte-identical between serial and
// parallel execution.
func TestParallelFigureRowsDeterministic(t *testing.T) {
	sc := tinyScale()
	serial := NewCampaign(sc)
	serial.Workers = 1
	parallel := NewCampaign(sc)
	parallel.Workers = 8

	for _, fig := range Figures() {
		a := serial.FigureTable(fig)
		b := parallel.FigureTable(fig)
		if a != b {
			t.Errorf("figure %d tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", fig.ID, a, b)
		}
	}
}

// TestProblemMemoization checks that the grid/field/seed construction
// happens once per (dataset, seeding), not once per cell.
func TestProblemMemoization(t *testing.T) {
	c := NewCampaign(tinyScale())
	c.Workers = 4
	c.RunAll()
	want := len(datasets()) * len(Seedings())
	if got := c.numProblems(); got != want {
		t.Errorf("problems built = %d, want %d (one per dataset × seeding)", got, want)
	}
	// The memoized problem is shared: a second fetch returns the same
	// entry, not a rebuild.
	k := Key{Dataset: Astro, Seeding: Sparse}
	e1 := c.problem(k)
	if e1.err != nil {
		t.Fatal(e1.err)
	}
	// Every axis that moves no curve names the same problem.
	k.Alg, k.Procs, k.Injection = core.HybridMS, 4, InjectStagger
	if e2 := c.problem(k); len(e1.prob.Seeds) == 0 || e1 != e2 {
		t.Error("problem(Astro, Sparse) rebuilt instead of memoized")
	}
}

// TestRunSingleflight checks that concurrent Run calls for the same key
// execute the simulation once and all observe that one outcome.
func TestRunSingleflight(t *testing.T) {
	sc := tinyScale()
	c := NewCampaign(sc)
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4}

	const callers = 8
	outs := make([]Outcome, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = c.Run(k)
		}(i)
	}
	wg.Wait()

	if c.numResults() != 1 {
		t.Errorf("results = %d, want 1", c.numResults())
	}
	for i := 1; i < callers; i++ {
		if outs[i].Summary != outs[0].Summary {
			t.Errorf("caller %d observed a different summary", i)
		}
	}
}

// TestComputeRetainsNothing: Compute is execution without the memo — two
// sequential calls execute twice (counted through Tune) and Cached never
// sees them — and Run after Compute still executes once and retains.
func TestComputeRetainsNothing(t *testing.T) {
	c := NewCampaign(tinyScale())
	executions := 0
	c.Tune = func(*core.Config) { executions++ }
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4, Injection: "t0"}

	a := c.Compute(k, false, nil, nil)
	b := c.Compute(k, false, nil, nil)
	if executions != 2 || c.numResults() != 0 {
		t.Fatalf("two Computes: %d executions, %d results retained; want 2 and 0", executions, c.numResults())
	}
	if _, ok := c.Cached(k); ok {
		t.Fatal("Cached sees a cell only Compute ran")
	}
	if a.Err != nil || a.Summary != b.Summary || a.Key != k.normalized() {
		t.Fatalf("Compute outcomes differ or failed: %+v vs %+v", a, b)
	}
	if len(c.inflight) != 0 {
		t.Fatalf("%d flights left behind", len(c.inflight))
	}

	r := c.Run(k)
	c.Run(k)
	if executions != 3 || c.numResults() != 1 {
		t.Fatalf("Run, twice, after Compute: %d executions, %d retained; want 3 and 1", executions, c.numResults())
	}
	if got, ok := c.Cached(k); !ok || got.Summary != r.Summary || r.Summary != a.Summary {
		t.Fatal("Run did not retain the outcome Compute produced")
	}
}

// TestComputeSharesOneFlight: N concurrent Computes of one key execute
// once, keep runs once — on the executing call, before anyone is
// released — and every caller returns with keep's effect visible. The
// execution is held in Tune until every caller is on its way in. Run
// with -race: kept is written by keep and read by every caller bare.
func TestComputeSharesOneFlight(t *testing.T) {
	const callers = 8
	c := NewCampaign(tinyScale())
	var started sync.WaitGroup
	started.Add(callers)
	executions := 0
	c.Tune = func(*core.Config) {
		started.Wait()
		executions++
	}
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4}

	var kept *Outcome
	keeps := 0
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			out := c.Compute(k, false, nil, func(out Outcome) {
				keeps++
				kept = &out
			})
			if kept == nil || kept.Summary != out.Summary || out.Err != nil {
				t.Errorf("caller %d returned before keep's effect was visible, or with another outcome", i)
			}
		}(i)
	}
	wg.Wait()
	if executions != 1 || keeps != 1 {
		t.Fatalf("%d concurrent Computes: %d executions, %d keeps; want 1 and 1", callers, executions, keeps)
	}
}

// TestComputeLookupHitExecutesNothing: the call that takes a flight asks
// lookup first. A hit is the outcome of every caller of that flight —
// nothing executes, keep does not run, nothing is logged — and a miss
// executes as before. The callers are on their way in before the lookup
// answers; one that arrives after the flight has ended asks lookup
// itself, so every caller gets the hit either way. Run with -race.
func TestComputeLookupHitExecutesNothing(t *testing.T) {
	const callers = 8
	c := NewCampaign(tinyScale())
	executions, keeps, logged := 0, 0, 0
	c.Tune = func(*core.Config) { executions++ }
	c.Log = func(string) { logged++ }
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4}
	cached := Outcome{Key: k, Err: errors.New("cached elsewhere")}

	var started sync.WaitGroup
	started.Add(callers)
	hit := func() (Outcome, bool) {
		started.Wait()
		return cached, true
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			if out := c.Compute(k, false, hit, func(Outcome) { keeps++ }); out.Err != cached.Err {
				t.Errorf("caller %d got %+v, want the lookup's outcome", i, out)
			}
		}(i)
	}
	wg.Wait()
	if executions != 0 || keeps != 0 || logged != 0 {
		t.Fatalf("a lookup hit: %d executions, %d keeps, %d log lines; want none", executions, keeps, logged)
	}

	miss := func() (Outcome, bool) { return Outcome{}, false }
	if out := c.Compute(k, false, miss, func(Outcome) { keeps++ }); out.Err != nil || executions != 1 || keeps != 1 || logged != 1 {
		t.Fatalf("a lookup miss: err %v, %d executions, %d keeps, %d log lines; want 1 each", out.Err, executions, keeps, logged)
	}
	if len(c.inflight) != 0 {
		t.Fatalf("%d flights left behind", len(c.inflight))
	}
}

// TestComputeObserveIsPerCall: an observed and an unobserved Compute of
// one key do not share a flight — both are held in Tune until both are
// there — and their outcomes differ only in Obs and in the summary's
// TraceEvents/TraceBytes meta-counters.
func TestComputeObserveIsPerCall(t *testing.T) {
	c := NewCampaign(tinyScale())
	arrived := make(chan struct{}, 2) // one send per execution
	both := make(chan struct{})
	c.Tune = func(*core.Config) {
		arrived <- struct{}{}
		<-both
	}
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4}

	var plain, observed Outcome
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); plain = c.Compute(k, false, nil, nil) }()
	go func() { defer wg.Done(); observed = c.Compute(k, true, nil, nil) }()
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(30 * time.Second):
			close(both)
			t.Fatal("the observed and the unobserved Compute share one execution")
		}
	}
	close(both)
	wg.Wait()

	if plain.Obs != nil || observed.Obs == nil {
		t.Fatalf("Obs: unobserved %v, observed %v; want nil and a report", plain.Obs, observed.Obs)
	}
	sum := observed.Summary
	if sum.TraceEvents != observed.Obs.Events || sum.TraceBytes != observed.Obs.Bytes || sum.TraceEvents == 0 {
		t.Errorf("meta-counters (%d ev, %d by) disagree with the report (%d ev, %d by)",
			sum.TraceEvents, sum.TraceBytes, observed.Obs.Events, observed.Obs.Bytes)
	}
	sum.TraceEvents, sum.TraceBytes = 0, 0
	if sum != plain.Summary {
		t.Errorf("observation changed the summary\nobserved: %+v\nplain:    %+v", sum, plain.Summary)
	}
}

// TestRunKeysDedup checks that duplicate keys in one batch are collapsed.
func TestRunKeysDedup(t *testing.T) {
	sc := tinyScale()
	c := NewCampaign(sc)
	c.Workers = 4
	k := Key{Dataset: Fusion, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 4}
	c.RunKeys([]Key{k, k, k, k})
	if c.numResults() != 1 {
		t.Errorf("results = %d, want 1", c.numResults())
	}
}

// TestWorkersDefault checks the pool-size resolution.
func TestWorkersDefault(t *testing.T) {
	c := NewCampaign(SmallScale())
	if c.workers() < 1 {
		t.Errorf("default workers = %d, want >= 1", c.workers())
	}
	c.Workers = 3
	if c.workers() != 3 {
		t.Errorf("workers = %d, want 3", c.workers())
	}
}

// TestObserveCampaignDeterministic pins the campaign-level tracing
// contract: an Observe campaign's percentile reports (event-stream
// hash included) are bit-identical between serial and parallel
// execution, and observation leaves every Summary bit-identical to an
// unobserved campaign's except for the TraceEvents/TraceBytes
// meta-counters.
func TestObserveCampaignDeterministic(t *testing.T) {
	sc := tinyScale()
	plain := NewCampaign(sc)
	plain.Workers = 1
	serial := NewCampaign(sc)
	serial.Workers = 1
	serial.Observe = true
	parallel := NewCampaign(sc)
	parallel.Workers = 8
	parallel.Observe = true

	keys := serial.datasetKeys(Astro)
	plain.RunKeys(keys)
	serial.RunKeys(keys)
	parallel.RunKeys(keys)

	for _, k := range keys {
		a, _ := serial.Cached(k)
		b, _ := parallel.Cached(k)
		p, _ := plain.Cached(k)
		if a.Obs == nil || b.Obs == nil {
			t.Fatalf("%s: Observe campaign produced no report", k.Label())
		}
		if !reflect.DeepEqual(*a.Obs, *b.Obs) {
			t.Errorf("%s: reports differ between serial and parallel execution\nserial:   %+v\nparallel: %+v",
				k.Label(), *a.Obs, *b.Obs)
		}
		if a.Summary != b.Summary {
			t.Errorf("%s: observed summaries differ between serial and parallel execution", k.Label())
		}
		if p.Obs != nil {
			t.Errorf("%s: unobserved campaign produced a report", k.Label())
		}
		aSum := a.Summary
		if aSum.TraceEvents != a.Obs.Events || aSum.TraceBytes != a.Obs.Bytes {
			t.Errorf("%s: meta-counters (%d ev, %d by) disagree with the report (%d ev, %d by)",
				k.Label(), aSum.TraceEvents, aSum.TraceBytes, a.Obs.Events, a.Obs.Bytes)
		}
		aSum.TraceEvents, aSum.TraceBytes = 0, 0
		if aSum != p.Summary {
			t.Errorf("%s: observation changed the summary\nobserved: %+v\nplain:    %+v", k.Label(), aSum, p.Summary)
		}
	}
}
