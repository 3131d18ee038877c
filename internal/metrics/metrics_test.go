package metrics

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCollectorBasics(t *testing.T) {
	c := NewCollector(4)
	if c.NumProcs() != 4 {
		t.Fatalf("NumProcs = %d", c.NumProcs())
	}
	for i := 0; i < 4; i++ {
		if c.P(i).Proc != i {
			t.Errorf("proc %d mislabeled as %d", i, c.P(i).Proc)
		}
	}
	c.P(2).IOTime = 5
	if c.P(2).IOTime != 5 {
		t.Error("P does not return mutable stats")
	}
	all := c.All()
	all[2].IOTime = 99
	if c.P(2).IOTime != 5 {
		t.Error("All must return a copy")
	}
}

func TestAggregate(t *testing.T) {
	c := NewCollector(3)
	c.P(0).EndTime = 10
	c.P(1).EndTime = 15
	c.P(2).EndTime = 12
	c.P(0).IOTime = 1
	c.P(1).IOTime = 2
	c.P(0).CommTime = 0.5
	c.P(2).ComputeTime = 3
	c.P(0).BlocksLoaded = 10
	c.P(1).BlocksLoaded = 10
	c.P(1).BlocksPurged = 5
	c.P(2).Steps = 100
	c.P(0).MsgsSent = 3
	c.P(0).BytesSent = 1000
	c.P(1).StreamlinesCompleted = 7
	c.P(2).PeakMemoryBytes = 5000
	c.P(0).PeakMemoryBytes = 2000
	c.P(0).StealAttempts = 4
	c.P(1).StealAttempts = 2
	c.P(1).StealHits = 1
	c.P(2).TokensPassed = 9
	c.P(0).IOQueueTime = 0.25
	c.P(1).IOQueueTime = 0.5
	c.P(0).PrefetchIssued = 6
	c.P(1).PrefetchIssued = 4
	c.P(0).PrefetchHits = 5
	c.P(1).PrefetchWasted = 2
	c.P(0).IOHiddenTime = 0.125
	c.P(2).IOHiddenTime = 0.375
	c.P(0).ActivePeak = 12
	c.P(1).ActivePeak = 30
	c.P(0).ReleaseStalls = 2
	c.P(2).ReleaseStalls = 3
	c.P(1).ReleaseStallTime = 0.75
	c.P(1).ProcsLost = 1
	c.P(0).SeedsAdopted = 4
	c.P(2).SeedsAdopted = 3
	c.P(2).RingReforms = 1
	c.P(0).MasterFailovers = 2
	c.P(0).SendFailed = 5
	c.P(2).SendFailed = 1
	c.P(0).TraceEvents = 100
	c.P(1).TraceEvents = 50
	c.P(1).TraceBytes = 50 * 40
	c.P(2).TraceBytes = 80

	s := c.Aggregate()
	if s.TraceEvents != 150 || s.TraceBytes != 2080 {
		t.Errorf("trace meta-counters = %d events, %d bytes, want 150, 2080",
			s.TraceEvents, s.TraceBytes)
	}
	if s.ActivePeak != 30 {
		t.Errorf("ActivePeak = %d, want the per-processor max 30", s.ActivePeak)
	}
	if s.ReleaseStalls != 5 || s.ReleaseStallTime != 0.75 {
		t.Errorf("release stalls = %d/%g, want 5/0.75", s.ReleaseStalls, s.ReleaseStallTime)
	}
	if s.WallClock != 15 {
		t.Errorf("WallClock = %g", s.WallClock)
	}
	if s.TotalIO != 3 || s.TotalComm != 0.5 || s.TotalCompute != 3 {
		t.Errorf("totals wrong: %+v", s)
	}
	if s.BlocksLoaded != 20 || s.BlocksPurged != 5 {
		t.Errorf("block counts wrong: %+v", s)
	}
	if s.BlockEfficiency != 0.75 {
		t.Errorf("E = %g, want 0.75", s.BlockEfficiency)
	}
	if s.Steps != 100 || s.MsgsSent != 3 || s.BytesSent != 1000 {
		t.Errorf("counters wrong: %+v", s)
	}
	if s.StreamlinesCompleted != 7 {
		t.Errorf("done = %d", s.StreamlinesCompleted)
	}
	if s.PeakMemoryBytes != 5000 {
		t.Errorf("peak mem = %d", s.PeakMemoryBytes)
	}
	if s.NumProcs != 3 {
		t.Errorf("NumProcs = %d", s.NumProcs)
	}
	if s.StealAttempts != 6 || s.StealHits != 1 || s.TokensPassed != 9 {
		t.Errorf("steal counters wrong: %+v", s)
	}
	if s.TotalIOQueue != 0.75 {
		t.Errorf("TotalIOQueue = %g, want 0.75", s.TotalIOQueue)
	}
	if s.PrefetchIssued != 10 || s.PrefetchHits != 5 || s.PrefetchWasted != 2 {
		t.Errorf("prefetch counters wrong: %+v", s)
	}
	if s.IOHiddenTime != 0.5 {
		t.Errorf("IOHiddenTime = %g, want 0.5", s.IOHiddenTime)
	}
	if s.ProcsLost != 1 || s.SeedsAdopted != 7 || s.RingReforms != 1 {
		t.Errorf("fault counters wrong: lost=%d adopted=%d reforms=%d",
			s.ProcsLost, s.SeedsAdopted, s.RingReforms)
	}
	if s.MasterFailovers != 2 || s.SendFailed != 6 {
		t.Errorf("fault counters wrong: failovers=%d sendfail=%d",
			s.MasterFailovers, s.SendFailed)
	}
}

func TestBlockEfficiency(t *testing.T) {
	cases := []struct {
		loaded, purged int64
		want           float64
	}{
		{0, 0, 1},       // no I/O is ideal
		{100, 0, 1},     // load once, never purge: Static Allocation
		{100, 50, 0.5},  // half the loads were rereads
		{100, 99, 0.01}, // thrashing
	}
	for _, c := range cases {
		if got := BlockEfficiency(c.loaded, c.purged); got != c.want {
			t.Errorf("E(%d,%d) = %g, want %g", c.loaded, c.purged, got, c.want)
		}
	}
}

func TestPropBlockEfficiencyRange(t *testing.T) {
	f := func(loaded, purged uint16) bool {
		l := int64(loaded)
		p := int64(purged)
		if p > l {
			p = l
		}
		e := BlockEfficiency(l, p)
		return e >= 0 && e <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImbalance(t *testing.T) {
	c := NewCollector(2)
	c.P(0).ComputeTime = 10
	c.P(1).ComputeTime = 0
	s := c.Aggregate()
	if s.Imbalance != 2 {
		t.Errorf("Imbalance = %g, want 2 (one proc did all the work)", s.Imbalance)
	}

	c2 := NewCollector(2)
	c2.P(0).ComputeTime = 5
	c2.P(1).ComputeTime = 5
	if got := c2.Aggregate().Imbalance; got != 1 {
		t.Errorf("balanced Imbalance = %g, want 1", got)
	}
}

func TestObserveMemory(t *testing.T) {
	var p ProcStats
	p.ObserveMemory(100)
	p.ObserveMemory(50)
	p.ObserveMemory(200)
	if p.PeakMemoryBytes != 200 {
		t.Errorf("peak = %d", p.PeakMemoryBytes)
	}
}

func TestTableRendering(t *testing.T) {
	c := NewCollector(1)
	c.P(0).EndTime = 2.5
	c.P(0).IOTime = 0.25
	rows := []TableRow{
		{Label: "static/64", Summary: c.Aggregate()},
		{Label: "failed/64", Err: errors.New("oom: processor 3")},
	}
	out := Table(rows, []string{"wall", "io", "efficiency"})
	if !strings.Contains(out, "static/64") || !strings.Contains(out, "2.500") {
		t.Errorf("table missing data:\n%s", out)
	}
	if !strings.Contains(out, "OOM") {
		t.Errorf("table missing OOM marker:\n%s", out)
	}
	// Unknown column renders a placeholder, not a panic.
	out = Table(rows[:1], []string{"bogus"})
	if !strings.Contains(out, "?") {
		t.Errorf("unknown column not flagged:\n%s", out)
	}
}

// tableColumns is every column Summary.Column formats.
var tableColumns = []string{"procs", "wall", "io", "ioq", "hidden", "comm", "idle", "compute", "efficiency", "msgs", "bytes", "loads", "purges", "steps", "done", "peakmem", "imbalance", "steals", "tokens", "prefetch", "pfwaste", "epochs", "psteps", "apeak", "rstalls", "rstall-s", "lost", "adopted", "reforms", "failovers", "sendfail", "trace-ev", "trace-by"}

func TestTableAllColumns(t *testing.T) {
	c := NewCollector(1)
	c.P(0).EndTime = 1
	out := Table([]TableRow{{Label: "x", Summary: c.Aggregate()}}, tableColumns)
	if strings.Contains(out, "?") {
		t.Errorf("a known column rendered as unknown:\n%s", out)
	}
}

// aggregateExempt names the ProcStats fields Aggregate does not read,
// each with its reason.
var aggregateExempt = map[string]string{
	"Proc":      "the record's identity, not a counter",
	"MsgsRecv":  "at most MsgsSent (a message queued at termination is never received); the sent side is aggregated",
	"BytesRecv": "at most BytesSent (a message queued at termination is never received); the sent side is aggregated",
}

// setDistinct puts a nonzero value in a counter field.
func setDistinct(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(0.375)
	default:
		t.Fatalf("no distinct value for %s", v.Type())
	}
}

// TestProcStatsAggregated proves every ProcStats counter reaches the run
// Summary: a distinct value in any one field changes what Aggregate
// returns, except in the fields aggregateExempt names, where it must not.
func TestProcStatsAggregated(t *testing.T) {
	base := NewCollector(1).Aggregate()
	pt := reflect.TypeFor[ProcStats]()
	for i := range pt.NumField() {
		name := pt.Field(i).Name
		c := NewCollector(1)
		setDistinct(t, reflect.ValueOf(c.P(0)).Elem().Field(i))
		changed := c.Aggregate() != base
		if reason, exempt := aggregateExempt[name]; exempt && changed {
			t.Errorf("ProcStats.%s is exempt (%s) but changes the Summary", name, reason)
		} else if !exempt && !changed {
			t.Errorf("ProcStats.%s is not aggregated: the counter is recorded per processor but never reaches the run Summary", name)
		}
	}
}

// TestSummaryRendered proves every Summary field has a table column: a
// distinct value in any one field changes the table rendered over
// tableColumns.
func TestSummaryRendered(t *testing.T) {
	render := func(s Summary) string { return Table([]TableRow{{Label: "x", Summary: s}}, tableColumns) }
	base := render(Summary{})
	st := reflect.TypeFor[Summary]()
	for i := range st.NumField() {
		var s Summary
		setDistinct(t, reflect.ValueOf(&s).Elem().Field(i))
		if render(s) == base {
			t.Errorf("Summary.%s has no table column: no table can report it", st.Field(i).Name)
		}
	}
}

// TestCounterRoundTrip pins how the counter pipeline combines values:
// ProcStats counters set on a single processor surface in the Summary as
// sums or maxes, and the received side is not aggregated at all.
// TestProcStatsAggregated proves that every counter arrives; this test
// pins the arithmetic.
func TestCounterRoundTrip(t *testing.T) {
	c := NewCollector(1)
	*c.P(0) = ProcStats{
		Proc:                 0,
		ComputeTime:          1,
		IOTime:               2,
		IOQueueTime:          0.5,
		CommTime:             3,
		EndTime:              11,
		Steps:                5,
		BlocksLoaded:         6,
		BlocksPurged:         3,
		MsgsSent:             7,
		MsgsRecv:             6,
		BytesSent:            800,
		BytesRecv:            700,
		StreamlinesCompleted: 9,
		PeakMemoryBytes:      1000,
		StealAttempts:        11,
		StealHits:            12,
		TokensPassed:         13,
		PrefetchIssued:       14,
		PrefetchHits:         15,
		PrefetchWasted:       16,
		IOHiddenTime:         0.25,
		ActivePeak:           17,
		ReleaseStalls:        18,
		ReleaseStallTime:     0.125,
		PathlineSteps:        19,
		EpochCrossings:       20,
	}
	s := c.Aggregate()
	want := Summary{
		NumProcs:             1,
		WallClock:            11,
		TotalIO:              2,
		TotalIOQueue:         0.5,
		TotalComm:            3,
		TotalCompute:         1,
		BlocksLoaded:         6,
		BlocksPurged:         3,
		BlockEfficiency:      0.5,
		MsgsSent:             7,
		BytesSent:            800,
		Steps:                5,
		StreamlinesCompleted: 9,
		PeakMemoryBytes:      1000,
		StealAttempts:        11,
		StealHits:            12,
		TokensPassed:         13,
		PrefetchIssued:       14,
		PrefetchHits:         15,
		PrefetchWasted:       16,
		IOHiddenTime:         0.25,
		ActivePeak:           17,
		ReleaseStalls:        18,
		ReleaseStallTime:     0.125,
		PathlineSteps:        19,
		EpochCrossings:       20,
		Imbalance:            1,
	}
	if s != want {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", s, want)
	}
	if s.PathlineSteps != 19 || s.EpochCrossings != 20 {
		t.Errorf("spot checks failed: psteps=%d epochs=%d", s.PathlineSteps, s.EpochCrossings)
	}
}
