package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// record plays a small fixed scenario into r: two procs, compute and
// I/O spans, a message round trip, block traffic and a completion.
func record(r *Recorder) {
	r.SetNumProcs(2)
	r.SetReleases([]float64{0, 0, 0.5})
	r.Span(0, SpanCompute, 0, 1, 7, 100)
	r.Span(0, SpanIOQueue, 1, 1.25, 4096, 0)
	r.Span(0, SpanIO, 1.25, 2, 4096, 0)
	r.Mark(0, MarkBlockLoad, 2, 3, 0)
	r.Mark(0, MarkSend, 2, 1, 64)
	r.Span(1, SpanIdle, 0, 2.5, 0, 0)
	r.Mark(1, MarkRecv, 2.5, 0, 64)
	r.Span(1, SpanComm, 2.5, 2.6, 0, 64)
	r.Mark(1, MarkRelease, 0.5, 2, 0)
	r.Mark(1, MarkComplete, 3, 7, 100)
	r.Mark(0, MarkBlockEvict, 3.5, 3, 0)
}

func TestEventBytesMatchesStruct(t *testing.T) {
	if got := reflect.TypeOf(Event{}).Size(); int64(got) != EventBytes {
		t.Fatalf("EventBytes = %d, but unsafe size of Event is %d", EventBytes, got)
	}
}

func TestRecorderCountsAndDigests(t *testing.T) {
	r := New()
	record(r)
	if len(r.Events()) != 11 {
		t.Fatalf("got %d events, want 11", len(r.Events()))
	}
	if n := r.NumProcs(); n != 2 {
		t.Fatalf("NumProcs = %d, want 2", n)
	}
	e0, b0 := r.ProcCount(0)
	e1, b1 := r.ProcCount(1)
	if e0 != 6 || e1 != 5 {
		t.Fatalf("per-proc events = %d, %d; want 6, 5", e0, e1)
	}
	if b0 != e0*EventBytes || b1 != e1*EventBytes {
		t.Fatalf("byte accounting off: %d/%d events, %d/%d bytes", e0, e1, b0, b1)
	}
	if oob, _ := r.ProcCount(99); oob != 0 {
		t.Fatalf("out-of-range ProcCount = %d, want 0", oob)
	}
	rep := r.Report()
	if rep.Events != 11 || rep.Bytes != 11*EventBytes {
		t.Fatalf("report totals = %d events, %d bytes", rep.Events, rep.Bytes)
	}
	if rep.Stall.Count != 1 || rep.Stall.Sum != 2.5 {
		t.Fatalf("stall digest = %+v, want one 2.5s sample", rep.Stall)
	}
	if rep.IOQueue.Count != 1 || rep.IOQueue.Sum != 0.25 {
		t.Fatalf("ioqueue digest = %+v", rep.IOQueue)
	}
	if rep.MsgLatency.Count != 1 || rep.MsgLatency.Sum != 0.5 {
		t.Fatalf("msg latency digest = %+v, want one 0.5s sample", rep.MsgLatency)
	}
	if rep.Steps.Count != 1 || rep.Steps.Sum != 100 {
		t.Fatalf("steps digest = %+v, want one 100-step sample", rep.Steps)
	}
}

func TestZeroLengthSpansDropped(t *testing.T) {
	r := New()
	r.Span(0, SpanCompute, 1, 1, 0, 0)
	r.Span(0, SpanIdle, 2, 1.5, 0, 0)
	if n := len(r.Events()); n != 0 {
		t.Fatalf("zero/negative-length spans recorded: %d events", n)
	}
}

func TestDigestModeMatchesKeepMode(t *testing.T) {
	full, dig := New(), NewDigest()
	record(full)
	record(dig)
	if len(dig.Events()) != 0 {
		t.Fatalf("digest recorder kept %d events", len(dig.Events()))
	}
	if full.Hash() != dig.Hash() {
		t.Fatalf("hash differs between keep and digest modes: %x vs %x", full.Hash(), dig.Hash())
	}
	if a, b := full.Report(), dig.Report(); a != b {
		t.Fatalf("reports differ:\nkeep   %+v\ndigest %+v", a, b)
	}
}

func TestHashDetectsDifferences(t *testing.T) {
	a, b := NewDigest(), NewDigest()
	record(a)
	record(b)
	if a.Hash() != b.Hash() {
		t.Fatal("identical streams hash differently")
	}
	b.Mark(0, MarkKill, 9, 0, 0)
	if a.Hash() == b.Hash() {
		t.Fatal("hash failed to distinguish different streams")
	}
}

func TestDigestQuantiles(t *testing.T) {
	var d Digest
	for i := 1; i <= 1000; i++ {
		d.Add(float64(i) * 1e-3) // 1ms .. 1s uniform
	}
	if d.Count() != 1000 || math.Abs(d.Sum()-500.5) > 1e-9 {
		t.Fatalf("count/sum = %d, %g", d.Count(), d.Sum())
	}
	for _, tc := range []struct{ q, want float64 }{{0.50, 0.5}, {0.95, 0.95}, {0.99, 0.99}} {
		got := d.quantile(tc.q)
		if rel := got/tc.want - 1; rel < -0.001 || rel > 0.05 {
			t.Errorf("q%.0f = %g, want within (-0.1%%, +5%%) of %g", tc.q*100, got, tc.want)
		}
	}
	if got := d.quantile(0); got != 1e-3 {
		t.Errorf("q0 = %g, want exact min", got)
	}
	if got := d.quantile(1); got != 1 {
		t.Errorf("q1 = %g, want exact max", got)
	}
	var empty Digest
	if empty.quantile(0.5) != 0 || (empty.Summary() != DigestSummary{}) {
		t.Error("empty digest should summarize to zeros")
	}
}

func TestChromeTraceSchema(t *testing.T) {
	r := New()
	record(r)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   *float64        `json:"ts"`
			Dur  *float64        `json:"dur"`
			Pid  *int            `json:"pid"`
			Tid  *int            `json:"tid"`
			S    string          `json:"s"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	// 2 thread metadata records + 11 events.
	if len(doc.TraceEvents) != 13 {
		t.Fatalf("got %d trace events, want 13", len(doc.TraceEvents))
	}
	var spans, marks, meta int
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event missing required fields: %+v", e)
		}
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if e.Ts == nil || e.Dur == nil || *e.Dur <= 0 {
				t.Fatalf("complete event missing ts/dur: %+v", e)
			}
		case "i":
			marks++
			if e.Ts == nil || e.S != "t" {
				t.Fatalf("instant event malformed: %+v", e)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if meta != 2 || spans != 5 || marks != 6 {
		t.Fatalf("meta/spans/marks = %d/%d/%d, want 2/5/6", meta, spans, marks)
	}
	// Byte determinism: re-recording and re-exporting matches exactly.
	r2 := New()
	record(r2)
	var buf2 bytes.Buffer
	if err := r2.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("repeated export is not byte-identical")
	}
}

func TestKindNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if numKinds.String() != "unknown" {
		t.Fatal("out-of-range kind should stringify as unknown")
	}
}

func TestSeries(t *testing.T) {
	r := New()
	r.SetNumProcs(2)
	r.SetReleases([]float64{0, 1})
	r.Span(0, SpanCompute, 0, 2, 1, 50) // proc 0 busy [0,2)
	r.Span(1, SpanIOQueue, 0, 1, 64, 0) // queued [0,1)
	r.Span(1, SpanIO, 1, 2, 64, 0)      // transfer [1,2)
	r.Mark(1, MarkBlockLoad, 2, 9, 0)   // resident 1 from t=2
	r.Span(0, SpanIdle, 2, 4, 0, 0)     // idle must NOT count as busy
	r.Mark(0, MarkComplete, 3, 1, 50)   // active drops at t=3
	r.Mark(1, MarkBlockEvict, 4, 9, 0)  // resident back to 0 at t=4
	s, err := r.Series(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 5 {
		t.Fatalf("got %d samples, want 5 (t=0..4)", len(s))
	}
	wantActive := []int64{1, 2, 2, 1, 1}
	wantQueue := []int64{1, 0, 0, 0, 0}
	wantResident := []int64{0, 0, 1, 1, 0}
	for i, smp := range s {
		if smp.Time != float64(i) {
			t.Fatalf("sample %d at t=%g", i, smp.Time)
		}
		if smp.Active != wantActive[i] || smp.IOQueue != wantQueue[i] || smp.Resident != wantResident[i] {
			t.Fatalf("sample %d = %+v; want active %d, queue %d, resident %d",
				i, smp, wantActive[i], wantQueue[i], wantResident[i])
		}
	}
	// Interval [0,1): proc 0 computing (1.0), proc 1 queued (1.0).
	if s[0].BusyMean != 1 || s[0].BusyMax != 1 {
		t.Fatalf("sample 0 busy = %g/%g, want 1/1", s[0].BusyMean, s[0].BusyMax)
	}
	// Interval [2,3): proc 0 idle, proc 1 idle — nothing busy.
	if s[2].BusyMean != 0 || s[2].BusyMax != 0 {
		t.Fatalf("sample 2 busy = %g/%g, want 0/0", s[2].BusyMean, s[2].BusyMax)
	}
	if s, err := NewDigest().Series(1); s != nil || err != nil {
		t.Fatal("digest-only recorder should have no series")
	}
}

// TestSeriesRefusesUnholdableCounts: an interval whose sample count is
// past int's range, or whose busy table is past the processor-sample
// bound, is an error before any table is sized. Neither allocates much
// if the bound were gone: the first count overflows int, the second is
// about 17M processor-samples.
func TestSeriesRefusesUnholdableCounts(t *testing.T) {
	r := New()
	r.SetNumProcs(2)
	r.Span(0, SpanCompute, 0, 4, 1, 50)
	if s, err := r.Series(1e-300); s != nil || err == nil {
		t.Fatalf("Series(1e-300) = %d samples, %v; want a refusal", len(s), err)
	}
	wide := New()
	wide.SetNumProcs(1 << 14)
	wide.Span(0, SpanCompute, 0, 4, 1, 50)
	if s, err := wide.Series(4.0 / 1024); s != nil || err == nil {
		t.Fatalf("1025 samples of %d processors = %d samples, %v; want a refusal", 1<<14, len(s), err)
	}
}

func TestSeriesWriters(t *testing.T) {
	r := New()
	record(r)
	s, err := r.Series(0) // auto interval
	if err != nil || len(s) == 0 {
		t.Fatal("no samples")
	}
	var csv bytes.Buffer
	if err := WriteSeriesCSV(&csv, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "t,active,io_queue,resident_blocks,busy_mean,busy_max" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != len(s)+1 {
		t.Fatalf("csv has %d lines for %d samples", len(lines), len(s))
	}
}
