package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-scale", "bogus"},
		{"-procs", "0"},
		// Over the processor bound: a usage error, not an out-of-memory
		// crash.
		{"-procs", "200000000"},
		// slrun runs one cell: a processor-count sweep is slbench's, and
		// there is no worker pool to size.
		{"-procs", "8,16"},
		{"-j", "2"},
		{"-nosuchflag"},
		// Bad experiment names are usage errors, never simulation failures.
		{"-dataset", "bogus"},
		{"-seeding", "bogus"},
		{"-alg", "bogus"},
		{"-prefetch", "sideways"},
		// A hybrid cell needs a master and a slave: one processor is a
		// usage error, not a "run failed".
		{"-scale", "small", "-alg", "hybrid", "-procs", "1"},
		// -top shapes only the per-processor block: without -perproc it
		// would be silently ignored.
		{"-scale", "small", "-alg", "ondemand", "-procs", "8", "-top", "2"},
		// A negative count is refused, not read as "all" like -top 0.
		{"-scale", "small", "-procs", "8", "-perproc", "-top", "-2"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-h"}, &out, &errw); code != 0 {
		t.Errorf("run(-h) = %d, want 0", code)
	}
}

func TestRunSingleSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "ondemand", "-procs", "8", "-perproc", "-top", "2"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"wall clock", "block efficiency", "busiest processors"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// -top 2 lists two processors, the first of them the busiest of all
	// eight (-top 0 lists every one).
	top := busyColumn(t, got)
	var all bytes.Buffer
	args[len(args)-1] = "0"
	if code := run(args, &all, &errw); code != 0 {
		t.Fatalf("run -top 0 = %d, stderr: %s", code, errw.String())
	}
	every := busyColumn(t, all.String())
	if len(top) != 2 || len(every) != 8 {
		t.Fatalf("listed %d and %d processors, want 2 and 8:\n%s", len(top), len(every), got)
	}
	if top[0] != slices.Max(every) {
		t.Errorf("first listed processor is busy %g s, the run's busiest %g s:\n%s", top[0], slices.Max(every), got)
	}
}

// busyColumn parses the busy= seconds of slrun's -perproc lines.
func busyColumn(t *testing.T, out string) []float64 {
	t.Helper()
	var busy []float64
	for _, line := range strings.Split(out, "\n") {
		_, rest, ok := strings.Cut(line, "busy=")
		if !ok {
			continue
		}
		field, _, _ := strings.Cut(strings.TrimSpace(rest), "s")
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			t.Fatalf("bad busy field in %q: %v", line, err)
		}
		busy = append(busy, v)
	}
	return busy
}

func TestRunStealingSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "stealing", "-procs", "8"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"steals (hit/tried)", "tokens passed"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunPrefetchSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "ondemand", "-procs", "8", "-prefetch", "neighbor"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"prefetch (hit/issued)", "I/O hidden", "I/O queue wait"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunInjectSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "ondemand", "-procs", "8", "-inject", "burst"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"active peak", "release stalls"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunBadInjectFlags(t *testing.T) {
	cases := [][]string{
		{"-inject", "sideways"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestRunUnsteadySingle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "ondemand", "-procs", "8", "-unsteady"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"pathlines", "space-time blocks", "epoch crossings"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFaultSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "stealing", "-procs", "8", "-faults", "kill"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"processors lost", "ring reforms", "master failovers", "sends to dead peers"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFaultStaticFails(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	// Static under a kill plan is the documented typed refusal; the CLI
	// must surface it as a failed run, not a partial result.
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "static", "-procs", "8", "-faults", "kill"}
	if code := run(args, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "cannot recover") {
		t.Errorf("failure output should name the unrecoverable loss:\n%s", out.String())
	}
}

func TestRunBadFaultFlags(t *testing.T) {
	cases := [][]string{
		{"-faults", "sideways"},
		// The kill scenario takes processor 0: one processor leaves none
		// to survive it, and the cell would run fault-free under a kill
		// label.
		{"-scale", "small", "-dataset", "thermal", "-alg", "ondemand", "-procs", "1", "-faults", "kill"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestRunBadTraceFlags(t *testing.T) {
	cases := [][]string{
		{"-sample-interval", "0.1"}, // interval without a timeline
		{"-timeline", "s.csv", "-sample-interval", "-1"},
		{"-timeline", "s.csv", "-sample-interval", "NaN"},
		{"-timeline", "s.csv", "-sample-interval", "+Inf"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestRunRefusesUnholdableTimeline: a -sample-interval whose sample
// count no series can hold is refused after the run, before the
// timeline file is created, with exit 1.
func TestRunRefusesUnholdableTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	csvPath := filepath.Join(t.TempDir(), "series.csv")
	args := []string{"-scale", "small", "-dataset", "astro", "-alg", "ondemand", "-procs", "4",
		"-timeline", csvPath, "-sample-interval", "1e-300"}
	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != 1 {
		t.Fatalf("run(%v) = %d, want 1; stderr: %s", args, code, errw.String())
	}
	if !strings.Contains(errw.String(), "samples") {
		t.Errorf("refusal does not say why: %q", errw.String())
	}
	if _, err := os.Stat(csvPath); !os.IsNotExist(err) {
		t.Errorf("refused timeline left a file behind: %v", err)
	}
}

// TestRunTraceAndTimeline smoke-tests -trace and -timeline end to end:
// the exported file must be valid Chrome trace-event JSON, every timeline
// is CSV with the documented columns (whatever the path's suffix), and a
// second -trace run of the same configuration must produce a
// byte-identical file — the CLI-level determinism guarantee.
func TestRunTraceAndTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	dir := t.TempDir()
	trace1 := filepath.Join(dir, "t1.json")
	trace2 := filepath.Join(dir, "t2.json")
	csvPath := filepath.Join(dir, "series.csv")
	jsonPath := filepath.Join(dir, "series.json")

	base := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse", "-alg", "ondemand", "-procs", "4"}
	for _, extra := range [][]string{
		{"-trace", trace1, "-timeline", csvPath},
		{"-trace", trace2, "-timeline", jsonPath, "-sample-interval", "0.001"},
	} {
		var out, errw bytes.Buffer
		if code := run(append(append([]string{}, base...), extra...), &out, &errw); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", extra, code, errw.String())
		}
		if !strings.Contains(out.String(), "trace events") || !strings.Contains(out.String(), "timeline samples") {
			t.Errorf("report does not mention the artifacts:\n%s", out.String())
		}
	}

	t1, err := os.ReadFile(trace1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := os.ReadFile(trace2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1, t2) {
		t.Error("two -trace runs of the same configuration differ byte for byte")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(t1, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace header unexpected: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph] = true
	}
	for _, ph := range []string{"M", "X", "i"} {
		if !phases[ph] {
			t.Errorf("trace has no %q events", ph)
		}
	}

	for _, path := range []string{csvPath, jsonPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "t,active,io_queue,resident_blocks,busy_mean,busy_max\n") {
			t.Errorf("timeline %s header unexpected:\n%.120s", filepath.Base(path), data)
		}
	}
}
