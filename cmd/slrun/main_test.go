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

	"repro/internal/core"
	"repro/internal/experiments"
)

func TestParseProcs(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"64", []int{64}, true},
		{"8,16,32", []int{8, 16, 32}, true},
		{" 8 , 16 ", []int{8, 16}, true},
		{"", nil, false},
		{"8,zero", nil, false},
		{"-4", nil, false},
	}
	k := experiments.Key{Dataset: experiments.Astro, Seeding: experiments.Sparse, Alg: core.HybridMS}
	for _, tc := range cases {
		got, err := parseProcs(tc.in, k)
		if tc.ok != (err == nil) {
			t.Errorf("parseProcs(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseProcs(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if k.Procs = tc.want[i]; got[i] != k {
				t.Errorf("parseProcs(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-scale", "bogus"},
		{"-procs", "0"},
		{"-procs", "8,oops"},
		// Over the processor bound: a usage error, not an out-of-memory
		// crash.
		{"-procs", "200000000"},
		{"-procs", "8,200000000"},
		{"-nosuchflag"},
		// Bad experiment names are usage errors on the single-run AND
		// sweep paths, never per-cell simulation failures.
		{"-dataset", "bogus"},
		{"-dataset", "bogus", "-procs", "8,16"},
		{"-seeding", "bogus", "-procs", "8,16"},
		{"-alg", "bogus"},
		{"-alg", "bogus", "-procs", "8,16"},
		{"-alg", "stealing", "-steal-victim", "bogus"},
		{"-alg", "stealing", "-steal-batch", "-5"},
		{"-alg", "stealing", "-steal-fanout", "-1"},
		// Steal flags are meaningless for the other algorithms; reject
		// rather than silently ignore.
		{"-alg", "hybrid", "-steal-batch", "16"},
		{"-prefetch", "sideways"},
		{"-prefetch", "neighbor", "-prefetch-depth", "-2"},
		// Depth without a policy would be silently ignored; reject.
		{"-prefetch-depth", "3"},
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

func TestRunStealingWithFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "stealing", "-procs", "8", "-steal-batch", "4", "-steal-fanout", "2",
		"-steal-victim", "roundrobin"}
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
		"-alg", "ondemand", "-procs", "8", "-prefetch", "neighbor", "-prefetch-depth", "2"}
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

func TestRunPrefetchSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "ondemand", "-procs", "8,16", "-prefetch", "temporal", "-unsteady"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"u:astro/sparse/ondemand/8+pf:temporal", "hidden", "prefetch"} {
		if !strings.Contains(got, want) {
			t.Errorf("sweep output missing %q:\n%s", want, got)
		}
	}
}

func TestRunInjectSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "ondemand", "-procs", "8", "-inject", "burst", "-inject-waves", "3"}
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

func TestRunInjectSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "stealing", "-procs", "8,16", "-inject", "stagger"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"astro/sparse/stealing/8+i:stagger", "apeak", "rstalls"} {
		if !strings.Contains(got, want) {
			t.Errorf("sweep output missing %q:\n%s", want, got)
		}
	}
}

func TestRunBadInjectFlags(t *testing.T) {
	cases := [][]string{
		{"-inject", "sideways"},
		{"-inject", "burst", "-inject-waves", "-1"},
		{"-inject", "stagger", "-inject-waves", "4"}, // waves shape burst only
		{"-inject-waves", "4"},                       // no burst cells to shape
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestRunSweepFailureExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	// The dense-thermal static OOM fails at every processor count (the
	// geometry concentrates on one processor regardless); the sweep must
	// report it with a non-zero exit, like the single-run path does.
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "thermal", "-seeding", "dense",
		"-alg", "static", "-procs", "8,32", "-j", "2"}
	if code := run(args, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "OOM") {
		t.Errorf("sweep table should mark the OOM rows:\n%s", out.String())
	}
}

func TestRunSweepSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "fusion", "-seeding", "sparse",
		"-alg", "hybrid", "-procs", "8,16", "-j", "2"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"fusion/sparse/hybrid/8", "fusion/sparse/hybrid/16", "wall"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunUnsteadyFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-tslices", "4"},              // -tslices without -unsteady
		{"-unsteady", "-tslices", "1"}, // too few slices
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

func TestRunUnsteadySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "stealing", "-procs", "8,16", "-unsteady", "-tslices", "3", "-j", "2"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"u:astro/sparse/stealing/8", "u:astro/sparse/stealing/16", "epochs"} {
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

func TestRunFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-dataset", "astro", "-seeding", "sparse",
		"-alg", "hybrid", "-procs", "8,16", "-faults", "kill", "-fault-procs", "2", "-j", "2"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"astro/sparse/hybrid/8+f:kill", "astro/sparse/hybrid/16+f:kill",
		"lost", "adopted", "failovers"} {
		if !strings.Contains(got, want) {
			t.Errorf("sweep output missing %q:\n%s", want, got)
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
		{"-fault-time", "1"},                      // override without a scenario
		{"-fault-procs", "2"},                     // override without a scenario
		{"-faults", "kill", "-fault-time", "-1"},  // negative instant
		{"-faults", "kill", "-fault-procs", "-2"}, // negative victim count
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
		{"-trace", "out.json", "-procs", "8,16"},   // trace describes one run
		{"-timeline", "out.csv", "-procs", "8,16"}, // so does the timeline
		{"-sample-interval", "0.1"},                // interval without a timeline
		{"-timeline", "s.csv", "-sample-interval", "-1"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestRunTraceAndTimeline smoke-tests -trace and -timeline end to end:
// the exported file must be valid Chrome trace-event JSON, the CSV and
// JSON timelines must carry the documented columns, and a second -trace
// run of the same configuration must produce a byte-identical file —
// the CLI-level determinism guarantee.
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

	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvData), "t,active,io_queue,resident_blocks,busy_mean,busy_max\n") {
		t.Errorf("timeline CSV header unexpected:\n%.120s", csvData)
	}
	jsonData, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var samples []map[string]any
	if err := json.Unmarshal(jsonData, &samples); err != nil {
		t.Fatalf(".json timeline is not valid JSON: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal(".json timeline is empty")
	}
	for _, key := range []string{"t", "active", "io_queue", "resident_blocks", "busy_mean", "busy_max"} {
		if _, ok := samples[0][key]; !ok {
			t.Errorf(".json timeline sample missing %q: %v", key, samples[0])
		}
	}
}
