package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-scale", "bogus"},
		{"-figure", "99"},
		{"-nosuchflag"},
		{"-csv"}, // -json is the one machine-readable output
		{"-scale", "small", "-dataset", "bogus"},
		{"-scale", "small", "-figure", "5", "-dataset", "fusion"}, // selects no figure
		{"-scale", "small", "-figure", "5", "-j", "-1"},
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
	if !strings.Contains(errw.String(), "-scale") {
		t.Errorf("usage text missing from -h output:\n%s", errw.String())
	}
}

func TestRunSingleFigureSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-scale", "small", "-figure", "5", "-j", "4"}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"Figure 5", "astro/sparse/static/8", "astro/dense/hybrid/32"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunREADMESample: the table README.md shows under its slbench
// command is that command's output, byte for byte (the blank line that
// ends each figure aside).
func TestRunREADMESample(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	want := readmeOutput(t, "go run ./cmd/slbench -scale small -figure 8")
	var out, errw bytes.Buffer
	if code := run([]string{"-scale", "small", "-figure", "8"}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	if out.String() != want+"\n" {
		t.Errorf("README.md shows:\n%s\nslbench prints:\n%s", want, out.String())
	}
}

// readmeOutput returns the ```text block README.md shows under the ```sh
// block that runs cmd.
func readmeOutput(t *testing.T, cmd string) string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(readme), "```sh\n"+cmd+"\n```\n\n```text\n")
	block, _, closed := strings.Cut(rest, "```\n")
	if !found || !closed {
		t.Fatalf("README.md shows no output under %q", cmd)
	}
	return block
}

// TestRunParallelMatchesSerialOutput is the acceptance check at the CLI
// layer: -j 8 must emit tables byte-identical to -j 1.
func TestRunParallelMatchesSerialOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	var serial, parallel, errw bytes.Buffer
	if code := run([]string{"-scale", "small", "-figure", "7", "-j", "1"}, &serial, &errw); code != 0 {
		t.Fatalf("serial run = %d, stderr: %s", code, errw.String())
	}
	if code := run([]string{"-scale", "small", "-figure", "7", "-j", "8"}, &parallel, &errw); code != 0 {
		t.Fatalf("parallel run = %d, stderr: %s", code, errw.String())
	}
	if serial.String() != parallel.String() {
		t.Errorf("-j 8 output differs from -j 1:\n--- j=1 ---\n%s\n--- j=8 ---\n%s",
			serial.String(), parallel.String())
	}
}

func TestRunUnsteadyFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-figure", "6", "-unsteady"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "u:astro/sparse/ondemand/8") {
		t.Errorf("unsteady figure table missing pathline rows:\n%s", out.String())
	}
}

// TestRunJSONOutput exercises the -json emitter on one small figure and
// validates the report's shape.
func TestRunJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-scale", "small", "-figure", "5", "-json", "-j", "4"}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Schema != benchSchema || rep.Scale != "small" {
		t.Errorf("header = %q/%q", rep.Schema, rep.Scale)
	}
	if len(rep.Figures) != 1 || rep.Figures[0].ID != 5 {
		t.Fatalf("figures = %+v, want just Figure 5", rep.Figures)
	}
	if len(rep.Figures[0].Rows) == 0 {
		t.Fatal("figure has no rows")
	}
	for _, row := range rep.Figures[0].Rows {
		if (row.Summary == nil) == (row.Error == "") {
			t.Errorf("row %q must carry exactly one of summary or error", row.Label)
		}
		if row.Summary != nil && row.Summary.WallClock <= 0 {
			t.Errorf("row %q has non-positive wall clock", row.Label)
		}
		// -json campaigns observe every cell: the percentile block must
		// be present and internally consistent on successful rows.
		if row.Summary != nil {
			p := row.Percentiles
			if p == nil {
				t.Errorf("row %q has no percentile block", row.Label)
				continue
			}
			if p.Events <= 0 || p.Bytes != p.Events*40 {
				t.Errorf("row %q percentile accounting off: %d events, %d bytes", row.Label, p.Events, p.Bytes)
			}
			if p.Steps.Count <= 0 || p.Steps.P50 > p.Steps.P99 {
				t.Errorf("row %q steps digest malformed: %+v", row.Label, p.Steps)
			}
		}
	}
	// Figure 5 is 24 cells of two problems: each problem is integrated
	// once, into its tape, and all twelve of its cells replay it.
	if tp := rep.Host.Tape; tp == nil || tp.Recordings != 2 || tp.Lines <= 0 || tp.BytesPeak <= 0 ||
		tp.StepsIntegrated <= 0 || tp.StepsReplayed != 12*tp.StepsIntegrated {
		t.Errorf("tape ledger missing or implausible: %+v", tp)
	}
	if rep.Host.ElapsedSeconds <= 0 || rep.Host.GoVersion == "" {
		t.Errorf("host block incomplete: %+v", rep.Host)
	}
}

// TestRunShapesJSON checks the -shapes block of the -json report: every
// claim decodes with a finite got, bound and margin whose sign agrees with
// its verdict, and the exit status is 1 exactly when a claim fails. Which
// claims hold, and by how much, is pinned in one place: TestClaims and
// its internal/experiments/testdata/claims.txt.
func TestRunShapesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	var out, errw bytes.Buffer
	code := run([]string{"-scale", "small", "-figure", "5", "-shapes", "-json", "-j", "4"}, &out, &errw)
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v (exit %d, stderr: %s)", err, code, errw.String())
	}
	if len(rep.Shapes) != 35 {
		t.Errorf("shape_checks has %d entries, want 35", len(rep.Shapes))
	}
	failed := false
	for _, s := range rep.Shapes {
		for _, v := range []float64{s.Got, s.Bound, s.Margin} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: got=%v bound=%v margin=%v, want finite", s.Claim, s.Got, s.Bound, s.Margin)
			}
		}
		holds := s.Margin >= 0
		if strings.Contains(s.Detail, " < ") || strings.Contains(s.Detail, " > ") {
			holds = s.Margin > 0
		}
		if s.OK != holds {
			t.Errorf("%s: ok=%v disagrees with margin %+.3g (%s)", s.Claim, s.OK, s.Margin, s.Detail)
		}
		failed = failed || !s.OK
	}
	want := 0
	if failed {
		want = 1
	}
	if code != want {
		t.Errorf("run = %d, want %d (a claim failed: %v), stderr: %s", code, want, failed, errw.String())
	}
}

// TestBenchArtifact validates every checked-in BENCH_*.json trajectory
// point: each default-scale campaign snapshot must parse under the
// current schema, cover every figure and carry at least one successful
// row. The glob keeps the test honest as the trajectory grows — a new
// point is validated the moment it is checked in. A hand-made point
// whose every row failed must be rejected.
func TestBenchArtifact(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json trajectory points found at the repo root")
	}
	for _, path := range paths {
		name := filepath.Base(path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		var rep jsonReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s is not valid JSON: %v", name, err)
		}
		for _, problem := range benchPointProblems(rep) {
			t.Errorf("%s: %s", name, problem)
		}
	}

	hollow := jsonReport{Schema: benchSchema, Scale: "default", Host: jsonHost{ElapsedSeconds: 1}}
	for id := 5; id <= 16; id++ {
		hollow.Figures = append(hollow.Figures, jsonFigure{ID: id, Rows: []jsonRow{{Label: "x", Error: "oom"}}})
	}
	problems := benchPointProblems(hollow)
	if len(problems) != 1 || !strings.Contains(problems[0], "no successful row") {
		t.Errorf("an all-error trajectory point gave %q, want one no-successful-row problem", problems)
	}
}

// benchPointProblems lists what is wrong with one trajectory point.
func benchPointProblems(rep jsonReport) []string {
	var problems []string
	report := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if rep.Schema != benchSchema {
		report("schema = %q, want %q (regenerate with: go run ./cmd/slbench -json > BENCH_NNN.json)", rep.Schema, benchSchema)
	}
	if rep.Scale != "default" {
		report("scale = %q, want the default-scale campaign", rep.Scale)
	}
	if len(rep.Figures) != 12 {
		report("figures = %d, want 12 (Figures 5-16)", len(rep.Figures))
	}
	var steps int64
	succeeded := 0
	for _, f := range rep.Figures {
		if len(f.Rows) == 0 {
			report("figure %d has no rows", f.ID)
		}
		for _, row := range f.Rows {
			if (row.Summary == nil) == (row.Error == "") {
				report("figure %d row %q must carry exactly one of summary or error", f.ID, row.Label)
			}
			if row.Summary != nil {
				succeeded++
				steps += row.Summary.Steps
			}
			// The percentile block is additive: older trajectory
			// points legitimately lack it, but when present it must
			// be internally consistent.
			if p := row.Percentiles; p != nil {
				if p.Events <= 0 || p.Bytes != p.Events*40 {
					report("figure %d row %q percentile accounting off: %d events, %d bytes",
						f.ID, row.Label, p.Events, p.Bytes)
				}
				if row.Summary != nil && (p.Steps.Count <= 0 || p.Steps.Min > p.Steps.Max) {
					report("figure %d row %q steps digest malformed: %+v", f.ID, row.Label, p.Steps)
				}
			}
		}
	}
	if succeeded == 0 {
		report("no successful row: a point whose every cell failed records no campaign")
	}
	if rep.Host.ElapsedSeconds <= 0 {
		report("host block has no elapsed time: a trajectory point records how long its campaign ran")
	}
	// The tape ledger is additive too: points from before the segment
	// tape lack it; where present it must show the campaign taped —
	// and replayed no more than its rows delivered (summed over all
	// twelve figures, which lists every cell four times: a loose
	// bound, but one a ledger counting the wrong thing would pass).
	if tp := rep.Host.Tape; tp != nil {
		if tp.Recordings <= 0 || tp.Lines <= 0 || tp.BytesPeak <= 0 || tp.StepsIntegrated <= 0 {
			report("tape ledger shows no recording: %+v", *tp)
		}
		if tp.StepsReplayed <= 0 || tp.StepsReplayed > steps {
			report("tape ledger replayed %d steps, the rows delivered %d", tp.StepsReplayed, steps)
		}
	}
	return problems
}

func TestRunPrefetchFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-figure", "6", "-prefetch", "neighbor"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"astro/sparse/ondemand/8+pf:neighbor", "hidden", "prefetch"} {
		if !strings.Contains(got, want) {
			t.Errorf("prefetch figure table missing %q:\n%s", want, got)
		}
	}
}

func TestRunBadPrefetchFlags(t *testing.T) {
	cases := [][]string{
		{"-prefetch", "sideways"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestRunInjectFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-figure", "5", "-inject", "burst"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"astro/sparse/ondemand/8+i:burst", "apeak", "rstalls"} {
		if !strings.Contains(got, want) {
			t.Errorf("injection figure table missing %q:\n%s", want, got)
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

func TestRunFaultFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-figure", "5", "-faults", "kill"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"astro/sparse/ondemand/8+f:kill", "lost", "adopted", "failovers"} {
		if !strings.Contains(got, want) {
			t.Errorf("fault figure table missing %q:\n%s", want, got)
		}
	}
}

func TestRunBadFaultFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-faults", "sideways"}, &out, &errw); code != 2 {
		t.Errorf("run(-faults sideways) = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "unknown fault mode") {
		t.Errorf("stderr should name the unknown mode: %s", errw.String())
	}
}

// TestRunProfiles smoke-tests the -cpuprofile/-memprofile flags: the
// campaign must run to completion and leave non-empty gzip-compressed
// pprof files behind. (The profile contents are host-dependent — CPU
// samples may even be empty on a fast run — so only the container
// format is asserted, not the samples or their labels.)
func TestRunProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errw bytes.Buffer
	args := []string{"-scale", "small", "-figure", "5", "-j", "4", "-cpuprofile", cpu, "-memprofile", mem}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s is not a gzip-compressed pprof profile (%d bytes)", filepath.Base(path), len(data))
		}
	}
}
