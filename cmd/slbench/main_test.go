package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-scale", "bogus"},
		{"-figure", "99"},
		{"-nosuchflag"},
		{"-csv", "-json"},
		{"-scale", "small", "-dataset", "bogus"},
		{"-scale", "small", "-figure", "5", "-dataset", "fusion"}, // selects no figure
		{"-fault-procs", "2"}, // slrun's flag, not slbench's
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

func TestRunCSVOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-scale", "small", "-figure", "9", "-dataset", "fusion", "-csv", "-j", "4"}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	if !strings.Contains(got, "# Figure 9") || !strings.Contains(got, "fusion/sparse/ondemand/8") {
		t.Errorf("CSV output unexpected:\n%s", got)
	}
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

// TestBenchArtifact validates every checked-in BENCH_*.json trajectory
// point: each default-scale campaign snapshot must parse under the
// current schema and cover every figure. The glob keeps the test honest
// as the trajectory grows — a new point is validated the moment it is
// checked in.
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
		if rep.Schema != benchSchema {
			t.Errorf("%s: schema = %q, want %q (regenerate with: go run ./cmd/slbench -json > %s)", name, rep.Schema, benchSchema, name)
		}
		if rep.Scale != "default" {
			t.Errorf("%s: scale = %q, want the default-scale campaign", name, rep.Scale)
		}
		if len(rep.Figures) != 12 {
			t.Errorf("%s: figures = %d, want 12 (Figures 5-16)", name, len(rep.Figures))
		}
		for _, f := range rep.Figures {
			if len(f.Rows) == 0 {
				t.Errorf("%s: figure %d has no rows", name, f.ID)
			}
			for _, row := range f.Rows {
				if (row.Summary == nil) == (row.Error == "") {
					t.Errorf("%s: figure %d row %q must carry exactly one of summary or error", name, f.ID, row.Label)
				}
				// The percentile block is additive: older trajectory
				// points legitimately lack it, but when present it must
				// be internally consistent.
				if p := row.Percentiles; p != nil {
					if p.Events <= 0 || p.Bytes != p.Events*40 {
						t.Errorf("%s: figure %d row %q percentile accounting off: %d events, %d bytes",
							name, f.ID, row.Label, p.Events, p.Bytes)
					}
					if row.Summary != nil && (p.Steps.Count <= 0 || p.Steps.Min > p.Steps.Max) {
						t.Errorf("%s: figure %d row %q steps digest malformed: %+v", name, f.ID, row.Label, p.Steps)
					}
				}
			}
		}
		if rep.Host.ElapsedSeconds <= 0 {
			t.Errorf("%s: host block has no elapsed time (the throughput smoke needs it)", name)
		}
		// The tape ledger is additive too: points from before the segment
		// tape lack it; where present it must show the campaign taped —
		// and replayed no more than its rows delivered (summed over all
		// twelve figures, which lists every cell four times: a loose
		// bound, but one a ledger counting the wrong thing would pass).
		if tp := rep.Host.Tape; tp != nil {
			var steps int64
			for _, f := range rep.Figures {
				for _, row := range f.Rows {
					if row.Summary != nil {
						steps += row.Summary.Steps
					}
				}
			}
			if tp.Recordings <= 0 || tp.Lines <= 0 || tp.BytesPeak <= 0 || tp.StepsIntegrated <= 0 {
				t.Errorf("%s: tape ledger shows no recording: %+v", name, *tp)
			}
			if tp.StepsReplayed <= 0 || tp.StepsReplayed > steps {
				t.Errorf("%s: tape ledger replayed %d steps, the rows delivered %d", name, tp.StepsReplayed, steps)
			}
		}
	}
}

// TestRunCompareTrajectory exercises the -compare gate end to end: a
// healthy trajectory passes silently, an artificially fast one trips the
// warn-only throughput smoke, and schema drift or a missing file fails
// the run outright.
func TestRunCompareTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	var base, errw bytes.Buffer
	if code := run([]string{"-scale", "small", "-figure", "5", "-json", "-j", "4"}, &base, &errw); code != 0 {
		t.Fatalf("baseline run = %d, stderr: %s", code, errw.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(base.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeRep := func(name string, r jsonReport) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// A slow baseline (100x the elapsed time → 1% of the throughput)
	// cannot trip the smoke: exit 0, no warning.
	slow := rep
	slow.Host.ElapsedSeconds *= 100
	var out bytes.Buffer
	errw.Reset()
	if code := run([]string{"-scale", "small", "-figure", "5", "-compare", writeRep("slow.json", slow)}, &out, &errw); code != 0 {
		t.Fatalf("compare vs slow baseline = %d, stderr: %s", code, errw.String())
	}
	if strings.Contains(errw.String(), "WARNING") {
		t.Errorf("slow baseline should not warn:\n%s", errw.String())
	}

	// An impossibly fast baseline must trip the warn-only smoke while
	// still exiting 0.
	fast := rep
	fast.Host.ElapsedSeconds /= 1e6
	out.Reset()
	errw.Reset()
	if code := run([]string{"-scale", "small", "-figure", "5", "-compare", writeRep("fast.json", fast)}, &out, &errw); code != 0 {
		t.Fatalf("compare vs fast baseline = %d (smoke must be warn-only), stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "WARNING") {
		t.Errorf("fast baseline should warn about the throughput drop:\n%s", errw.String())
	}

	// Cross-scale comparison (the CI shape: small run vs the default-
	// scale trajectory) must not warn on the inherent steps/s gap…
	cross := rep
	cross.Scale = "default"
	out.Reset()
	errw.Reset()
	if code := run([]string{"-scale", "small", "-figure", "5", "-compare", writeRep("cross.json", cross)}, &out, &errw); code != 0 {
		t.Fatalf("cross-scale compare = %d, stderr: %s", code, errw.String())
	}
	if strings.Contains(errw.String(), "WARNING") {
		t.Errorf("cross-scale compare at equal throughput should not warn:\n%s", errw.String())
	}

	// …but an order-of-magnitude collapse still trips the sanity bound.
	crossFast := rep
	crossFast.Scale = "default"
	crossFast.Host.ElapsedSeconds /= 1e6
	out.Reset()
	errw.Reset()
	if code := run([]string{"-scale", "small", "-figure", "5", "-compare", writeRep("crossfast.json", crossFast)}, &out, &errw); code != 0 {
		t.Fatalf("cross-scale fast compare = %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "WARNING") {
		t.Errorf("cross-scale order-of-magnitude collapse should warn:\n%s", errw.String())
	}

	// Schema drift is a hard failure.
	drift := rep
	drift.Schema = "slbench/v0"
	out.Reset()
	errw.Reset()
	if code := run([]string{"-scale", "small", "-figure", "5", "-compare", writeRep("drift.json", drift)}, &out, &errw); code != 1 {
		t.Errorf("compare vs drifted schema = %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "schema drift") {
		t.Errorf("stderr should name the drift:\n%s", errw.String())
	}

	// So is a missing trajectory file.
	out.Reset()
	errw.Reset()
	if code := run([]string{"-scale", "small", "-figure", "5", "-compare", filepath.Join(dir, "absent.json")}, &out, &errw); code != 1 {
		t.Errorf("compare vs missing file = %d, want 1", code)
	}

	// An all-error baseline (every cell failed when the trajectory was
	// recorded) anchors no throughput — hard failure, not a division by
	// its zero step count.
	hollow := rep
	hollow.Figures = []jsonFigure{{ID: 5, Title: "t", Rows: []jsonRow{{Label: "x", Error: "oom"}}}}
	out.Reset()
	errw.Reset()
	if code := run([]string{"-scale", "small", "-figure", "5", "-compare", writeRep("hollow.json", hollow)}, &out, &errw); code != 1 {
		t.Errorf("compare vs all-error baseline = %d, want 1; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "no successful rows") {
		t.Errorf("stderr should name the hollow baseline:\n%s", errw.String())
	}
}

// TestCompareTrajectoryGuards pins the denominator guards directly (no
// campaign run needed): baselines with zero, negative, denormal or
// missing elapsed time and baselines with no successful rows are hard
// errors, and an empty current selection is silently skipped — never an
// Inf-producing division.
func TestCompareTrajectoryGuards(t *testing.T) {
	c := experiments.NewCampaign(experiments.SmallScale())
	dir := t.TempDir()
	write := func(name string, r jsonReport) string {
		t.Helper()
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	healthy := jsonReport{
		Schema: benchSchema,
		Scale:  "small",
		Figures: []jsonFigure{{ID: 5, Title: "t", Rows: []jsonRow{
			{Label: "x", Summary: &metrics.Summary{Steps: 1000}},
		}}},
		Host: jsonHost{ElapsedSeconds: 1},
	}
	var errw bytes.Buffer

	// A healthy baseline against an empty current selection: nothing to
	// smoke, no error, no warning.
	if err := compareTrajectory(&errw, c, "small", nil, write("ok.json", healthy), time.Second); err != nil {
		t.Fatalf("empty selection: %v", err)
	}
	// Same with a zero current elapsed — the other denominator.
	if err := compareTrajectory(&errw, c, "small", nil, write("ok2.json", healthy), 0); err != nil {
		t.Fatalf("zero current elapsed: %v", err)
	}
	if errw.Len() != 0 {
		t.Fatalf("guards should be silent, got: %s", errw.String())
	}

	for name, mutate := range map[string]func(*jsonReport){
		"zero elapsed":     func(r *jsonReport) { r.Host.ElapsedSeconds = 0 },
		"negative elapsed": func(r *jsonReport) { r.Host.ElapsedSeconds = -3 },
		"denormal elapsed": func(r *jsonReport) { r.Host.ElapsedSeconds = 1e-310 },
		"all-error rows": func(r *jsonReport) {
			r.Figures = []jsonFigure{{ID: 5, Title: "t", Rows: []jsonRow{{Label: "x", Error: "oom"}}}}
		},
	} {
		bad := healthy
		mutate(&bad)
		err := compareTrajectory(&errw, c, "small", nil, write("bad.json", bad), time.Second)
		if err == nil {
			t.Errorf("%s: compareTrajectory accepted the baseline", name)
		}
	}
}

func TestRunBadTimeSlices(t *testing.T) {
	cases := [][]string{
		{"-unsteady", "-tslices", "1"}, // too few slices
		{"-tslices", "9"},              // no unsteady cells to shape
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
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
		{"-prefetch", "neighbor", "-prefetch-depth", "-1"},
		{"-prefetch-depth", "2"}, // no prefetch cells to shape
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
	args := []string{"-scale", "small", "-figure", "5", "-inject", "burst", "-inject-waves", "2"}
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
		{"-inject", "burst", "-inject-waves", "-2"},
		{"-inject-waves", "4"},            // no burst cells to shape
		{"-shapes", "-inject-waves", "4"}, // the shape checks have no burst cells either
		{"-inject", "stagger", "-inject-waves", "4"},
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
