package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarations holds BENCHMARK.json and metrics.go to each other and
// to the limits of the benchmark contract.
func TestDeclarations(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads = %v, the program runs %v", names, workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, decl []declared, table []metricDef, limit int) {
		if len(decl) < 1 || len(decl) > limit {
			t.Errorf("%d %s metrics, limit %d", len(decl), kind, limit)
		}
		if len(decl) != len(table) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, metrics.go %d", len(decl), kind, len(table))
		}
		for i, d := range decl {
			m := table[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, d, m)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %q (%q): bad or repeated name or unit", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if d.Bound < 0 || d.Bound > 0.25 {
				t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, 16)
	check("per_layer", b.PerLayer, perLayer, 128)
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
	// setup_s is measured once per run and carries the largest bound.
	for _, m := range endToEnd {
		if m.bound > endToEnd[0].bound {
			t.Errorf("%s has a larger bound than setup_s", m.name)
		}
	}
}

// smoke is the shrunken size every workload runs at here: every sixth
// cell of each op set, 2000 requests per hit round, one timed round.
func smoke(t *testing.T, workload string, trace bool) config {
	var log bytes.Buffer
	t.Cleanup(func() {
		if t.Failed() {
			t.Log(log.String())
		}
	})
	return config{
		workload: workload, seed: 7, seconds: 1, rounds: 1, trace: trace,
		sizes: sizes{stride: 6, hitRequests: 2000}, scratch: t.TempDir(), log: &log,
	}
}

// checkOutput asserts that a run emitted exactly the declared metrics,
// each with its declared unit and a finite value: positive for an
// end-to-end metric (the contract forbids a zero there), not negative
// for a per-layer one (a count such as serve.rejected is rightly zero),
// unless it is a difference of two timings, which one noisy repeat can
// push below zero.
func checkOutput(t *testing.T, out *output, table []metricDef, positive bool) {
	t.Helper()
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("correct %v, attempted %d, failed %d", out.Correct, out.Attempted, out.Failed)
	}
	if len(out.Metrics) != len(table) {
		t.Errorf("emitted %d metrics, declared %d", len(out.Metrics), len(table))
	}
	difference := regexp.MustCompile(`^(bench\.trace_overhead_frac|serve\.(cold|hit)_overhead_|core\.nonintegrate_frac\.)`)
	for _, m := range table {
		v, ok := out.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", m.name)
		case v.Unit != m.unit:
			t.Errorf("%s: unit %q, declared %q", m.name, v.Unit, m.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s = %v", m.name, v.Value)
		case positive && v.Value <= 0, !positive && v.Value < 0 && !difference.MatchString(m.name):
			t.Errorf("%s = %v", m.name, v.Value)
		}
	}
}

func TestUntracedRun(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			out, err := runUntraced(smoke(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkOutput(t, out, endToEnd, true)
		})
	}
}

func TestTracedRun(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := smoke(t, w, true)
			cfg.spans = filepath.Join(cfg.scratch, "kept-spans.json")
			out, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkOutput(t, out, perLayer, false)
			if got := out.Metrics["integrate.evals_per_step"].Value; got < 6 || got > 6.1 {
				t.Errorf("integrate.evals_per_step = %v, want 6 (FSAL) plus a few rejections", got)
			}
			data, err := os.ReadFile(cfg.spans)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			children := 0
			for _, s := range spans {
				if s.End < s.Start || s.Op == "" || s.Parent >= s.ID {
					t.Fatalf("bad span %+v", s)
				}
				if s.Parent > 0 {
					children++
				}
			}
			if children == 0 {
				t.Error("no staged spans under a replay root")
			}
		})
	}
}

// TestSeedPermutesOnly pins the seed contract: another seed is another
// order of the same multiset of ops.
func TestSeedPermutesOnly(t *testing.T) {
	w, err := buildWorkload("serve_disk", sizes{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.ops) != 120 || w.perRound != hitRequests {
		t.Fatalf("serve_disk: %d cells, %d requests per round", len(w.ops), w.perRound)
	}
	a, b := w.sequence(1), w.sequence(2)
	if slices.Equal(a, b) {
		t.Error("seeds 1 and 2 give the same order")
	}
	if !slices.Equal(w.sequence(1), a) {
		t.Error("seed 1 gives two orders")
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Error("seeds 1 and 2 give different multisets of ops")
	}
	cold, err := buildWorkload("serve_cold", sizes{})
	if err != nil {
		t.Fatal(err)
	}
	problems := map[string]bool{}
	for _, o := range cold.ops {
		k := o.key
		k.Alg, k.Procs, k.Prefetch, k.Faults = "", 0, "", ""
		problems[string(k.CanonicalJSON())] = true
	}
	if len(problems) != len(cold.ops) || len(cold.ops) != 48 {
		t.Errorf("serve_cold: %d cells over %d distinct problems, want 48 over 48", len(cold.ops), len(problems))
	}
}

// TestVerifierCatches feeds the verifier wrong answers: a summary that
// differs from the reference, an answer from the wrong tier, a refusal.
func TestVerifierCatches(t *testing.T) {
	w, err := buildWorkload("serve_disk", sizes{stride: 40})
	if err != nil {
		t.Fatal(err)
	}
	v, err := newVerifier(w, false)
	if err != nil {
		t.Fatal(err)
	}
	o := &w.ops[0]
	good := result{status: 200, source: "disk", summary: []byte(`{"NumProcs":8}`)}
	if got := v.check(o, &good); got != failMismatch {
		t.Errorf("forged summary: %q, want %q", got, failMismatch)
	}
	wrongTier := result{status: 200, source: "memory"}
	if got := v.check(o, &wrongTier); got != failSource {
		t.Errorf("wrong tier: %q, want %q", got, failSource)
	}
	if got := v.check(o, &result{status: 429}); got != failRejected {
		t.Errorf("429: %q, want %q", got, failRejected)
	}
	if got := v.check(o, &result{status: 500, body: []byte("boom")}); got != failStatus {
		t.Errorf("500: %q, want %q", got, failStatus)
	}
	if v.failed() != 4 || v.attempted.Load() != 4 {
		t.Errorf("failed %d of %d, want 4 of 4", v.failed(), v.attempted.Load())
	}
}

func TestTimingFromMinima(t *testing.T) {
	ms := time.Millisecond
	// Two rounds of three cells; each cell's quiet latency appears once.
	lats := [][]time.Duration{{10 * ms, 35 * ms, 20 * ms}, {16 * ms, 30 * ms, 26 * ms}}
	got := cleanestOps(lats)
	// Two clients over 10, 30, 20: one runs 10 then 20, the other 30.
	if got.wall != 30*ms || got.p50 != 20*ms {
		t.Errorf("cleanestOps = %+v", got)
	}
	w := &workload{tailPct: 90}
	if tail := w.opTail(lats); tail != 30*ms {
		t.Errorf("opTail = %v", tail)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25]
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{{"-trace", "2"}, {"-seconds", "0"}, {"stray"}, {"-nosuchflag"}} {
		if code := realMain(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if code := realMain([]string{"-workload", "nope", "-rounds", "1"}, &out, &errOut); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
	if out.Len() != 0 {
		t.Errorf("a failed run printed a result: %s", out.String())
	}
}
