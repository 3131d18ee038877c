package experiments

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// updateGoldens rewrites testdata/goldens.txt and testdata/summaries.txt
// from the current build:
//
//	go test ./internal/experiments -run TestGoldenDigests -update
//
// Only do this after deliberately changing the numerics (integrator,
// fields, seeding) or the timing model (a cost, a message, a scheduling
// decision); a scheduler or algorithm change must NOT move the geometry
// digests, and a refactor must not move either file — those are the
// regressions this test exists to catch.
var updateGoldens = flag.Bool("update", false, "rewrite the golden geometry and summary digests")

// summaryDigest is what testdata/summaries.txt records for one run: the
// SHA-256 of its canonical summary/v1 encoding, or the error text when
// the run fails by design (static allocation under a kill plan). File
// lines are space-separated, so the error text is joined with '_'.
func summaryDigest(t *testing.T, s metrics.Summary, err error) string {
	t.Helper()
	if err != nil {
		return "error:" + strings.ReplaceAll(err.Error(), " ", "_")
	}
	enc, encErr := s.CanonicalJSON()
	if encErr != nil {
		t.Fatal(encErr)
	}
	return fmt.Sprintf("%x", sha256.Sum256(enc))
}

// goldenScale is a trimmed configuration so the 144 runs (3 datasets ×
// {steady, unsteady} × 4 algorithms × (prefetch {off, both} × injection
// {t0, stagger} + one faulted run + one traced run)) stay test-suite
// fast while still crossing blocks, epochs and processor boundaries.
func goldenScale() Scale {
	sc := SmallScale()
	sc.AstroSeeds = 50
	sc.FusionSeeds = 40
	sc.ThermalSparseGrid = 3
	sc.MaxSteps = 250
	// The trimmed cells finish in a few hundredths of a virtual second;
	// kill early enough that the loss lands mid-run in every one.
	sc.FaultTime = 0.005
	return sc
}

// TestGoldenDigests pins the streamline/pathline geometry of every
// (dataset × workload) cell to a checked-in SHA-256 digest, and asserts
// all four algorithms — each with prefetching fully off and fully on,
// each with seeds released all at t0 and staggered across the injection
// window — produce that exact digest. Scheduler edits, steal-policy
// tweaks, master-rule changes, prefetch reordering or injection-schedule
// changes can therefore never silently change results: any numerics
// drift fails here first. (Injection reshapes timing and load balance,
// never the geometry of a particle's path after release — which is why
// the staggered runs share the t0 goldens rather than having their own.)
// Fault recovery (DESIGN.md §11) is held to the same standard: losing a
// processor mid-run must leave every recoverable algorithm's geometry
// on the unchanged goldens, because adopted streamlines restart from
// their seeds through the same deterministic integrator.
//
// The digests are computed over exact IEEE-754 bits (trace.
// CanonicalDigest). Go's floating-point evaluation of this code is
// deterministic for a given architecture family; the goldens are
// generated on linux/amd64 (the CI platform). If a toolchain change
// legitimately moves them, regenerate with -update and say so in the
// commit.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("144 simulations too slow for -short")
	}
	sc := goldenScale()
	procs := 8

	got := map[string]string{}
	// sums pins the timing model the same way got pins the numerics: one
	// summary digest per run this test executes anyway, keyed
	// <dataset>/<workload>/<alg>/<variant>.
	sums := map[string]string{}
	for _, ds := range datasets() {
		for _, unsteady := range []bool{false, true} {
			workload := "steady"
			if unsteady {
				workload = "unsteady"
			}
			key := fmt.Sprintf("%s/%s", ds, workload)

			probs := map[Injection]core.Problem{}
			for _, inj := range []Injection{InjectT0, InjectStagger} {
				prob, err := BuildInjectedProblem(ds, Sparse, sc, unsteady, inj)
				if err != nil {
					t.Fatalf("%s/%s: %v", key, inj, err)
				}
				probs[inj] = prob
			}

			ref := ""
			refAlg := ""
			for _, alg := range core.Algorithms() {
				// Prefetching overlaps I/O with compute and reorders
				// work; staggered injection delays when work exists at
				// all. Neither may move a digest, so every algorithm is
				// pinned across the full prefetch × injection cross.
				for _, pf := range []prefetch.Policy{prefetch.Off, prefetch.Both} {
					for _, inj := range []Injection{InjectT0, InjectStagger} {
						cfg := KeyMachineConfig(Key{Dataset: ds, Seeding: Sparse, Alg: alg,
							Procs: procs, Unsteady: unsteady, Prefetch: pf, Injection: inj}, sc)
						cfg.CollectTraces = true
						res, err := core.Run(probs[inj], cfg)
						if err != nil {
							t.Fatalf("%s/%s/%s/inject=%s: %v", key, alg, pf, inj, err)
						}
						sums[fmt.Sprintf("%s/%s/prefetch=%s,inject=%q", key, alg, pf, inj)] = summaryDigest(t, res.Summary, nil)
						digest := trace.CanonicalDigest(res.Streamlines)
						variant := fmt.Sprintf("%s(prefetch %s, inject %q)", alg, pf, inj)
						if ref == "" {
							ref, refAlg = digest, variant
						} else if digest != ref {
							t.Errorf("%s: %s digest %s differs from %s digest %s — runs no longer bit-identical",
								key, variant, digest[:16], refAlg, ref[:16])
						}
					}
				}
			}

			// The faults dimension: one kill-scenario run per algorithm
			// against the same checked-in digests. The recoverable three
			// must survive the loss of processor 0 — the hybrid
			// coordinator and the stealing ring's initial token holder —
			// with bit-identical geometry; static allocation must fail
			// with its typed error rather than produce drifted results.
			for _, alg := range core.Algorithms() {
				cfg := KeyMachineConfig(Key{Dataset: ds, Seeding: Sparse, Alg: alg,
					Procs: procs, Unsteady: unsteady, Faults: FaultsKill}, sc)
				cfg.CollectTraces = true
				res, err := core.Run(probs[InjectT0], cfg)
				if alg == core.StaticAlloc {
					var ue *faults.UnrecoverableError
					if !errors.As(err, &ue) {
						t.Errorf("%s: static under faults returned %v, want *faults.UnrecoverableError", key, err)
					}
					sums[fmt.Sprintf("%s/%s/+f:kill", key, alg)] = summaryDigest(t, metrics.Summary{}, err)
					continue
				}
				if err != nil {
					t.Fatalf("%s/%s under faults: %v", key, alg, err)
				}
				sums[fmt.Sprintf("%s/%s/+f:kill", key, alg)] = summaryDigest(t, res.Summary, nil)
				if res.Summary.ProcsLost == 0 {
					t.Errorf("%s/%s: fault plan never fired (ProcsLost = 0) — the scenario is vacuous", key, alg)
				}
				if digest := trace.CanonicalDigest(res.Streamlines); digest != ref {
					t.Errorf("%s: %s under faults digest %s differs from fault-free %s — recovery changed geometry",
						key, alg, digest[:16], ref[:16])
				}
			}
			// The tracing dimension: the obs recorder observes virtual
			// times the simulation already computed and feeds nothing
			// back, so a traced run must land on the same checked-in
			// digests as an untraced one — the "tracing never perturbs
			// the simulation" contract, pinned here against the
			// UNCHANGED goldens rather than a fresh reference.
			for _, alg := range core.Algorithms() {
				cfg := KeyMachineConfig(Key{Dataset: ds, Seeding: Sparse, Alg: alg,
					Procs: procs, Unsteady: unsteady}, sc)
				cfg.CollectTraces = true
				cfg.Trace = obs.NewDigest()
				res, err := core.Run(probs[InjectT0], cfg)
				if err != nil {
					t.Fatalf("%s/%s under tracing: %v", key, alg, err)
				}
				sums[fmt.Sprintf("%s/%s/traced", key, alg)] = summaryDigest(t, res.Summary, nil)
				// A summary pins counts, not order; the event-stream hash
				// pins every message, load and decision in the order it
				// happened.
				sums[fmt.Sprintf("%s/%s/stream", key, alg)] = fmt.Sprintf("%016x", cfg.Trace.Hash())
				if cfg.Trace.Report().Events == 0 {
					t.Errorf("%s/%s: traced run recorded no events — the dimension is vacuous", key, alg)
				}
				if digest := trace.CanonicalDigest(res.Streamlines); digest != ref {
					t.Errorf("%s: %s under tracing digest %s differs from untraced %s — observation perturbed the run",
						key, alg, digest[:16], ref[:16])
				}
			}
			got[key] = ref
		}
	}

	checkGoldenFile(t, "goldens.txt", "Golden geometry digests: <dataset>/<workload> <sha256>", got)
	checkGoldenFile(t, "summaries.txt", "Golden summary/v1 digests: <dataset>/<workload>/<alg>/<variant> <sha256 | error:text>", sums)
}

// checkGoldenFile compares got against testdata/<name> ("key value"
// lines), or rewrites the file from got under -update.
func checkGoldenFile(t *testing.T, name, header string, got map[string]string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		fmt.Fprintf(&b, "# %s\n", header)
		b.WriteString("# Regenerate with: go test ./internal/experiments -run TestGoldenDigests -update\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (%v); generate with -update", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Fatalf("%s: malformed golden line %q", name, line)
		}
		want[parts[0]] = parts[1]
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, campaign produced %d", name, len(want), len(got))
	}
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: %s: no golden recorded (regenerate with -update)", name, k)
			continue
		}
		if g != w {
			t.Errorf("%s: %s: %.24s... differs from golden %.24s... — if intentional, regenerate with -update",
				name, k, g, w)
		}
	}
}
