package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/seeds"
)

// TestInjectionValidateAndNormalize covers the flag-facing surface: the
// accepted spellings, the rejected ones, and the canonical t0 collapse.
func TestInjectionValidateAndNormalize(t *testing.T) {
	for _, inj := range []Injection{InjectT0, "t0", "off", InjectStagger, InjectBurst, InjectRate} {
		if err := inj.Validate(); err != nil {
			t.Errorf("%q rejected: %v", inj, err)
		}
	}
	if err := Injection("poisson").Validate(); err == nil {
		t.Error("unknown injection accepted")
	}
	for _, inj := range []Injection{InjectT0, "t0", "off"} {
		if inj.Enabled() {
			t.Errorf("%q reported enabled", inj)
		}
		if inj.normalized() != InjectT0 {
			t.Errorf("%q normalized to %q, want canonical t0", inj, inj.normalized())
		}
	}
	if !InjectStagger.Enabled() || InjectStagger.normalized() != InjectStagger {
		t.Error("stagger must stay enabled and canonical")
	}
}

// TestInjectionKeyLabel pins the +i: row labels and the cache identity
// of equivalent t0 spellings.
func TestInjectionKeyLabel(t *testing.T) {
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.LoadOnDemand, Procs: 8, Injection: InjectStagger}
	if got := k.Label(); got != "astro/sparse/ondemand/8+i:stagger" {
		t.Errorf("label = %q", got)
	}
	k.Unsteady = true
	k.Prefetch = "both"
	if got := k.Label(); got != "u:astro/sparse/ondemand/8+i:stagger+pf:both" {
		t.Errorf("composed label = %q", got)
	}
	a := Key{Dataset: Astro, Seeding: Sparse, Alg: core.StaticAlloc, Procs: 8, Injection: "t0"}
	b := a
	b.Injection = "off"
	if a.normalized() != b.normalized() {
		t.Error("t0 spellings do not share one cache identity")
	}
}

// TestScaleInjectionSchedule checks the Injection -> seeds.Schedule
// mapping honors the scale's window, wave and rate parameters.
func TestScaleInjectionSchedule(t *testing.T) {
	sc := SmallScale()
	sc.InjectWindow = 2
	sc.InjectWaves = 5
	sc.InjectRate = 4

	stag, err := sc.injectionSchedule(InjectStagger)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := stag.Window(); lo != 0 || hi != 2 {
		t.Errorf("stagger window = [%g, %g], want [0, 2]", lo, hi)
	}
	burst, err := sc.injectionSchedule(InjectBurst)
	if err != nil {
		t.Fatal(err)
	}
	if got := burst.Name(); got != "burst5" {
		t.Errorf("burst schedule = %q, want waves from the scale", got)
	}
	rate, err := sc.injectionSchedule(InjectRate)
	if err != nil {
		t.Fatal(err)
	}
	if times := rate.Times(3); times[1] != 0.25 {
		t.Errorf("rate schedule second release at %g, want 1/4 s", times[1])
	}
	if t0, err := sc.injectionSchedule(InjectT0); err != nil || t0.Times(2)[1] != 0 {
		t.Errorf("t0 schedule = %v/%v, want all-zero releases", t0, err)
	}
	if _, err := sc.injectionSchedule("poisson"); err == nil {
		t.Error("unknown injection built a schedule")
	}
}

// TestBuildInjectedProblem checks the applied release vector against the
// schedule invariants and the t0 passthrough.
func TestBuildInjectedProblem(t *testing.T) {
	sc := SmallScale()
	prob, err := BuildInjectedProblem(Astro, Sparse, sc, false, InjectStagger)
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Release) != len(prob.Seeds) {
		t.Fatalf("release vector %d for %d seeds", len(prob.Release), len(prob.Seeds))
	}
	if err := seeds.ValidateTimes(prob.Release, len(prob.Seeds), 0, sc.InjectWindow); err != nil {
		t.Error(err)
	}
	if prob.Release[len(prob.Release)-1] != sc.InjectWindow {
		t.Errorf("last release %g, want the window end %g", prob.Release[len(prob.Release)-1], sc.InjectWindow)
	}
	plain, err := BuildInjectedProblem(Astro, Sparse, sc, false, InjectT0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Release != nil {
		t.Error("t0 injection set a release vector; the canonical cells must run untouched")
	}
	if _, err := BuildInjectedProblem(Astro, Sparse, sc, false, "poisson"); err == nil {
		t.Error("unknown injection built a problem")
	}
	unsteady, err := BuildInjectedProblem(Astro, Sparse, sc, true, InjectBurst)
	if err != nil {
		t.Fatal(err)
	}
	if !unsteady.Provider.Decomp().Unsteady() || len(unsteady.Release) != len(unsteady.Seeds) {
		t.Error("unsteady injected problem lost its time slicing or release vector")
	}
}

// TestCampaignInjectionCells checks the campaign axis end to end: the
// enumerators emit injected keys, the memoization keeps injected and t0
// problems distinct, and a staggered cell runs with stalls recorded.
func TestCampaignInjectionCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations too slow for -short")
	}
	sc := tinyScale()
	c := NewCampaign(sc)
	c.Cell.Injection = InjectStagger
	for _, k := range c.datasetKeys(Astro) {
		if k.Injection != InjectStagger {
			t.Fatalf("%s: enumerated without the campaign injection", k.Label())
		}
	}
	k := Key{Dataset: Astro, Seeding: Sparse, Alg: core.WorkStealing, Procs: 4, Injection: InjectStagger}
	out := c.Run(k)
	if out.Err != nil {
		t.Fatalf("injected cell failed: %v", out.Err)
	}
	if out.Summary.ReleaseStalls == 0 || out.Summary.ActivePeak == 0 {
		t.Errorf("injected cell recorded no injection activity: %+v", out.Summary)
	}
	t0 := c.Run(Key{Dataset: Astro, Seeding: Sparse, Alg: core.WorkStealing, Procs: 4})
	if t0.Err != nil {
		t.Fatalf("t0 cell failed: %v", t0.Err)
	}
	if t0.Summary.ReleaseStalls != 0 {
		t.Errorf("t0 cell recorded release stalls: %+v", t0.Summary)
	}
	if t0.Summary.Steps != out.Summary.Steps {
		t.Errorf("injection changed total integration steps: %d vs %d (geometry must be schedule-independent)",
			t0.Summary.Steps, out.Summary.Steps)
	}
	// Injection participates in the figure columns when the campaign
	// enumerates injected cells.
	cols := strings.Join(c.FigureColumns(Figures()[0]), ",")
	if !strings.Contains(cols, "apeak") || !strings.Contains(cols, "rstalls") {
		t.Errorf("figure columns %q missing the injection columns", cols)
	}
}
