package main

import (
	"bytes"
	"regexp"
	"testing"
)

// TestRunGeometryHoldsUnderEverySchedule runs the walkthrough and checks
// its headline lines: each schedule reproduces the t0 geometry under
// all four algorithms, and both tables have their rows.
func TestRunGeometryHoldsUnderEverySchedule(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, sched := range []string{"stagger", "burst4", "rate"} {
		if !regexp.MustCompile(`(?m)^  ` + sched + ` +identical across all four algorithms$`).Match(out.Bytes()) {
			t.Errorf("no identical-geometry line for %s in:\n%s", sched, out.String())
		}
	}
	if n := len(regexp.MustCompile(`(?m)^  (static|ondemand|hybrid|stealing) +[0-9.]+ -> +[0-9.]+ +\d+ -> +\d+ +\d+$`).FindAll(out.Bytes(), -1)); n != 4 {
		t.Errorf("t0-vs-staggered table has %d rows, want 4:\n%s", n, out.String())
	}
	if n := len(regexp.MustCompile(`(?m)^  (1|2|4|8) +[0-9.]+ +\d+ +\d+ +[0-9.]+$`).FindAll(out.Bytes(), -1)); n != 4 {
		t.Errorf("wave sweep has %d rows, want 4:\n%s", n, out.String())
	}
}
