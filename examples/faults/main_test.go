package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRunRecoveryKeepsGeometry runs the walkthrough and checks its
// headline lines: each dynamic algorithm finishes every seed with the
// fault-free geometry after one kill and after three, and static
// refuses with its typed error.
func TestRunRecoveryKeepsGeometry(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"ondemand", "stealing", "hybrid"} {
		single := regexp.MustCompile(`(?m)^` + alg + ` +[0-9.]+ +(\d+)/(\d+) .* IDENTICAL$`).FindStringSubmatch(out.String())
		if single == nil || single[1] != single[2] {
			t.Errorf("no single-kill row for %s with every seed done and geometry identical in:\n%s", alg, out.String())
		}
		if !regexp.MustCompile(`(?m)^  ` + alg + ` +lost=3 adopted=\d+ done=\d+/\d+ geometry IDENTICAL$`).Match(out.Bytes()) {
			t.Errorf("no recovered multi-kill row for %s in:\n%s", alg, out.String())
		}
	}
	if !strings.Contains(out.String(), "\nstatic    refuses, typed: faults: static cannot recover") {
		t.Errorf("no typed static refusal in:\n%s", out.String())
	}
}
