package main

import (
	"bytes"
	"regexp"
	"testing"

	"repro/internal/core"
)

// TestRunProfilesEveryAlgorithm runs the walkthrough and checks its
// headline lines: one profile row per algorithm, then the report on the
// longest streamline the hybrid run collected.
func TestRunProfilesEveryAlgorithm(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, alg := range core.Algorithms() {
		if !regexp.MustCompile(`(?m)^` + string(alg) + `( +[0-9.]+){4} +\d+$`).Match(out.Bytes()) {
			t.Errorf("no profile row for %s in:\n%s", alg, out.String())
		}
	}
	if !regexp.MustCompile(`(?m)^longest streamline: id=\d+, \d+ points, arc length [0-9.]+, status `).Match(out.Bytes()) {
		t.Errorf("no longest-streamline report in:\n%s", out.String())
	}
}
