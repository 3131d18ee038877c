package main

import (
	"strings"
	"testing"
)

func TestVersionHandshake(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-V=full"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	// cmd/go parses the line as "<name> version <id>": at least three
	// fields with "version" second, and a non-"devel" third field so the
	// whole line keys the tool's result cache.
	fields := strings.Fields(out.String())
	if len(fields) < 3 || fields[1] != "version" || fields[2] == "devel" {
		t.Errorf("handshake line %q does not satisfy the vettool protocol", out.String())
	}
}

func TestFlagsHandshake(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-flags"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.HasPrefix(strings.TrimSpace(out.String()), "[{") {
		t.Errorf("-flags output is not a JSON flag list: %q", out.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	for _, name := range []string{"detlint", "simtime"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
	if n := strings.Count(out.String(), "\n"); n != 2 {
		t.Errorf("-list printed %d analyzers, want 2:\n%s", n, out.String())
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-a", "nope", "./..."}, &out, &errOut); code != 2 {
		t.Errorf("exit %d, want 2 for unknown analyzer", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr %q", errOut.String())
	}
}

// TestStandaloneRefused: slvet is a vet tool only. Handed package
// patterns instead of a .cfg it points at the vettool form and exits 2.
func TestStandaloneRefused(t *testing.T) {
	for _, args := range [][]string{{"./..."}, {"-a", "detlint,simtime", "repro/internal/metrics"}, {}} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "go vet -vettool=") || strings.Count(errOut.String(), "\n") != 1 {
			t.Errorf("%v: stderr %q, want one usage line naming the vettool form", args, errOut.String())
		}
	}
}
